//! The coarse-grained distributed-population GA (§3.4).
//!
//! Individuals are split across subpopulations placed on the nodes of a
//! virtual architecture (the paper: 16 subpopulations on a 4-d hypercube,
//! 320 individuals total). Crossover happens only within a subpopulation;
//! every `migration_interval` generations each subpopulation sends copies
//! of its best individuals to its topological neighbours, which adopt
//! them in place of their worst members.
//!
//! Execution is **lockstep**: all subpopulations advance the same number
//! of generations between synchronized migration rounds. Because each
//! subpopulation owns an independent seeded RNG and migration happens at
//! fixed generation boundaries, the subpopulations advance across the
//! installed rayon pool with bit-identical results at every pool size —
//! asserted in the tests.

use crate::engine::{GaConfig, GaEngine, GaResult};
use crate::error::GaError;
use crate::history::ConvergenceHistory;
use crate::population::Individual;
use crate::topology::Topology;
use gapart_graph::partition::PartitionMetrics;
use gapart_graph::{CsrGraph, Partition};
use rayon::prelude::*;

/// Copies of its fittest individuals that each subpopulation sends to
/// *each* neighbour per migration round (the paper: "communicates copies
/// of its best individuals").
pub const NUM_MIGRANTS: usize = 2;

/// Configuration of a DPGA run.
#[derive(Debug, Clone)]
pub struct DpgaConfig {
    /// Per-subpopulation GA template. `base.population_size` is the
    /// **total** population; it is divided evenly across subpopulations
    /// (any remainder goes to the lowest-numbered ones).
    pub base: GaConfig,
    /// The virtual interconnect.
    pub topology: Topology,
    /// Generations between migration rounds.
    pub migration_interval: usize,
    /// Optional per-subpopulation initialization override: subpopulation
    /// `i` uses `init_overrides[i % len]` instead of `base.init`. The
    /// heterogeneous-island pattern (some islands seeded, some random)
    /// keeps exploration alive when a strong heuristic seed would
    /// otherwise collapse every island onto its local optimum — DKNUX is
    /// a consensus operator, so homogeneous seeded islands stop searching.
    pub init_overrides: Option<Vec<crate::population::InitStrategy>>,
}

impl DpgaConfig {
    /// The paper's configuration: 16 subpopulations on a 4-d hypercube,
    /// total population 320, DKNUX.
    pub fn paper(num_parts: u32) -> Self {
        DpgaConfig {
            base: GaConfig::paper_defaults(num_parts),
            topology: Topology::PAPER,
            migration_interval: 5,
            init_overrides: None,
        }
    }

    /// Sizing for the *coarsest* graph of a multilevel V-cycle: the
    /// [`GaConfig::coarse_defaults`] budget split across 4 islands on a
    /// 2-d hypercube (16 islands would leave 4 individuals each). The
    /// registry's `mldpga` method wraps a DPGA with this configuration.
    pub fn coarse(num_parts: u32) -> Self {
        let mut config = Self::paper(num_parts);
        config.base = GaConfig::coarse_defaults(num_parts);
        config.topology = Topology::Hypercube(2);
        config
    }

    /// Replaces the base GA config.
    #[must_use]
    pub fn with_base(mut self, base: GaConfig) -> Self {
        self.base = base;
        self
    }

    /// Replaces the topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    fn validate(&self) -> Result<(), GaError> {
        let subpops = self.topology.size();
        if subpops == 0 {
            return Err(GaError::BadTopology {
                message: "topology has no nodes".into(),
            });
        }
        if self.base.population_size < 2 * subpops {
            return Err(GaError::BadTopology {
                message: format!(
                    "total population {} cannot give {} subpopulations at least 2 individuals each",
                    self.base.population_size, subpops
                ),
            });
        }
        if self.migration_interval == 0 {
            return Err(GaError::BadTopology {
                message: "migration interval must be positive".into(),
            });
        }
        Ok(())
    }
}

/// Outcome of a DPGA run.
#[derive(Debug, Clone)]
pub struct DpgaResult {
    /// Best partition across all subpopulations.
    pub best_partition: Partition,
    /// Its fitness.
    pub best_fitness: f64,
    /// Its reported cut (total or worst per the fitness kind).
    pub best_cut: u64,
    /// Full metrics of the best partition.
    pub best_metrics: PartitionMetrics,
    /// Global convergence history: the best-so-far across subpopulations
    /// at each generation.
    pub history: ConvergenceHistory,
    /// Each subpopulation's own result (histories included).
    pub per_subpop: Vec<GaResult>,
}

/// Driver that owns one [`GaEngine`] per subpopulation.
#[derive(Debug)]
pub struct DpgaEngine<'g> {
    engines: Vec<GaEngine<'g>>,
    config: DpgaConfig,
    graph: &'g CsrGraph,
}

impl<'g> DpgaEngine<'g> {
    /// Builds one engine per topology node. Subpopulation `i` uses seed
    /// `base.seed ⊕ mix(i)` so runs are decorrelated but reproducible.
    pub fn new(graph: &'g CsrGraph, config: DpgaConfig) -> Result<Self, GaError> {
        config.validate()?;
        let subpops = config.topology.size();
        let total = config.base.population_size;
        let base_size = total / subpops;
        let extra = total % subpops;
        let mut engines = Vec::with_capacity(subpops);
        for i in 0..subpops {
            let mut sub = config.base.clone();
            if let Some(overrides) = &config.init_overrides {
                if !overrides.is_empty() {
                    sub.init = overrides[i % overrides.len()].clone();
                }
            }
            sub.population_size = base_size + usize::from(i < extra);
            // Keep elitism feasible in the smaller subpopulation.
            sub.elitism = sub.elitism.min(sub.population_size - 1);
            sub.seed = config
                .base
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .rotate_left(i as u32);
            // `validate` gave every island at least 2 individuals and
            // elitism is clamped above, so an island's population error
            // can only be its allocation: report the total asked for.
            let engine = GaEngine::new(graph, sub).map_err(|e| match e {
                GaError::BadPopulation { .. } => GaError::BadPopulation {
                    message: format!("cannot allocate a population of {total} ({subpops} islands)"),
                },
                other => other,
            })?;
            engines.push(engine);
        }
        Ok(DpgaEngine {
            engines,
            config,
            graph,
        })
    }

    /// Advances every subpopulation by `generations` in lockstep (no
    /// migration inside the block), the islands split across the
    /// installed pool's workers.
    fn advance(&mut self, generations: usize) {
        self.engines.par_iter_mut().for_each(|e| {
            for _ in 0..generations {
                e.step();
            }
        });
    }

    /// One synchronized migration round: everyone emits copies of its best
    /// individuals to each neighbour, then everyone absorbs its inbox.
    fn migrate(&mut self) {
        let topo = self.config.topology;
        // Collect all outboxes first (pure reads), then deliver, so the
        // exchange is simultaneous as on a real message-passing machine.
        let outboxes: Vec<Vec<Individual>> = self
            .engines
            .iter()
            .map(|e| e.emigrants(NUM_MIGRANTS))
            .collect();
        let mut inboxes: Vec<Vec<Individual>> = vec![Vec::new(); self.engines.len()];
        for (i, outbox) in outboxes.iter().enumerate() {
            for j in topo.neighbors(i) {
                inboxes[j].extend(outbox.iter().cloned());
            }
        }
        for (engine, inbox) in self.engines.iter_mut().zip(inboxes) {
            engine.immigrate(inbox);
        }
    }

    /// Runs `base.generations` generations with migration every
    /// `migration_interval`, then returns the merged result.
    pub fn run(mut self) -> DpgaResult {
        let total = self.config.base.generations;
        let interval = self.config.migration_interval;
        let mut done = 0usize;
        while done < total {
            let block = interval.min(total - done);
            self.advance(block);
            done += block;
            if done < total {
                self.migrate();
            }
        }

        let per_subpop: Vec<GaResult> = self.engines.into_iter().map(|e| e.finish()).collect();
        // total_cmp orders finite fitness as partial_cmp would (a zero
        // fitness is always -0.0), without a NaN panic. `validate` rejects
        // an empty topology, so island 0 exists.
        let best_idx = per_subpop
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.best_fitness.total_cmp(&b.best_fitness))
            .map_or(0, |(i, _)| i);

        // Global history: best-so-far across subpopulations per generation.
        let max_len = per_subpop
            .iter()
            .map(|r| r.history.len())
            .max()
            .unwrap_or(0);
        let mut history = ConvergenceHistory::with_capacity(max_len.saturating_sub(1));
        for g in 0..max_len {
            let mut best_fit = f64::NEG_INFINITY;
            let mut best_cut = u64::MAX;
            let mut mean_acc = 0.0;
            for r in &per_subpop {
                let idx = g.min(r.history.len() - 1);
                best_fit = best_fit.max(r.history.best_fitness[idx]);
                best_cut = best_cut.min(r.history.best_cut[idx]);
                mean_acc += r.history.mean_fitness[idx];
            }
            history.push(best_fit, mean_acc / per_subpop.len() as f64, best_cut);
        }

        let best = &per_subpop[best_idx];
        DpgaResult {
            best_partition: best.best_partition.clone(),
            best_fitness: best.best_fitness,
            best_cut: best.best_cut,
            best_metrics: PartitionMetrics::compute(self.graph, &best.best_partition),
            history,
            per_subpop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::paper_graph;

    fn small_dpga(num_parts: u32) -> DpgaConfig {
        let base = GaConfig::paper_defaults(num_parts)
            .with_population_size(64)
            .with_generations(20)
            .with_seed(5);
        DpgaConfig {
            base,
            topology: Topology::Hypercube(2),
            migration_interval: 5,
            init_overrides: None,
        }
    }

    #[test]
    fn paper_config_matches_section4() {
        let c = DpgaConfig::paper(8);
        assert_eq!(c.topology.size(), 16);
        assert_eq!(c.base.population_size, 320);
        assert_eq!(crate::engine::CROSSOVER_RATE, 0.7);
        assert_eq!(crate::engine::MUTATION_RATE, 0.01);
    }

    #[test]
    fn parallel_and_sequential_agree_exactly() {
        // A 4-thread pool advances the islands on real workers; a
        // 1-thread pool runs them inline, one after another.
        let g = paper_graph(98);
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| DpgaEngine::new(&g, small_dpga(4)).unwrap().run())
        };
        let par = run(4);
        let seq = run(1);
        assert_eq!(par.best_partition, seq.best_partition);
        assert_eq!(par.history, seq.history);
        assert_eq!(par.best_fitness, seq.best_fitness);
    }

    #[test]
    fn subpopulation_sizes_sum_to_total() {
        let g = paper_graph(78);
        let mut cfg = small_dpga(4);
        cfg.base.population_size = 67; // not divisible by 4
                                       // 67 = 17 + 17 + 17 + 16 — verified indirectly by a clean run.
        let r = DpgaEngine::new(&g, cfg).unwrap().run();
        assert_eq!(r.per_subpop.len(), 4);
    }

    #[test]
    fn migration_spreads_good_solutions() {
        // With migration, the worst subpopulation's final best should be
        // close to the global best (it keeps receiving good immigrants).
        let g = paper_graph(144);
        let r = DpgaEngine::new(&g, small_dpga(4)).unwrap().run();
        let global = r.best_fitness;
        for sub in &r.per_subpop {
            assert!(
                sub.best_fitness >= global * 1.5, // fitnesses are negative
                "subpop {} vs global {global}",
                sub.best_fitness
            );
        }
    }

    #[test]
    fn history_is_monotone_and_aligned() {
        let g = paper_graph(78);
        let r = DpgaEngine::new(&g, small_dpga(2)).unwrap().run();
        assert_eq!(r.history.len(), 21);
        for w in r.history.best_fitness.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn validates_topology_population_fit() {
        let g = paper_graph(78);
        let mut cfg = small_dpga(2);
        cfg.base.population_size = 6; // < 2 per subpop on 4 nodes
        assert!(matches!(
            DpgaEngine::new(&g, cfg).unwrap_err(),
            GaError::BadTopology { .. }
        ));
        let mut cfg = small_dpga(2);
        cfg.migration_interval = 0;
        assert!(matches!(
            DpgaEngine::new(&g, cfg).unwrap_err(),
            GaError::BadTopology { .. }
        ));
    }

    #[test]
    fn unallocatable_population_is_an_error() {
        let g = paper_graph(78);
        let mut cfg = small_dpga(4);
        cfg.base.population_size = usize::MAX;
        let err = DpgaEngine::new(&g, cfg).unwrap_err();
        assert!(matches!(err, GaError::BadPopulation { .. }), "{err}");
        // The message names the population asked for, not one island's
        // share of it.
        assert!(err.to_string().contains(&usize::MAX.to_string()), "{err}");
    }

    #[test]
    fn deterministic_across_runs() {
        let g = paper_graph(88);
        let a = DpgaEngine::new(&g, small_dpga(4)).unwrap().run();
        let b = DpgaEngine::new(&g, small_dpga(4)).unwrap().run();
        assert_eq!(a.best_partition, b.best_partition);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn dpga_at_least_matches_single_population_on_budget() {
        // Same total evaluations; the distributed model should not be
        // dramatically worse (usually better via diversity).
        let g = paper_graph(144);
        let dpga = DpgaEngine::new(&g, small_dpga(4)).unwrap().run();
        let single = GaEngine::new(
            &g,
            GaConfig::paper_defaults(4)
                .with_population_size(64)
                .with_generations(20)
                .with_seed(5),
        )
        .unwrap()
        .run();
        assert!(
            dpga.best_fitness >= single.best_fitness * 1.6,
            "dpga {} vs single {}",
            dpga.best_fitness,
            single.best_fitness
        );
    }
}
