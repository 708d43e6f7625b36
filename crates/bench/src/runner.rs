//! The paper's experimental protocol (§4), shared by every table binary.
//!
//! "All experiments were done with algorithm DPGA set with a total
//! population size of 320. The crossover rate p_c = 0.7 and the mutation
//! rate p_m = 0.01. […] The figures are obtained by averaging the results
//! of 5 runs, and the tables represent the best solutions obtained in
//! these 5 runs." The rates are the engine's constants
//! ([`gapart_core::engine::CROSSOVER_RATE`],
//! [`gapart_core::engine::MUTATION_RATE`]).

use gapart_core::history::ConvergenceHistory;
use gapart_core::incremental::extend_partition_balanced;
use gapart_core::population::InitStrategy;
use gapart_core::{
    CrossoverOp, DpgaConfig, DpgaEngine, FitnessKind, GaConfig, HillClimbMode, Topology,
};
use gapart_graph::partitioner::PartitionReport;
use gapart_graph::{CsrGraph, Partition};

/// Knobs of the experimental protocol. Defaults mirror §4; everything can
/// be overridden from the environment (`GAPART_RUNS`, `GAPART_GENS`,
/// `GAPART_POP`, `GAPART_FAST=1`).
#[derive(Debug, Clone)]
pub struct ExperimentProtocol {
    /// Independent GA runs per cell (paper: 5).
    pub runs: usize,
    /// Generations per run.
    pub generations: usize,
    /// Total DPGA population (paper: 320).
    pub population: usize,
    /// DPGA topology (paper: 16 subpopulations on a 4-d hypercube).
    pub topology: Topology,
    /// Hill-climbing mode for the GA (§3.6; the paper treats it as an
    /// optional add-on, so the default polishes offspring lightly).
    pub hill_climb: HillClimbMode,
    /// Crossover operator under test (DKNUX for the headline tables).
    pub crossover: CrossoverOp,
    /// Boundary-mutation rate (extension knob; see
    /// [`gapart_core::GaConfig::boundary_mutation_rate`]).
    pub boundary_mutation_rate: f64,
    /// Base RNG seed; run `r` uses `seed + 1000·r`.
    pub seed: u64,
}

impl Default for ExperimentProtocol {
    fn default() -> Self {
        ExperimentProtocol {
            runs: 5,
            generations: 150,
            population: 320,
            topology: Topology::PAPER,
            hill_climb: HillClimbMode::Offspring { passes: 1 },
            crossover: CrossoverOp::Dknux,
            boundary_mutation_rate: 0.05,
            seed: 0x5343_3934,
        }
    }
}

impl ExperimentProtocol {
    /// Runs a registered partitioner through the unified
    /// [`gapart_graph::partitioner::Partitioner`] trait — the same
    /// dispatch path as the CLI's `--method` flag. The table binaries use
    /// this for their RSB / IBP baseline columns and seed partitions.
    ///
    /// # Panics
    ///
    /// On unknown names or algorithm failure: the experiment binaries
    /// have no error channel besides aborting the run.
    pub fn baseline(&self, name: &str, graph: &CsrGraph, num_parts: u32) -> PartitionReport {
        let p = gapart::partitioners::by_name(name)
            .unwrap_or_else(|| panic!("unknown partitioner '{name}'"));
        p.partition(graph, num_parts, BASELINE_SEED)
            .unwrap_or_else(|e| panic!("baseline {name} failed: {e}"))
    }

    /// Builds the protocol from the environment (see
    /// [`ExperimentProtocol`]).
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// Pure reader behind [`ExperimentProtocol::from_env`]: `var` looks up
    /// one `GAPART_*` variable. `GAPART_POP` is raised to two individuals
    /// per island of the topology `GAPART_FAST` picked, the least
    /// [`DpgaEngine::new`] accepts.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let mut p = ExperimentProtocol::default();
        let parse = |name: &str| -> Option<usize> { var(name)?.parse().ok() };
        if var("GAPART_FAST").is_some_and(|v| v == "1") {
            p.runs = 2;
            p.generations = 30;
            p.population = 64;
            p.topology = Topology::Hypercube(2);
        }
        if let Some(r) = parse("GAPART_RUNS") {
            p.runs = r.max(1);
        }
        if let Some(g) = parse("GAPART_GENS") {
            p.generations = g.max(1);
        }
        if let Some(pop) = parse("GAPART_POP") {
            p.population = pop.max(2 * p.topology.size());
        }
        p
    }

    /// The DPGA configuration for one run. `init_overrides` (if given)
    /// cycle across subpopulations — the heterogeneous-island pattern the
    /// seeded protocols use.
    pub fn dpga_config(
        &self,
        num_parts: u32,
        fitness: FitnessKind,
        init: InitStrategy,
        init_overrides: Option<Vec<InitStrategy>>,
        run: usize,
    ) -> DpgaConfig {
        let mut base = GaConfig::paper_defaults(num_parts)
            .with_fitness(fitness)
            .with_crossover(self.crossover)
            .with_population_size(self.population)
            .with_generations(self.generations)
            .with_init(init)
            .with_hill_climb(self.hill_climb)
            .with_seed(self.seed.wrapping_add(1000 * run as u64));
        base.boundary_mutation_rate = self.boundary_mutation_rate;
        DpgaConfig {
            base,
            topology: self.topology,
            migration_interval: 5,
            init_overrides,
        }
    }

    /// Runs the protocol: `runs` independent DPGA runs, returning the
    /// best-of-runs cut (tables) and the full per-run histories (figures).
    pub fn run(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        fitness: FitnessKind,
        init: InitStrategy,
    ) -> RunSummary {
        self.run_with_overrides(graph, num_parts, fitness, init, None)
    }

    /// Like [`ExperimentProtocol::run`] but with per-subpopulation
    /// initialization overrides.
    pub fn run_with_overrides(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        fitness: FitnessKind,
        init: InitStrategy,
        init_overrides: Option<Vec<InitStrategy>>,
    ) -> RunSummary {
        let mut best_cut = u64::MAX;
        let mut cuts = Vec::with_capacity(self.runs);
        let mut histories = Vec::with_capacity(self.runs);
        for r in 0..self.runs {
            let config =
                self.dpga_config(num_parts, fitness, init.clone(), init_overrides.clone(), r);
            let result = DpgaEngine::new(graph, config)
                .expect("protocol configs are valid")
                .run();
            best_cut = best_cut.min(result.best_cut);
            cuts.push(result.best_cut);
            histories.push(result.history);
        }
        RunSummary {
            best_cut,
            cuts,
            histories,
        }
    }

    /// Heuristic-seeded protocol (Tables 1, 2, 5): heterogeneous islands —
    /// half the subpopulations are seeded from `seed_partition` (first
    /// copy exact, rest 10% perturbed), the other half start
    /// balanced-random. Seeded islands plus elitism guarantee the result
    /// is never worse than the seed; random islands keep exploring, and
    /// migration merges the two.
    pub fn run_seeded(
        &self,
        graph: &CsrGraph,
        num_parts: u32,
        fitness: FitnessKind,
        seed_partition: &Partition,
    ) -> RunSummary {
        let seeded = InitStrategy::Seeded {
            partition: seed_partition.labels().to_vec(),
            perturbation: 0.1,
        };
        let overrides = vec![seeded.clone(), InitStrategy::BalancedRandom];
        self.run_with_overrides(graph, num_parts, fitness, seeded, Some(overrides))
    }

    /// Incremental protocol (Tables 3, 6): extend the old partition to the
    /// grown graph balanced-randomly (§3.5) and seed the population from
    /// the extension with a small perturbation.
    pub fn run_incremental(
        &self,
        grown: &CsrGraph,
        old: &Partition,
        fitness: FitnessKind,
    ) -> RunSummary {
        let extended = extend_partition_balanced(grown, old, self.seed)
            .expect("old partition fits the grown graph");
        let seeded = InitStrategy::Seeded {
            partition: extended.labels().to_vec(),
            perturbation: 0.05,
        };
        let overrides = vec![seeded.clone(), seeded.clone(), InitStrategy::BalancedRandom];
        self.run_with_overrides(grown, old.num_parts(), fitness, seeded, Some(overrides))
    }
}

/// Outcome of one protocol cell.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Best cut over all runs (what the paper's tables report).
    pub best_cut: u64,
    /// Each run's best cut.
    pub cuts: Vec<u64>,
    /// Each run's convergence history (what the paper's figures average).
    pub histories: Vec<ConvergenceHistory>,
}

impl RunSummary {
    /// Mean of the per-run best cuts.
    pub fn mean_cut(&self) -> f64 {
        if self.cuts.is_empty() {
            return 0.0;
        }
        self.cuts.iter().map(|&c| c as f64).sum::<f64>() / self.cuts.len() as f64
    }
}

/// Seed used for baseline partitioners run through
/// [`ExperimentProtocol::baseline`] — RSB's default, so trait dispatch
/// reproduces the direct-call results exactly (IBP has no randomness and
/// ignores it).
pub const BASELINE_SEED: u64 = gapart_rsb::DEFAULT_SEED;

/// Standard graph fixtures shared by the binaries: the deterministic growth
/// seed used for the incremental experiments (Tables 3 & 6), so every
/// binary and test sees identical grown graphs.
pub const GROWTH_SEED: u64 = 0x6772_6f77;

/// Builds the `(base_graph, grown_graph, base_partition)` triple for an
/// incremental cell: the base graph is partitioned with RSB (the "previous
/// partitioning"), then grown locally by `added` nodes.
pub fn incremental_fixture(
    base_nodes: usize,
    added: usize,
    num_parts: u32,
) -> (CsrGraph, CsrGraph, Partition) {
    let base = gapart_graph::generators::paper_graph(base_nodes);
    let old = gapart::partitioners::by_name("rsb")
        .expect("rsb is registered")
        .partition(&base, num_parts, BASELINE_SEED)
        .expect("paper graphs are partitionable")
        .partition;
    let grown = gapart_graph::incremental::grow_local(&base, added, GROWTH_SEED)
        .expect("paper graphs carry coordinates")
        .graph;
    (base, grown, old)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::paper_graph;
    use gapart_graph::partitioner::Partitioner;

    fn tiny() -> ExperimentProtocol {
        ExperimentProtocol {
            runs: 2,
            generations: 10,
            population: 32,
            topology: Topology::Hypercube(2),
            hill_climb: HillClimbMode::Off,
            crossover: CrossoverOp::Dknux,
            boundary_mutation_rate: 0.0,
            seed: 1,
        }
    }

    #[test]
    fn protocol_runs_and_summarizes() {
        let g = paper_graph(78);
        let s = tiny().run(&g, 4, FitnessKind::TotalCut, InitStrategy::BalancedRandom);
        assert_eq!(s.cuts.len(), 2);
        assert_eq!(s.histories.len(), 2);
        assert_eq!(s.best_cut, *s.cuts.iter().min().unwrap());
        assert!(s.mean_cut() >= s.best_cut as f64);
    }

    #[test]
    fn seeded_run_accepts_rsb_partition() {
        let g = paper_graph(78);
        let rsb = gapart_rsb::rsb_partition(&g, 4, gapart_rsb::DEFAULT_SEED).unwrap();
        let s = tiny().run_seeded(&g, 4, FitnessKind::WorstCut, &rsb);
        assert!(s.best_cut > 0);
    }

    #[test]
    fn incremental_fixture_is_consistent() {
        let (base, grown, old) = incremental_fixture(78, 10, 4);
        assert_eq!(base.num_nodes(), 78);
        assert_eq!(grown.num_nodes(), 88);
        assert_eq!(old.num_nodes(), 78);
        let s = tiny().run_incremental(&grown, &old, FitnessKind::TotalCut);
        assert!(s.best_cut > 0);
    }

    #[test]
    fn every_registered_partitioner_is_invocable_from_the_runner() {
        let g = paper_graph(78);
        let mut protocol = tiny();
        protocol.generations = 3;
        for name in gapart::partitioners::NAMES {
            // GA/DPGA at registry defaults are slow; shrink via env-free
            // trait dispatch with the tiny protocol's own config instead.
            let report = match name {
                "ga" => gapart_core::GaPartitioner::new(
                    gapart_core::GaConfig::paper_defaults(4)
                        .with_population_size(16)
                        .with_generations(3),
                )
                .partition(&g, 4, 1)
                .unwrap(),
                "dpga" => gapart_core::DpgaPartitioner::new(protocol.dpga_config(
                    4,
                    FitnessKind::TotalCut,
                    InitStrategy::BalancedRandom,
                    None,
                    0,
                ))
                .partition(&g, 4, 1)
                .unwrap(),
                _ => protocol.baseline(name, &g, 4),
            };
            assert_eq!(report.algorithm, name);
            assert_eq!(report.partition.num_nodes(), 78);
            assert!(report.partition.labels().iter().all(|&l| l < 4));
        }
    }

    #[test]
    fn env_population_leaves_every_island_two_individuals() {
        let vars = |pairs: &'static [(&'static str, &'static str)]| {
            move |name: &str| {
                pairs
                    .iter()
                    .find(|(k, _)| *k == name)
                    .map(|(_, v)| (*v).to_string())
            }
        };
        let g = paper_graph(78);
        let accepts = |p: &ExperimentProtocol| {
            let config = p.dpga_config(
                4,
                FitnessKind::TotalCut,
                InitStrategy::BalancedRandom,
                None,
                0,
            );
            DpgaEngine::new(&g, config).is_ok()
        };
        let paper = ExperimentProtocol::from_vars(vars(&[("GAPART_POP", "16")]));
        assert_eq!(paper.topology.size(), 16);
        assert!(accepts(&paper), "population {}", paper.population);
        let fast =
            ExperimentProtocol::from_vars(vars(&[("GAPART_FAST", "1"), ("GAPART_POP", "4")]));
        assert!(fast.population >= 8, "population {}", fast.population);
        assert!(accepts(&fast), "population {}", fast.population);
        let unset = ExperimentProtocol::from_vars(|_: &str| None);
        assert_eq!(unset.population, 320);
    }

    #[test]
    fn deterministic_protocol() {
        let g = paper_graph(88);
        let a = tiny().run(&g, 4, FitnessKind::TotalCut, InitStrategy::BalancedRandom);
        let b = tiny().run(&g, 4, FitnessKind::TotalCut, InitStrategy::BalancedRandom);
        assert_eq!(a.cuts, b.cuts);
    }
}
