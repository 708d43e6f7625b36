//! The single-population generational GA engine.
//!
//! [`DpgaEngine`](crate::dpga::DpgaEngine) composes several of these (one
//! per subpopulation); everything about a generation — selection,
//! crossover, mutation, optional hill climbing, elitist replacement, and
//! the DKNUX reference update — lives here.

use crate::chromosome::Chromosome;
use crate::error::GaError;
use crate::fitness::{EvalScratch, FitnessEvaluator, FitnessKind};
use crate::hillclimb::{hill_climb_in, swap_climb_in};
use crate::history::ConvergenceHistory;
use crate::ops::crossover::{CrossoverCtx, CrossoverOp};
use crate::ops::mutation::mutate;
use crate::population::{Individual, InitStrategy, Population};
use crate::selection::binary_tournament;
use gapart_graph::partition::PartitionMetrics;
use gapart_graph::{CsrGraph, Partition};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Minimum offspring per rayon worker before the evaluation phase fans
/// out — below `2×` this, thread-spawn overhead exceeds the work. Pure
/// scheduling: results are identical at any value.
pub(crate) const PAR_MIN_OFFSPRING: usize = 8;

/// When (if at all) to apply boundary hill climbing (§3.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HillClimbMode {
    /// Never.
    Off,
    /// On every offspring, right after mutation (memetic mode). Strongest
    /// but slowest; the paper notes "performance can further be improved
    /// by incorporating a hill-climbing step".
    Offspring {
        /// Maximum sweeps per offspring.
        passes: usize,
    },
    /// Only on the final best individual, after the last generation.
    FinalBest {
        /// Maximum sweeps.
        passes: usize,
    },
}

/// Probability that a selected pair is crossed, §4's `p_c`; pairs that
/// skip crossover are cloned.
pub const CROSSOVER_RATE: f64 = 0.7;

/// Per-gene mutation probability, §4's `p_m`.
pub const MUTATION_RATE: f64 = 0.01;

/// Full configuration of a GA run. Parents are picked by binary
/// tournament, crossed with probability [`CROSSOVER_RATE`] and mutated
/// per gene with probability [`MUTATION_RATE`]; the objective weighs
/// imbalance and communication equally (the paper's λ = 1).
///
/// [`GaConfig::paper_defaults`] reproduces §4's setup: total population
/// 320, DKNUX, Fitness 1.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Number of parts to partition into.
    pub num_parts: u32,
    /// Which of the paper's two objectives to maximize.
    pub fitness: FitnessKind,
    /// Crossover operator.
    pub crossover: CrossoverOp,
    /// Probability that each *boundary* gene additionally mutates to a
    /// neighbouring part (extension; 0 disables). Classic uniform
    /// mutation almost never proposes useful moves on locality-rich
    /// graphs, so a little boundary-directed noise keeps the search alive
    /// after the population converges.
    pub boundary_mutation_rate: f64,
    /// Number of individuals.
    pub population_size: usize,
    /// Generations to run.
    pub generations: usize,
    /// Number of best individuals copied unchanged into the next
    /// generation.
    pub elitism: usize,
    /// Hill-climbing mode.
    pub hill_climb: HillClimbMode,
    /// Swap-climb passes applied to the best-ever individual once per
    /// generation (0 disables). Pair swaps preserve balance exactly, so
    /// this escapes the single-move local optima that the squared
    /// imbalance term creates — the exploitation channel that lets the GA
    /// refine heuristic seeds (Tables 1, 2, 5) without per-offspring cost.
    pub elite_swap_passes: usize,
    /// Initial-population strategy (§3.5).
    pub init: InitStrategy,
    /// RNG seed; every run with the same config and graph is identical.
    pub seed: u64,
}

impl GaConfig {
    /// The paper's experimental configuration (§4) for a single
    /// population: 320 individuals, DKNUX, Fitness 1, elitism 2, on top
    /// of the fixed `p_c`, `p_m`, λ and binary tournament.
    pub fn paper_defaults(num_parts: u32) -> Self {
        GaConfig {
            num_parts,
            fitness: FitnessKind::TotalCut,
            crossover: CrossoverOp::Dknux,
            boundary_mutation_rate: 0.0,
            population_size: 320,
            generations: 200,
            elitism: 2,
            hill_climb: HillClimbMode::Off,
            elite_swap_passes: 1,
            init: InitStrategy::BalancedRandom,
            seed: 0x5343_3934, // "SC94"
        }
    }

    /// Budget sized for the *coarsest* graph of a multilevel V-cycle
    /// (`gapart_graph::multilevel`): such graphs carry at most a couple of
    /// hundred nodes, so a small population with offspring hill climbing
    /// and boundary mutation converges in tens of generations — the
    /// paper's full §4 budget would be pure waste there. The registry's
    /// `mlga` method wraps a GA with exactly this configuration.
    pub fn coarse_defaults(num_parts: u32) -> Self {
        let mut config = GaConfig::paper_defaults(num_parts);
        config.population_size = 64;
        config.generations = 60;
        config.hill_climb = HillClimbMode::Offspring { passes: 1 };
        config.boundary_mutation_rate = 0.05;
        config
    }

    /// Sets the fitness kind.
    #[must_use]
    pub fn with_fitness(mut self, kind: FitnessKind) -> Self {
        self.fitness = kind;
        self
    }

    /// Sets the crossover operator.
    #[must_use]
    pub fn with_crossover(mut self, op: CrossoverOp) -> Self {
        self.crossover = op;
        self
    }

    /// Sets the generation budget.
    #[must_use]
    pub fn with_generations(mut self, generations: usize) -> Self {
        self.generations = generations;
        self
    }

    /// Sets the population size.
    #[must_use]
    pub fn with_population_size(mut self, size: usize) -> Self {
        self.population_size = size;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the initialization strategy.
    #[must_use]
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Sets the hill-climb mode.
    #[must_use]
    pub fn with_hill_climb(mut self, mode: HillClimbMode) -> Self {
        self.hill_climb = mode;
        self
    }

    /// Seeds the population from a heuristic partition with the default
    /// perturbation (10% of genes), the paper's §3.5 setup.
    #[must_use]
    pub fn seeded_from(mut self, partition: &Partition) -> Self {
        self.init = InitStrategy::Seeded {
            partition: partition.labels().to_vec(),
            perturbation: 0.1,
        };
        self
    }

    fn validate(&self, num_nodes: usize) -> Result<(), GaError> {
        if self.num_parts == 0 || self.num_parts as usize > num_nodes {
            return Err(GaError::BadPartCount {
                num_parts: self.num_parts,
                num_nodes,
            });
        }
        let value = self.boundary_mutation_rate;
        if !(0.0..=1.0).contains(&value) {
            return Err(GaError::BadRate {
                name: "boundary_mutation_rate",
                value,
            });
        }
        if self.population_size < 2 {
            return Err(GaError::BadPopulation {
                message: format!("population of {} cannot breed", self.population_size),
            });
        }
        if self.elitism >= self.population_size {
            return Err(GaError::BadPopulation {
                message: format!(
                    "elitism {} must be below population size {}",
                    self.elitism, self.population_size
                ),
            });
        }
        if let InitStrategy::Seeded {
            partition,
            perturbation,
        } = &self.init
        {
            if partition.len() != num_nodes {
                return Err(GaError::BadSeed {
                    message: format!(
                        "seed has {} labels for {} nodes",
                        partition.len(),
                        num_nodes
                    ),
                });
            }
            if partition.iter().any(|&p| p >= self.num_parts) {
                return Err(GaError::BadSeed {
                    message: "seed label out of range".into(),
                });
            }
            if !(0.0..=1.0).contains(perturbation) {
                return Err(GaError::BadRate {
                    name: "perturbation",
                    value: *perturbation,
                });
            }
        }
        Ok(())
    }
}

/// Outcome of a GA run.
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best partition discovered.
    pub best_partition: Partition,
    /// Its fitness.
    pub best_fitness: f64,
    /// Its reported cut (total cut for Fitness 1, worst cut for Fitness 2
    /// — the number the paper's tables print).
    pub best_cut: u64,
    /// Full metrics of the best partition.
    pub best_metrics: PartitionMetrics,
    /// Per-generation convergence record.
    pub history: ConvergenceHistory,
    /// Generations executed.
    pub generations_run: usize,
}

/// The single-population generational GA.
#[derive(Debug)]
pub struct GaEngine<'g> {
    graph: &'g CsrGraph,
    config: GaConfig,
    evaluator: FitnessEvaluator<'g>,
    rng: StdRng,
    population: Population,
    /// Best individual ever seen (elitism is per-generation; this is
    /// global). Reassigned only through [`GaEngine::set_best`].
    best_ever: Individual,
    /// `best_ever`'s reported cut.
    best_cut: u64,
    /// Whether the elite polish already ran on `best_ever` and found
    /// nothing better. The polish is a pure function of its input genes,
    /// so until `best_ever` is reassigned it would find nothing again.
    best_polished: bool,
    /// The KNUX/DKNUX reference solution `I`.
    reference: Vec<u32>,
    history: ConvergenceHistory,
    /// Climb buffers for the elite polish and `FinalBest`.
    scratch: EvalScratch,
    generations_run: usize,
}

impl<'g> GaEngine<'g> {
    /// Builds the engine: validates the configuration, generates and
    /// evaluates the initial population, and fixes the initial KNUX
    /// reference.
    pub fn new(graph: &'g CsrGraph, config: GaConfig) -> Result<Self, GaError> {
        config.validate(graph.num_nodes())?;
        let evaluator = FitnessEvaluator::new(graph, config.num_parts, config.fitness);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let chromosomes = config.init.generate(
            graph.num_nodes(),
            config.num_parts,
            config.population_size,
            &mut rng,
        )?;
        let population = Population::evaluate(chromosomes, &evaluator);
        let best_ever = population.best().clone();
        let reference = best_ever.chromosome.genes().to_vec();
        // Grown by push: the generation budget is a bound, not a size to
        // reserve up front.
        let mut history = ConvergenceHistory::default();
        let best_cut = evaluator.reported_cut(best_ever.chromosome.genes());
        history.push(best_ever.fitness, population.mean_fitness(), best_cut);
        Ok(GaEngine {
            graph,
            config,
            evaluator,
            rng,
            population,
            best_ever,
            best_cut,
            best_polished: false,
            reference,
            history,
            scratch: EvalScratch::default(),
            generations_run: 0,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Best individual found so far.
    pub fn best(&self) -> &Individual {
        &self.best_ever
    }

    /// Makes `ind` the best individual ever seen: caches its reported cut,
    /// marks it unpolished and, under DKNUX, re-targets the reference.
    fn set_best(&mut self, ind: Individual) {
        let genes = ind.chromosome.genes();
        self.best_cut = self.evaluator.reported_cut(genes);
        self.best_polished = false;
        if self.config.crossover.is_dynamic() {
            self.reference.clear();
            self.reference.extend_from_slice(genes);
        }
        self.best_ever = ind;
    }

    /// Convergence history so far (index 0 = initial population).
    pub fn history(&self) -> &ConvergenceHistory {
        &self.history
    }

    /// Copies of the `k` fittest individuals (for DPGA emigration).
    pub fn emigrants(&self, k: usize) -> Vec<Individual> {
        self.population
            .top_k(k)
            .into_iter()
            .map(|i| self.population.individuals[i].clone())
            .collect()
    }

    /// Receives migrants, replacing the worst local individuals, and
    /// updates the best-ever / DKNUX reference if a migrant is better.
    pub fn immigrate(&mut self, incoming: Vec<Individual>) {
        for ind in &incoming {
            if ind.fitness > self.best_ever.fitness {
                self.set_best(ind.clone());
            }
        }
        self.population.replace_worst(incoming);
    }

    /// Runs one generation. Returns the best fitness after the step.
    ///
    /// The generation is split into two phases. **Breeding** (selection,
    /// crossover, mutation) is sequential: it owns the RNG, so its stream
    /// of draws is fixed by the seed alone. **Evaluation** (offspring hill
    /// climbing + fitness) is RNG-free and embarrassingly parallel: it
    /// fans across the installed rayon pool and is reduced in index
    /// order, so every pool size (a 1-thread pool runs inline) gives a
    /// bit-identical run.
    pub fn step(&mut self) -> f64 {
        let pop_size = self.config.population_size;
        let mut next: Vec<Individual> = Vec::with_capacity(pop_size);

        // Elites survive unchanged.
        for idx in self.population.top_k(self.config.elitism) {
            next.push(self.population.individuals[idx].clone());
        }

        // Phase 1 — breed offspring genes (sequential; consumes the RNG).
        let wanted = pop_size - next.len();
        let fitness_values = self.population.fitness_values();
        let mut offspring: Vec<Vec<u32>> = Vec::with_capacity(wanted + 1);
        while offspring.len() < wanted {
            let i = binary_tournament(&fitness_values, &mut self.rng);
            let j = binary_tournament(&fitness_values, &mut self.rng);
            let pa = self.population.individuals[i].chromosome.genes();
            let pb = self.population.individuals[j].chromosome.genes();

            let (mut c1, mut c2) = if self.rng.gen::<f64>() < CROSSOVER_RATE {
                let ctx = CrossoverCtx {
                    graph: self.graph,
                    reference: Some(&self.reference),
                    parent_fitness: Some((fitness_values[i], fitness_values[j])),
                };
                self.config.crossover.apply(pa, pb, &ctx, &mut self.rng)
            } else {
                (pa.to_vec(), pb.to_vec())
            };

            for child in [&mut c1, &mut c2] {
                mutate(child, MUTATION_RATE, self.config.num_parts, &mut self.rng);
                if self.config.boundary_mutation_rate > 0.0 {
                    crate::ops::mutation::boundary_mutate(
                        child,
                        self.graph,
                        self.config.boundary_mutation_rate,
                        &mut self.rng,
                    );
                }
            }
            offspring.push(c1);
            offspring.push(c2);
        }
        // An odd quota breeds one spare child; drop it (its RNG draws
        // already happened, so the stream does not depend on this).
        offspring.truncate(wanted);

        // Phase 2 — hill-climb + evaluate (RNG-free; fanned across the
        // pool, reduced in index order). A climbed offspring's fitness
        // comes from the climb's final loads and cuts, bit for bit what a
        // fresh tally would give.
        let evaluator = &self.evaluator;
        let climb = self.config.hill_climb;
        let eval_one = |scratch: &mut EvalScratch, mut genes: Vec<u32>| {
            let fitness = match climb {
                HillClimbMode::Offspring { passes } => {
                    hill_climb_in(evaluator, &mut genes, passes, scratch).fitness
                }
                _ => evaluator.evaluate_with(&genes, scratch),
            };
            Individual {
                chromosome: Chromosome::new(genes),
                fitness,
            }
        };
        // One scratch per worker chunk, not per offspring; min_len keeps
        // tiny populations inline (thread spawn would cost more than the
        // evaluations).
        next.extend(
            offspring
                .into_par_iter()
                .with_min_len(PAR_MIN_OFFSPRING)
                .map_init(EvalScratch::default, eval_one)
                .collect::<Vec<_>>(),
        );

        self.population = Population { individuals: next };
        self.generations_run += 1;

        // Track global best; DKNUX continually re-targets it.
        let best_idx = self.population.best_index();
        if self.population.individuals[best_idx].fitness > self.best_ever.fitness {
            self.set_best(self.population.individuals[best_idx].clone());
        }

        // Elite polish: one swap-climb of the global best per generation,
        // skipped while it is the same best that a polish left unchanged.
        if self.config.elite_swap_passes > 0 && !self.best_polished {
            let mut genes = self.best_ever.chromosome.genes().to_vec();
            let passes = self.config.elite_swap_passes;
            let fitness =
                swap_climb_in(&self.evaluator, &mut genes, passes, &mut self.scratch).fitness;
            if fitness > self.best_ever.fitness {
                self.set_best(Individual {
                    chromosome: Chromosome::new(genes),
                    fitness,
                });
                // Feed the improvement back into the gene pool.
                self.population.replace_worst(vec![self.best_ever.clone()]);
            } else {
                self.best_polished = true;
            }
        }
        self.history.push(
            self.best_ever.fitness,
            self.population.mean_fitness(),
            self.best_cut,
        );
        self.best_ever.fitness
    }

    /// Runs the configured number of generations and returns the result.
    /// Applies the `FinalBest` hill climb if configured.
    pub fn run(mut self) -> GaResult {
        for _ in 0..self.config.generations {
            self.step();
        }
        self.finish()
    }

    /// Finalizes without running further generations (used by DPGA, which
    /// drives [`GaEngine::step`] itself).
    pub fn finish(mut self) -> GaResult {
        if let HillClimbMode::FinalBest { passes } = self.config.hill_climb {
            let mut genes = self.best_ever.chromosome.genes().to_vec();
            let fitness =
                hill_climb_in(&self.evaluator, &mut genes, passes, &mut self.scratch).fitness;
            if fitness > self.best_ever.fitness {
                self.set_best(Individual {
                    chromosome: Chromosome::new(genes),
                    fitness,
                });
            }
        }
        let best_partition = self
            .best_ever
            .chromosome
            .clone()
            .into_partition(self.config.num_parts);
        let best_metrics = PartitionMetrics::compute(self.graph, &best_partition);
        GaResult {
            best_partition,
            best_fitness: self.best_ever.fitness,
            best_cut: self.best_cut,
            best_metrics,
            history: self.history,
            generations_run: self.generations_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gapart_graph::generators::paper_graph;
    use gapart_graph::partition::cut_size;

    fn small_config(num_parts: u32) -> GaConfig {
        GaConfig::paper_defaults(num_parts)
            .with_population_size(40)
            .with_generations(30)
            .with_seed(7)
    }

    #[test]
    fn run_improves_over_initial_population() {
        let g = paper_graph(78);
        let r = GaEngine::new(&g, small_config(4)).unwrap().run();
        assert!(r.history.best_fitness.last().unwrap() >= &r.history.best_fitness[0]);
        assert_eq!(r.generations_run, 30);
        assert_eq!(r.history.len(), 31);
    }

    #[test]
    fn best_fitness_is_monotone_nondecreasing() {
        let g = paper_graph(98);
        let r = GaEngine::new(&g, small_config(4)).unwrap().run();
        for w in r.history.best_fitness.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "best-ever fitness regressed");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = paper_graph(88);
        let a = GaEngine::new(&g, small_config(4)).unwrap().run();
        let b = GaEngine::new(&g, small_config(4)).unwrap().run();
        assert_eq!(a.best_partition, b.best_partition);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn parallel_and_sequential_evaluation_agree_exactly() {
        // The rayon fan-out only touches the RNG-free phase and reduces
        // in index order, so it must be bit-identical — including with
        // offspring hill climbing (the expensive path it exists for).
        // Small budget: the trait-level contract test covers the plain
        // configuration at full length; this one only needs the memetic
        // path. Population 40 still exceeds 2×PAR_MIN_OFFSPRING, so the
        // 4-thread pool genuinely fans out.
        let g = paper_graph(98);
        let config = small_config(4)
            .with_generations(8)
            .with_hill_climb(HillClimbMode::Offspring { passes: 1 });
        // A 4-thread pool forces real fan-out even on single-core hosts;
        // a 1-thread pool runs every parallel call inline.
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| GaEngine::new(&g, config.clone()).unwrap().run())
        };
        let par = run(4);
        let seq = run(1);
        assert_eq!(par.best_partition, seq.best_partition);
        assert_eq!(par.history, seq.history);
        assert_eq!(par.best_fitness, seq.best_fitness);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let g = paper_graph(88);
        let a = GaEngine::new(&g, small_config(4)).unwrap().run();
        let b = GaEngine::new(&g, small_config(4).with_seed(8))
            .unwrap()
            .run();
        assert_ne!(a.history.mean_fitness, b.history.mean_fitness);
    }

    #[test]
    fn result_metrics_match_partition() {
        let g = paper_graph(78);
        let r = GaEngine::new(&g, small_config(2)).unwrap().run();
        assert_eq!(r.best_metrics.total_cut, cut_size(&g, &r.best_partition));
        assert_eq!(r.best_cut, r.best_metrics.total_cut);
    }

    #[test]
    fn worst_cut_fitness_reports_max_cut() {
        let g = paper_graph(78);
        let cfg = small_config(4).with_fitness(FitnessKind::WorstCut);
        let r = GaEngine::new(&g, cfg).unwrap().run();
        assert_eq!(r.best_cut, r.best_metrics.max_cut);
    }

    #[test]
    fn seeded_run_never_loses_the_seed() {
        // With elitism, a run seeded from a good partition must end at
        // least as fit as the seed.
        let g = paper_graph(144);
        let seed = gapart_ibp::ibp_partition(&g, 4).unwrap();
        let e = FitnessEvaluator::new(&g, 4, FitnessKind::TotalCut);
        let seed_fit = e.evaluate(seed.labels());
        let cfg = small_config(4).seeded_from(&seed);
        let r = GaEngine::new(&g, cfg).unwrap().run();
        assert!(
            r.best_fitness >= seed_fit,
            "GA lost the seed: {} < {seed_fit}",
            r.best_fitness
        );
    }

    #[test]
    fn generation_budget_is_not_reserved_up_front() {
        // The history grows by push, so a budget no run could finish
        // builds an engine that steps like any other.
        let g = paper_graph(78);
        let mut e = GaEngine::new(&g, small_config(2).with_generations(usize::MAX / 4)).unwrap();
        e.step();
        assert_eq!(e.history().len(), 2);
    }

    #[test]
    fn unallocatable_population_is_an_error() {
        let g = paper_graph(78);
        assert!(matches!(
            GaEngine::new(&g, small_config(2).with_population_size(usize::MAX)).unwrap_err(),
            GaError::BadPopulation { .. }
        ));
    }

    #[test]
    fn hill_climb_modes_run() {
        let g = paper_graph(78);
        let base = small_config(4).with_generations(5);
        let off = GaEngine::new(&g, base.clone()).unwrap().run();
        let memetic = GaEngine::new(
            &g,
            base.clone()
                .with_hill_climb(HillClimbMode::Offspring { passes: 2 }),
        )
        .unwrap()
        .run();
        let final_best = GaEngine::new(
            &g,
            base.with_hill_climb(HillClimbMode::FinalBest { passes: 10 }),
        )
        .unwrap()
        .run();
        // Memetic search should find a solution at least as good as plain
        // GA in this tiny budget (it embeds local search).
        assert!(memetic.best_fitness >= off.best_fitness);
        assert!(final_best.best_fitness >= off.best_fitness - 1e-12);
    }

    #[test]
    fn config_validation_catches_errors() {
        let g = paper_graph(78);
        let bad_parts = GaConfig::paper_defaults(0);
        assert!(matches!(
            GaEngine::new(&g, bad_parts).unwrap_err(),
            GaError::BadPartCount { .. }
        ));
        let mut bad_rate = small_config(2);
        bad_rate.boundary_mutation_rate = 1.5;
        assert!(matches!(
            GaEngine::new(&g, bad_rate).unwrap_err(),
            GaError::BadRate { .. }
        ));
        let mut bad_pop = small_config(2);
        bad_pop.population_size = 1;
        assert!(matches!(
            GaEngine::new(&g, bad_pop).unwrap_err(),
            GaError::BadPopulation { .. }
        ));
        let mut bad_elit = small_config(2);
        bad_elit.elitism = 40;
        assert!(matches!(
            GaEngine::new(&g, bad_elit).unwrap_err(),
            GaError::BadPopulation { .. }
        ));
        let mut bad_seed = small_config(2);
        bad_seed.init = InitStrategy::Seeded {
            partition: vec![0; 3],
            perturbation: 0.1,
        };
        assert!(matches!(
            GaEngine::new(&g, bad_seed).unwrap_err(),
            GaError::BadSeed { .. }
        ));
    }

    #[test]
    fn dknux_beats_two_point_on_equal_budget() {
        // The paper's headline claim, in miniature: same budget, DKNUX
        // reaches a better cut than 2-point crossover.
        let g = paper_graph(144);
        let base = GaConfig::paper_defaults(4)
            .with_population_size(60)
            .with_generations(60)
            .with_seed(11);
        let dknux = GaEngine::new(&g, base.clone()).unwrap().run();
        let two_point = GaEngine::new(&g, base.with_crossover(CrossoverOp::TwoPoint))
            .unwrap()
            .run();
        assert!(
            dknux.best_fitness > two_point.best_fitness,
            "DKNUX {} vs 2-point {}",
            dknux.best_fitness,
            two_point.best_fitness
        );
    }

    #[test]
    fn emigrants_and_immigration() {
        let g = paper_graph(78);
        let mut e1 = GaEngine::new(&g, small_config(4)).unwrap();
        let mut e2 = GaEngine::new(&g, small_config(4).with_seed(99)).unwrap();
        e1.step();
        e2.step();
        let migrants = e1.emigrants(3);
        assert_eq!(migrants.len(), 3);
        assert!(migrants[0].fitness >= migrants[1].fitness);
        let before_best = e2.best().fitness;
        e2.immigrate(migrants.clone());
        assert!(e2.best().fitness >= before_best.max(migrants[0].fitness));
    }
}
