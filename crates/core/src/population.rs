//! Populations and the initialization strategies of §3.5.

use crate::error::GaError;
use crate::fitness::{EvalScratch, FitnessEvaluator};
use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;

/// A candidate solution with its cached fitness. The paper's
/// representation (§3.1): an individual is a vector whose `i`-th element
/// names the part that node `i` is allocated to.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// The candidate solution: `genes[i]` is the part label of node `i`.
    pub genes: Vec<u32>,
    /// Cached fitness (higher is better).
    pub fitness: f64,
}

/// How the initial population is generated (§3.5: random, or "seeded with
/// a pre-estimated heuristic solution such as that obtained through an
/// Index Based Partitioning scheme or the results of recursive spectral
/// bisection"). A DPGA mixes the two across islands through
/// [`DpgaConfig::init_overrides`](crate::dpga::DpgaConfig::init_overrides).
#[derive(Debug, Clone, PartialEq)]
pub enum InitStrategy {
    /// Each individual is a random permutation cut into equal blocks —
    /// perfectly balanced but locality-blind.
    BalancedRandom,
    /// Seed with a heuristic partition. The first individual is the exact
    /// seed; the rest perturb it by reassigning each gene with probability
    /// `perturbation` (keeps the population near the seed but diverse
    /// enough for crossover to work with).
    Seeded {
        /// The heuristic solution (one label per node).
        partition: Vec<u32>,
        /// Per-gene perturbation probability for the non-first
        /// individuals.
        perturbation: f64,
    },
}

impl InitStrategy {
    /// Generates `pop_size` gene vectors of length `n` over `num_parts`
    /// parts.
    ///
    /// # Errors
    ///
    /// [`GaError::BadPopulation`] if no population of `pop_size` fits in
    /// memory.
    ///
    /// # Panics
    ///
    /// Panics if a `Seeded` partition has the wrong length or out-of-range
    /// labels (configuration validation happens earlier, in the engine).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n: usize,
        num_parts: u32,
        pop_size: usize,
        rng: &mut R,
    ) -> Result<Vec<Vec<u32>>, GaError> {
        let mut out = Vec::new();
        out.try_reserve_exact(pop_size)
            .map_err(|_| GaError::BadPopulation {
                message: format!("cannot allocate a population of {pop_size}"),
            })?;
        match self {
            InitStrategy::BalancedRandom => out.extend((0..pop_size).map(|_| {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.shuffle(rng);
                let mut genes = vec![0u32; n];
                let base = n / num_parts as usize;
                let extra = n % num_parts as usize;
                let mut pos = 0usize;
                for part in 0..num_parts {
                    let take = base + usize::from((part as usize) < extra);
                    for &v in &order[pos..pos + take] {
                        genes[v as usize] = part;
                    }
                    pos += take;
                }
                genes
            })),
            InitStrategy::Seeded {
                partition,
                perturbation,
            } => {
                assert_eq!(partition.len(), n, "seed partition length mismatch");
                assert!(
                    partition.iter().all(|&p| p < num_parts),
                    "seed partition label out of range"
                );
                out.extend((0..pop_size).map(|i| {
                    let mut genes = partition.clone();
                    if i > 0 {
                        crate::ops::mutation::mutate(&mut genes, *perturbation, num_parts, rng);
                    }
                    genes
                }));
            }
        }
        Ok(out)
    }
}

/// A population of evaluated individuals.
#[derive(Debug, Clone)]
pub struct Population {
    /// The individuals, in no particular order.
    pub individuals: Vec<Individual>,
}

impl Population {
    /// Evaluates `genes` across the installed rayon pool and wraps
    /// them into a population. Fitness is a pure function of the genes
    /// and results are reduced in index order, so every pool size builds
    /// the identical population.
    pub fn evaluate(genes: Vec<Vec<u32>>, evaluator: &FitnessEvaluator<'_>) -> Self {
        let individuals = genes
            .into_par_iter()
            .with_min_len(crate::engine::PAR_MIN_OFFSPRING)
            .map_init(EvalScratch::default, |scratch, genes| {
                let fitness = evaluator.evaluate_with(&genes, scratch);
                Individual { genes, fitness }
            })
            .collect();
        Population { individuals }
    }

    /// Number of individuals.
    pub fn len(&self) -> usize {
        self.individuals.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.individuals.is_empty()
    }

    /// Index of the fittest individual (first among ties).
    ///
    /// # Panics
    ///
    /// Panics on an empty population.
    pub fn best_index(&self) -> usize {
        assert!(!self.is_empty(), "empty population has no best");
        let mut best = 0usize;
        for (i, ind) in self.individuals.iter().enumerate().skip(1) {
            if ind.fitness > self.individuals[best].fitness {
                best = i;
            }
        }
        best
    }

    /// The fittest individual.
    pub fn best(&self) -> &Individual {
        &self.individuals[self.best_index()]
    }

    /// Index of the least-fit individual (first among ties).
    pub fn worst_index(&self) -> usize {
        assert!(!self.is_empty(), "empty population has no worst");
        let mut worst = 0usize;
        for (i, ind) in self.individuals.iter().enumerate().skip(1) {
            if ind.fitness < self.individuals[worst].fitness {
                worst = i;
            }
        }
        worst
    }

    /// Mean fitness.
    pub fn mean_fitness(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.individuals.iter().map(|i| i.fitness).sum::<f64>() / self.len() as f64
    }

    /// Fitness values in population order (for parent selection).
    pub fn fitness_values(&self) -> Vec<f64> {
        self.individuals.iter().map(|i| i.fitness).collect()
    }

    /// Indices of the `k` fittest individuals, fittest first.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            // total_cmp: deterministic total order, no NaN panic.
            self.individuals[b]
                .fitness
                .total_cmp(&self.individuals[a].fitness)
        });
        order.truncate(k);
        order
    }

    /// Replaces the `k` worst individuals with `incoming` (used by DPGA
    /// migration: "copies of its best individuals" arrive from
    /// neighbours). Extra incoming individuals beyond the population size
    /// are ignored.
    pub fn replace_worst(&mut self, incoming: Vec<Individual>) {
        let k = incoming.len().min(self.len());
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by(|&a, &b| {
            // total_cmp: deterministic total order, no NaN panic.
            self.individuals[a]
                .fitness
                .total_cmp(&self.individuals[b].fitness)
        });
        for (slot, ind) in order.into_iter().zip(incoming.into_iter().take(k)) {
            self.individuals[slot] = ind;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::FitnessKind;
    use gapart_graph::generators::paper_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn balanced_random_is_balanced() {
        let mut rng = StdRng::seed_from_u64(2);
        let chroms = InitStrategy::BalancedRandom
            .generate(103, 4, 5, &mut rng)
            .unwrap();
        for c in &chroms {
            let mut counts = [0usize; 4];
            for &g in c {
                counts[g as usize] += 1;
            }
            let min = counts.iter().min().unwrap();
            let max = counts.iter().max().unwrap();
            assert!(max - min <= 1, "{counts:?}");
        }
    }

    #[test]
    fn seeded_keeps_exact_first_individual() {
        let seed: Vec<u32> = (0..50).map(|i| i % 3).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let chroms = InitStrategy::Seeded {
            partition: seed.clone(),
            perturbation: 0.2,
        }
        .generate(50, 3, 10, &mut rng)
        .unwrap();
        assert_eq!(chroms[0], seed);
        // Later individuals perturbed but close.
        let distant = chroms[1..].iter().filter(|c| **c == seed).count();
        assert!(distant < 9, "perturbation did nothing");
        for c in &chroms[1..] {
            let hamming = c.iter().zip(&seed).filter(|(a, b)| a != b).count();
            assert!(hamming <= 25, "perturbed too far: {hamming}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn seeded_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(1);
        InitStrategy::Seeded {
            partition: vec![0; 3],
            perturbation: 0.1,
        }
        .generate(5, 2, 2, &mut rng)
        .unwrap();
    }

    #[test]
    fn population_best_worst_mean() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let mut rng = StdRng::seed_from_u64(4);
        let chroms = InitStrategy::BalancedRandom
            .generate(78, 2, 20, &mut rng)
            .unwrap();
        let pop = Population::evaluate(chroms, &e);
        let best = pop.best().fitness;
        let worst = pop.individuals[pop.worst_index()].fitness;
        let mean = pop.mean_fitness();
        assert!(best >= mean && mean >= worst);
        assert_eq!(pop.fitness_values().len(), 20);
    }

    #[test]
    fn top_k_is_sorted_descending() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let mut rng = StdRng::seed_from_u64(5);
        let chroms = InitStrategy::BalancedRandom
            .generate(78, 2, 30, &mut rng)
            .unwrap();
        let pop = Population::evaluate(chroms, &e);
        let top = pop.top_k(5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(pop.individuals[w[0]].fitness >= pop.individuals[w[1]].fitness);
        }
        assert_eq!(top[0], pop.best_index());
    }

    #[test]
    fn replace_worst_upgrades_population() {
        let g = paper_graph(78);
        let e = FitnessEvaluator::new(&g, 2, FitnessKind::TotalCut);
        let mut rng = StdRng::seed_from_u64(6);
        let chroms = InitStrategy::BalancedRandom
            .generate(78, 2, 10, &mut rng)
            .unwrap();
        let mut pop = Population::evaluate(chroms, &e);
        let old_worst = pop.individuals[pop.worst_index()].fitness;
        // Migrate in two copies of the best.
        let best = pop.best().clone();
        pop.replace_worst(vec![best.clone(), best]);
        let new_worst = pop.individuals[pop.worst_index()].fitness;
        assert!(new_worst >= old_worst);
        assert_eq!(pop.len(), 10);
    }
}
