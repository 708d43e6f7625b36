//! Parent selection.
//!
//! The paper does not pin its selection mechanism down; the engine uses
//! binary tournament, which is invariant under fitness translation and so
//! handles the negative fitness values our cost-based objectives produce.

use rand::Rng;

/// Binary tournament: draws an incumbent, then a challenger, uniformly
/// (two `gen_range` calls, in that order) and returns the index of the
/// fitter one, keeping the incumbent on a tie.
///
/// # Panics
///
/// Panics on an empty fitness slice.
pub fn binary_tournament<R: Rng + ?Sized>(fitness: &[f64], rng: &mut R) -> usize {
    assert!(!fitness.is_empty(), "cannot select from empty population");
    debug_assert!(fitness.iter().all(|f| f.is_finite()));
    let incumbent = rng.gen_range(0..fitness.len());
    let challenger = rng.gen_range(0..fitness.len());
    // Both indices are in range, so this compares the two fitnesses.
    if fitness.get(challenger) > fitness.get(incumbent) {
        challenger
    } else {
        incumbent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies(fitness: &[f64], trials: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0usize; fitness.len()];
        for _ in 0..trials {
            counts[binary_tournament(fitness, &mut rng)] += 1;
        }
        counts
    }

    #[test]
    fn tournament_prefers_fitter() {
        let fitness = vec![-10.0, -1.0, -5.0];
        let counts = frequencies(&fitness, 30_000);
        assert!(counts[1] > counts[2], "{counts:?}");
        assert!(counts[2] > counts[0], "{counts:?}");
        // Binary tournament: best selected with prob 1 - (2/3)^2·... ≈
        // expected counts ratio 5:3:1 among 3 individuals.
        let total: usize = counts.iter().sum();
        assert_eq!(total, 30_000);
    }

    #[test]
    fn draws_incumbent_then_challenger() {
        // The engine's RNG stream depends on this order: the first draw
        // is kept unless the second is strictly fitter.
        let fitness = [-3.0, -1.0, -2.0, -1.0];
        let mut rng = StdRng::seed_from_u64(9);
        let mut mirror = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let a = mirror.gen_range(0..fitness.len());
            let b = mirror.gen_range(0..fitness.len());
            let want = if fitness[b] > fitness[a] { b } else { a };
            assert_eq!(binary_tournament(&fitness, &mut rng), want);
        }
    }

    #[test]
    fn single_individual_always_selected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(binary_tournament(&[-1.0], &mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "empty population")]
    fn empty_population_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        binary_tournament(&[], &mut rng);
    }
}
