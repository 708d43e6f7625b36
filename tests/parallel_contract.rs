//! Thread-count determinism contract for the parallel multilevel
//! pipeline: coarsening, full and local parallel-FM refinement, and an
//! end-to-end `mlga` solve must be bit-identical under forced
//! 1/2/4/8-thread pools (same pattern as `tests/stream_contract.rs`).
//! This is the invariant that makes `--threads` a pure wall-time knob:
//! scheduling may never leak into results.

use gapart::graph::coarsen::{coarsen_hem, coarsen_to, Coarsening};
use gapart::graph::fm::ParallelFm;
use gapart::graph::generators::{grid2d, jittered_mesh, GridKind};
use gapart::graph::partition::Partition;
use gapart::graph::refine::{RefineOptions, RefineStats};
use gapart::partitioners;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POOLS: [usize; 4] = [1, 2, 4, 8];
const SEED: u64 = 0x9a7a_11e1; // "parallel"

fn with_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("shim pools are infallible")
        .install(op)
}

fn assert_same_levels(a: &[Coarsening], b: &[Coarsening], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: level count diverged");
    for (i, (la, lb)) in a.iter().zip(b).enumerate() {
        assert_eq!(la.map, lb.map, "{what}: map diverged at level {i}");
        assert_eq!(la.coarse, lb.coarse, "{what}: graph diverged at level {i}");
    }
}

#[test]
fn coarsening_is_bit_identical_across_pools() {
    let g = jittered_mesh(700, 5);
    let one_round = with_pool(1, || coarsen_hem(&g, SEED));
    let stack = with_pool(1, || coarsen_to(&g, 32, SEED));
    for threads in POOLS {
        let r = with_pool(threads, || coarsen_hem(&g, SEED));
        assert_eq!(r.map, one_round.map, "{threads}-thread round diverged");
        assert_eq!(r.coarse, one_round.coarse);
        let s = with_pool(threads, || coarsen_to(&g, 32, SEED));
        assert_same_levels(&s, &stack, &format!("{threads}-thread stack"));
    }
}

fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
}

#[test]
fn full_refinement_is_bit_identical_across_pools() {
    let g = grid2d(30, 30, GridKind::Triangulated);
    let opts = RefineOptions {
        balance_slack: 0.1,
        max_passes: 6,
    };
    let base = random_partition(900, 6, SEED);
    let mut reference: Option<(Partition, RefineStats)> = None;
    for threads in POOLS {
        let mut p = base.clone();
        let stats = with_pool(threads, || {
            ParallelFm::new().refine(&g, &mut p, &opts, SEED)
        });
        match &reference {
            None => reference = Some((p, stats)),
            Some((rp, rs)) => {
                assert_eq!(&p, rp, "{threads}-thread refine diverged");
                assert_eq!(&stats, rs, "{threads}-thread stats diverged");
            }
        }
    }
}

#[test]
fn local_refinement_is_bit_identical_across_pools() {
    let g = jittered_mesh(500, 9);
    let opts = RefineOptions::default();
    let base = random_partition(500, 4, SEED ^ 1);
    // A scattered region, deliberately unsorted and duplicated.
    let region: Vec<u32> = (0..500u32)
        .rev()
        .filter(|v| v % 3 != 1)
        .chain(40..80u32)
        .collect();
    let mut reference: Option<(Partition, RefineStats)> = None;
    for threads in POOLS {
        let mut p = base.clone();
        let stats = with_pool(threads, || {
            ParallelFm::new().refine_local(&g, &mut p, &opts, SEED, &region)
        });
        match &reference {
            None => reference = Some((p, stats)),
            Some((rp, rs)) => {
                assert_eq!(&p, rp, "{threads}-thread local refine diverged");
                assert_eq!(&stats, rs);
            }
        }
    }
}

#[test]
fn boundary_fm_is_bit_identical_across_pools() {
    // The FM engine is sequential by construction, but the contract is
    // pinned here anyway: its callers (V-cycle, streaming) run inside
    // pools, and a future parallelization must not leak scheduling.
    use gapart::graph::fm::{refine_fm, refine_fm_local};
    let g = grid2d(30, 30, GridKind::Triangulated);
    let opts = RefineOptions {
        balance_slack: 0.1,
        max_passes: 6,
    };
    let base = random_partition(900, 6, SEED ^ 2);
    let region: Vec<u32> = (100..600u32).collect();
    let mut reference: Option<(Partition, RefineStats, Partition, RefineStats)> = None;
    for threads in POOLS {
        let mut full = base.clone();
        let mut local = base.clone();
        let (sf, sl) = with_pool(threads, || {
            (
                refine_fm(&g, &mut full, &opts, SEED),
                refine_fm_local(&g, &mut local, &opts, SEED, &region),
            )
        });
        match &reference {
            None => reference = Some((full, sf, local, sl)),
            Some((rf, rsf, rl, rsl)) => {
                assert_eq!(&full, rf, "{threads}-thread FM refine diverged");
                assert_eq!(&sf, rsf);
                assert_eq!(&local, rl, "{threads}-thread local FM diverged");
                assert_eq!(&sl, rsl);
            }
        }
    }
}

#[test]
fn mlga_solve_is_bit_identical_across_pools() {
    // End to end: seeded coarsening stack, GA on the coarsest graph
    // (rayon-parallel fitness evaluation), per-level projection + k-way
    // refinement — one label vector, whatever the pool size.
    let g = jittered_mesh(400, 3);
    let mut reference: Option<Vec<u32>> = None;
    for threads in POOLS {
        let labels = with_pool(threads, || {
            let mlga = partitioners::by_name("mlga").expect("mlga is registered");
            mlga.partition(&g, 4, SEED)
                .expect("mesh partitioning cannot fail")
                .partition
                .labels()
                .to_vec()
        });
        match &reference {
            None => reference = Some(labels),
            Some(r) => assert_eq!(&labels, r, "{threads}-thread mlga diverged"),
        }
    }
}
