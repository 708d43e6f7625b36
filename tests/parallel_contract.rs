//! Thread-count determinism contract for the parallel multilevel
//! pipeline: coarsening, full and local FM refinement, and an
//! end-to-end `mlga` solve must be bit-identical under forced
//! 1/2/4/8-thread pools (same pattern as `tests/stream_contract.rs`).
//! This is the invariant that makes `--threads` a pure wall-time knob:
//! scheduling may never leak into results.

use gapart::graph::coarsen::{coarsen_hem, coarsen_to, Coarsening};
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

fn coord_bits(level: &Coarsening) -> Option<Vec<(u64, u64)>> {
    level
        .coarse
        .coords()
        .map(|c| c.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect())
}

fn assert_same_levels(a: &[Coarsening], b: &[Coarsening], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: level count diverged");
    for (i, (la, lb)) in a.iter().zip(b).enumerate() {
        assert_eq!(la.map, lb.map, "{what}: map diverged at level {i}");
        assert_eq!(la.coarse, lb.coarse, "{what}: graph diverged at level {i}");
        assert_eq!(
            coord_bits(la),
            coord_bits(lb),
            "{what}: coordinate bits at level {i}"
        );
    }
}

#[test]
fn coarsening_is_bit_identical_across_pools() {
    // The 700-node mesh runs every parallel phase inline. The 20k mesh
    // splits them at 2/4/8 threads: its first handshake scans 20k
    // vertices in 2,048-vertex chunks and its first contraction builds
    // ~10k coarse vertices in 4,096-vertex chunks, so worker seams fall
    // inside both.
    for (g, target) in [(jittered_mesh(700, 5), 32), (jittered_mesh(20_000, 7), 64)] {
        let one_round = with_pool(1, || coarsen_hem(&g, SEED));
        let stack = with_pool(1, || coarsen_to(&g, target, SEED));
        assert!(
            coord_bits(&one_round).is_some(),
            "coordinates are compared too"
        );
        for threads in POOLS {
            let r = with_pool(threads, || coarsen_hem(&g, SEED));
            assert_same_levels(
                &[r],
                std::slice::from_ref(&one_round),
                &format!("{threads}-thread round"),
            );
            let s = with_pool(threads, || coarsen_to(&g, target, SEED));
            assert_same_levels(&s, &stack, &format!("{threads}-thread stack"));
        }
        if g.num_nodes() > 10_000 {
            assert!(
                stack[0].coarse.num_nodes() > 2 * 4096,
                "one contraction chunk only"
            );
        }
    }
}

fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
    let mut rng = StdRng::seed_from_u64(seed);
    Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
}

#[test]
fn boundary_fm_is_bit_identical_across_pools() {
    // The FM engine is sequential by construction, but the contract is
    // pinned here anyway: its callers (V-cycle, streaming) run inside
    // pools, and a future parallelization must not leak scheduling.
    use gapart::graph::fm::FmRefiner;
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
                FmRefiner::new().refine(&g, &mut full, &opts, SEED),
                FmRefiner::new().refine_local(&g, &mut local, &opts, SEED, &region),
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
