//! End-to-end pins of GA engine paths that no BENCH anchor covers: the
//! CLI's flat `dpga` (DKNUX, offspring hill climbing, boundary mutation)
//! under both fitness kinds, `GaConfig::coarse_defaults` (the `mlga`
//! inner solve) on a graph with non-unit node and edge weights, the same
//! with multi-pass offspring climbs and a two-pass elite polish, the
//! seeded heterogeneous islands of the paper's seeded tables under both
//! fitness kinds, and a `FinalBest` run over its whole budget.
//!
//! Each pin is the best labels' hash plus the whole convergence history:
//! the per-generation best cut as a list, and the best/mean fitness as a
//! digest of their f64 bits. A change to the hill climbs, the elite swap
//! polish or the fitness reuse that moves any label, any tie-break or any
//! fitness bit fails here.

use gapart_core::{
    ConvergenceHistory, DpgaConfig, DpgaEngine, FitnessKind, GaConfig, GaEngine, HillClimbMode,
    InitStrategy, Topology,
};
use gapart_graph::generators::{jittered_mesh, paper_graph};
use gapart_graph::partition::hash_labels;
use gapart_graph::{CsrGraph, GraphBuilder};

/// FNV-1a over the bits of every best and mean fitness, in order.
fn fitness_digest(history: &ConvergenceHistory) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in history.best_fitness.iter().chain(&history.mean_fitness) {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

/// The `partition --method dpga` configuration at `--gens 20` and the
/// CLI's default seed and population.
fn cli_dpga(parts: u32, fitness: FitnessKind) -> DpgaConfig {
    let mut base = GaConfig::paper_defaults(parts)
        .with_fitness(fitness)
        .with_population_size(320)
        .with_generations(20)
        .with_hill_climb(HillClimbMode::Offspring { passes: 1 })
        .with_seed(0x5343_3934);
    base.boundary_mutation_rate = 0.05;
    DpgaConfig::paper(parts).with_base(base)
}

/// A 150-node mesh with node weights 1–5 and edge weights 1–4.
fn weighted_mesh() -> CsrGraph {
    let mesh = jittered_mesh(150, 21);
    let edges: Vec<(u32, u32, u32)> = mesh
        .edges()
        .map(|(u, v, _)| (u, v, 1 + (u * 7 + v * 3) % 4))
        .collect();
    let weights = (0..150u32).map(|v| 1 + (v * 13) % 5).collect();
    GraphBuilder::with_nodes(150)
        .weighted_edges(edges)
        .node_weights(weights)
        .build()
        .unwrap()
}

fn assert_pin(
    what: &str,
    labels: &[u32],
    history: &ConvergenceHistory,
    hash: &str,
    cuts: &[u64],
    digest: &str,
) {
    assert_eq!(
        (
            hash_labels(labels).as_str(),
            history.best_cut.as_slice(),
            fitness_digest(history).as_str()
        ),
        (hash, cuts, digest),
        "{what}: labels hash, best-cut history or fitness digest moved"
    );
}

#[test]
fn cli_dpga_total_cut_is_pinned() {
    let g = paper_graph(144);
    let r = DpgaEngine::new(&g, cli_dpga(4, FitnessKind::TotalCut))
        .unwrap()
        .run();
    assert_pin(
        "dpga fitness 1",
        r.best_partition.labels(),
        &r.history,
        "ce3947e0454dc865",
        &[
            267, 76, 61, 61, 61, 61, 60, 56, 56, 56, 54, 48, 47, 47, 45, 45, 45, 45, 45, 45, 45,
        ],
        "3360d9e5ff96da0e",
    );
}

#[test]
fn cli_dpga_worst_cut_is_pinned() {
    let g = paper_graph(144);
    let r = DpgaEngine::new(&g, cli_dpga(4, FitnessKind::WorstCut))
        .unwrap()
        .run();
    assert_pin(
        "dpga fitness 2",
        r.best_partition.labels(),
        &r.history,
        "d6b9be7eea573a55",
        &[
            137, 103, 86, 76, 74, 59, 51, 51, 45, 45, 45, 42, 40, 37, 37, 33, 33, 33, 33, 33, 32,
        ],
        "c90a691520520e73",
    );
}

#[test]
fn coarse_defaults_on_a_weighted_graph_is_pinned() {
    let g = weighted_mesh();
    for (kind, hash, cuts, digest) in [
        (
            FitnessKind::TotalCut,
            "69a5dd9c5a1f7e06",
            &[
                719, 246, 199, 189, 189, 189, 189, 189, 189, 189, 188, 188, 188, 188, 188, 160,
                159, 159, 151, 151, 151, 151, 151, 151, 151, 151, 144, 144, 128, 128, 128, 128,
                128, 121, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119,
                119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119, 119,
            ][..],
            "0263220b2c73d9fd",
        ),
        (
            FitnessKind::WorstCut,
            "1b06de5c0b29d087",
            &[
                391, 304, 304, 246, 230, 217, 217, 217, 217, 217, 217, 217, 173, 173, 173, 173,
                173, 173, 132, 123, 116, 116, 116, 116, 116, 116, 116, 116, 116, 116, 116, 116,
                116, 116, 116, 111, 109, 108, 103, 103, 103, 103, 103, 103, 103, 103, 103, 103,
                103, 103, 103, 103, 103, 103, 103, 103, 103, 103, 103, 103, 103,
            ][..],
            "09156aa3dfeb3da9",
        ),
    ] {
        let config = GaConfig::coarse_defaults(4).with_fitness(kind).with_seed(9);
        let r = GaEngine::new(&g, config).unwrap().run();
        assert_pin(
            &format!("coarse_defaults {kind}"),
            r.best_partition.labels(),
            &r.history,
            hash,
            cuts,
            digest,
        );
    }
}

#[test]
fn multi_pass_climbs_and_polish_on_a_weighted_graph_are_pinned() {
    let g = weighted_mesh();
    for (kind, hash, cuts, digest) in [
        (
            FitnessKind::TotalCut,
            "3c55c58586d70d47",
            &[
                719, 218, 203, 203, 203, 203, 203, 203, 203, 203, 185, 185, 185, 185, 168, 168,
                168, 168, 168, 168, 168, 168, 149, 149, 147, 147, 147, 147, 147, 132, 132, 118,
                118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118,
                118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118, 118,
            ][..],
            "2e68e1b4d4f2c208",
        ),
        (
            FitnessKind::WorstCut,
            "faf5f1c17951d4b7",
            &[
                391, 177, 164, 147, 137, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132,
                132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 132, 126, 126,
                126, 126, 126, 126, 126, 126, 126, 126, 126, 126, 126, 112, 112, 112, 112, 112,
                112, 105, 105, 105, 105, 105, 105, 105, 105, 105, 105, 105, 105,
            ][..],
            "b69e4503521588b5",
        ),
    ] {
        let mut config = GaConfig::coarse_defaults(4)
            .with_fitness(kind)
            .with_seed(9)
            .with_hill_climb(HillClimbMode::Offspring { passes: 3 });
        config.elite_swap_passes = 2;
        let r = GaEngine::new(&g, config).unwrap().run();
        assert_pin(
            &format!("offspring passes 3, polish passes 2, {kind}"),
            r.best_partition.labels(),
            &r.history,
            hash,
            cuts,
            digest,
        );
    }
}

/// The heterogeneous islands that `ExperimentProtocol::run_seeded` builds
/// for Tables 1, 2 and 5 under `GAPART_FAST=1`: every other island starts
/// from the seed (first copy exact, the rest 10% perturbed), the others
/// balanced-random, on a 2-d hypercube. The seed deals runs of nine nodes
/// to the four parts in turn: balanced, but cut far above the GA's result.
#[test]
fn seeded_heterogeneous_islands_are_pinned() {
    let g = paper_graph(144);
    let seed = InitStrategy::Seeded {
        partition: (0..144u32).map(|v| (v / 9) % 4).collect(),
        perturbation: 0.1,
    };
    for (kind, hash, cuts, digest) in [
        (
            FitnessKind::TotalCut,
            "b021c7478f648d47",
            &[
                264, 82, 76, 69, 69, 69, 66, 66, 66, 65, 65, 60, 60, 60, 60, 60, 60, 57, 57, 57, 57,
            ][..],
            "8270f0cac8cff3bf",
        ),
        (
            FitnessKind::WorstCut,
            "9b080c51f53a6545",
            &[
                137, 118, 109, 98, 74, 74, 54, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48, 48,
                48,
            ][..],
            "80627ba1fa7ed711",
        ),
    ] {
        let mut base = GaConfig::paper_defaults(4)
            .with_fitness(kind)
            .with_population_size(64)
            .with_generations(20)
            .with_init(seed.clone())
            .with_hill_climb(HillClimbMode::Offspring { passes: 1 })
            .with_seed(0x5343_3934);
        base.boundary_mutation_rate = 0.05;
        let mut config = DpgaConfig::paper(4)
            .with_base(base)
            .with_topology(Topology::Hypercube(2));
        config.init_overrides = Some(vec![seed.clone(), InitStrategy::BalancedRandom]);
        let r = DpgaEngine::new(&g, config).unwrap().run();
        assert_pin(
            &format!("seeded islands {kind}"),
            r.best_partition.labels(),
            &r.history,
            hash,
            cuts,
            digest,
        );
    }
}

/// `FinalBest` climbs the best individual once, after the last of all 60
/// generations. Fitness 2 improves in steps with long plateaus here, so
/// the elite polish meets an unchanged best many times.
#[test]
fn final_best_run_over_its_whole_budget_is_pinned() {
    let g = paper_graph(144);
    let mut config = GaConfig::paper_defaults(4)
        .with_fitness(FitnessKind::WorstCut)
        .with_population_size(64)
        .with_generations(60)
        .with_seed(1)
        .with_hill_climb(HillClimbMode::FinalBest { passes: 10 });
    config.boundary_mutation_rate = 0.05;
    let r = GaEngine::new(&g, config).unwrap().run();
    assert_eq!(r.generations_run, 60);
    assert_eq!(r.best_cut, 58);
    assert_pin(
        "final best over the whole budget",
        r.best_partition.labels(),
        &r.history,
        "b9ce6577ceb35d05",
        &[
            144, 134, 134, 111, 111, 111, 111, 111, 111, 111, 111, 77, 77, 77, 77, 77, 77, 77, 77,
            77, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 72, 58, 58, 58, 58,
            58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58, 58,
        ],
        "bd0b13b2279e4b18",
    );
}
