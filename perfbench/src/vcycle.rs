//! The registry's `mlga` V-cycle with the default FM refiner, rebuilt
//! from the public calls it makes so each layer gets its own span:
//! coarsen, the inner GA on the coarsest graph, FM on the coarsest graph,
//! then projection and primed FM per level, masked by the refiner's
//! boundary superset. `MultilevelPartitioner::partition` makes the same
//! calls in the same order (the V-cycle's
//! `boundary_fm_fast_path_matches_the_unhinted_engine` test pins the
//! shape), so the labels must equal the untraced run's; callers compare.

use crate::trace::Tracer;
use gapart::core::{GaConfig, GaEngine};
use gapart::graph::coarsen::{coarsen_to_with_arena, LevelArena};
use gapart::graph::fm::FmRefiner;
use gapart::graph::refine::RefineStats;
use gapart::graph::{CsrGraph, MultilevelConfig, Partition};

/// The inner GA's budget exactly as the registry configures `mlga`.
fn inner_config(parts: u32, seed: u64) -> GaConfig {
    let mut config = GaConfig::coarse_defaults(2);
    config.num_parts = parts;
    config.seed = seed;
    config
}

/// Index of the first generation whose best cut equals the final one.
pub fn converged_gen(best_cut: &[u64]) -> usize {
    best_cut
        .last()
        .and_then(|last| best_cut.iter().position(|c| c == last))
        .unwrap_or(0)
}

fn count_fm(t: &mut Tracer, stats: RefineStats) {
    t.count("fm.moves", stats.moves as f64);
    t.count("fm.gain", stats.gain as f64);
}

/// Runs the traced V-cycle of `mlga` on `graph`.
pub fn traced_mlga(
    graph: &CsrGraph,
    parts: u32,
    seed: u64,
    t: &mut Tracer,
) -> Result<Partition, String> {
    let config = MultilevelConfig::default();
    let target = config.coarsen_target.max(parts as usize * 2);
    let opts = config.refine;
    let mut arena = LevelArena::new();
    let levels = t.time("coarsen", || {
        coarsen_to_with_arena(graph, target, seed, config.match_scheme, &mut arena)
    });
    let coarsest = levels.last().map_or(graph, |l| &l.coarse);
    t.sample("coarsen.levels", levels.len() as f64);
    t.sample("coarsen.coarsest_nodes", coarsest.num_nodes() as f64);

    let result = t
        .time("engine", || {
            GaEngine::new(coarsest, inner_config(parts, seed)).map(GaEngine::run)
        })
        .map_err(|e| format!("inner GA: {e}"))?;
    t.sample("engine.generations", result.generations_run as f64);
    t.sample(
        "engine.converged_gen",
        converged_gen(&result.history.best_cut) as f64,
    );

    let mut partition = result.best_partition;
    let mut fm = FmRefiner::new();
    let stats = t.time("fm", || fm.refine(coarsest, &mut partition, &opts, seed));
    count_fm(t, stats);
    let mut mask = Vec::new();
    for (i, level) in levels.iter().enumerate().rev() {
        let fine = if i == 0 { graph } else { &levels[i - 1].coarse };
        let projected = t.time("coarsen.project", || {
            mask.clear();
            mask.resize(level.coarse.num_nodes(), false);
            for &v in fm.last_boundary_superset() {
                mask[v as usize] = true;
            }
            level.project_for_fm(&partition, fine, &mask)
        });
        partition = projected.partition;
        let (hint, loads, counts) = (projected.hint, projected.loads, projected.counts);
        let stats = t.time("fm", || {
            fm.refine_primed(fine, &mut partition, &opts, seed, &hint, loads, counts)
        });
        count_fm(t, stats);
    }
    Ok(partition)
}
