//! Seeded input files, written by a child process before any timer
//! starts. The measuring process only reads them, so its peak RSS and
//! its timings hold none of the generation work.

use gapart::graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart::graph::dynamic::trace::trace_to_text;
use gapart::graph::generators::{grid2d, jittered_mesh, paper_graph, GridKind, PAPER_SIZES};
use gapart::graph::io::{coords_to_text, to_metis};
use std::path::Path;

/// Side of the grid-1m grid.
const GRID_SIDE: usize = 1000;
/// Tenant sessions of serve-growth.
pub const TENANTS: usize = 4;
/// Nodes of each tenant's starting mesh.
const TENANT_NODES: usize = 20_000;
/// Commits per tenant.
pub const TENANT_BATCHES: usize = 250;
/// New nodes per commit (each wired to its 3 nearest neighbours).
const NODES_PER_BATCH: usize = 20;

pub fn grid_file(dir: &Path) -> std::path::PathBuf {
    dir.join("grid.metis")
}

pub fn paper_file(dir: &Path, n: usize) -> std::path::PathBuf {
    dir.join(format!("paper-{n}.metis"))
}

/// Graph, coordinate and trace files of tenant `i`.
pub fn tenant_files(dir: &Path, i: usize) -> [std::path::PathBuf; 3] {
    [
        dir.join(format!("tenant-{i}.metis")),
        dir.join(format!("tenant-{i}.xy")),
        dir.join(format!("tenant-{i}.trace")),
    ]
}

/// The seed of tenant `i`, derived from the workload seed: distinct per
/// `i`, a pure function of the workload seed.
pub fn derived_seed(seed: u64, i: usize) -> u64 {
    // SplitMix64 finaliser over seed + i.
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Writes the inputs of `workload` for `seed` into `dir`.
pub fn write(workload: &str, seed: u64, dir: &Path) -> Result<(), String> {
    let put = |path: &Path, text: String| {
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    match workload {
        // The grid is the same at every seed; the seed drives the solver.
        "grid-1m" => put(
            &grid_file(dir),
            to_metis(&grid2d(GRID_SIDE, GRID_SIDE, GridKind::FourConnected)),
        ),
        // The paper's 13 canonical graphs; the seed drives the solver.
        "paper-dpga" => PAPER_SIZES
            .iter()
            .try_for_each(|&n| put(&paper_file(dir, n), to_metis(&paper_graph(n)))),
        "serve-growth" => (0..TENANTS).try_for_each(|i| {
            let s = derived_seed(seed, i);
            let mesh = jittered_mesh(TENANT_NODES, s);
            let trace = generate(
                &mesh,
                Scenario::MeshGrowth,
                &TraceSpec {
                    batches: TENANT_BATCHES,
                    ops_per_batch: NODES_PER_BATCH,
                    seed: s,
                },
            )
            .map_err(|e| e.to_string())?;
            let [metis, xy, tr] = tenant_files(dir, i);
            let coords = mesh.coords().ok_or("jittered meshes carry coordinates")?;
            put(&metis, to_metis(&mesh))?;
            put(&xy, coords_to_text(coords))?;
            put(&tr, trace_to_text(&trace))
        }),
        other => Err(format!("unknown workload '{other}'")),
    }
}
