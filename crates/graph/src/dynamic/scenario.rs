//! Deterministic mutation-trace generators.
//!
//! Three stream shapes cover the dynamic workloads the paper's setting
//! implies (an adaptive PDE mesh evolving under a solver):
//!
//! * [`Scenario::MeshGrowth`] — §4.2's locality model made continuous:
//!   every batch picks a random anchor and adds nodes clustered around
//!   it, each wired to its 3 nearest neighbours (requires coordinates).
//! * [`Scenario::RandomChurn`] — structural noise: new nodes attached to
//!   random existing ones, extra edges between random pairs, occasional
//!   weight changes, spread uniformly over the graph.
//! * [`Scenario::HotspotDrift`] — pure load drift: a hotspot wanders over
//!   the graph by one BFS step per batch; nodes near it heat up (a boost
//!   added to their original weight), nodes it leaves cool back to
//!   exactly their original weight. No structural change at all.
//!
//! Generation *applies* each batch as it is produced, so emitted traces
//! are always structurally valid for the graph they were generated from,
//! and the whole trace is a pure function of `(graph, scenario, spec)`.

use super::{apply_batch, Mutation, MutationLog};
use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::geometry::{density_cell, NearestGrid, Point2};
use crate::incremental::grow_step;
use crate::traversal::bfs_distances;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The built-in stream shapes. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Mesh-refinement growth around random anchors (needs coordinates).
    MeshGrowth,
    /// Random structural churn: node/edge additions plus weight noise.
    RandomChurn,
    /// A drifting hotspot of node-weight increases; no structural change.
    HotspotDrift,
}

impl Scenario {
    /// Registry names, in documentation order.
    pub const NAMES: [&'static str; 3] = ["mesh-growth", "churn", "hotspot"];

    /// Resolves a registry name (`"mesh-growth"`, `"churn"`,
    /// `"hotspot"`); returns `None` for unknown names.
    pub fn by_name(name: &str) -> Option<Scenario> {
        match name {
            "mesh-growth" => Some(Scenario::MeshGrowth),
            "churn" => Some(Scenario::RandomChurn),
            "hotspot" => Some(Scenario::HotspotDrift),
            _ => None,
        }
    }

    /// The registry name of this scenario.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::MeshGrowth => "mesh-growth",
            Scenario::RandomChurn => "churn",
            Scenario::HotspotDrift => "hotspot",
        }
    }
}

/// Size and seed of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Number of batches (commits) to generate.
    pub batches: usize,
    /// Approximate mutations per batch (exact for growth/churn; the
    /// hotspot scenario adds cool-down mutations for nodes it leaves).
    pub ops_per_batch: usize,
    /// RNG seed; the trace is a pure function of graph, scenario & spec.
    pub seed: u64,
}

/// Generates a trace of `spec.batches` batches for `graph`.
///
/// # Errors
///
/// [`GraphError::EmptyGraph`] if the graph has no node to draw from;
/// [`GraphError::MissingCoordinates`] if [`Scenario::MeshGrowth`] is
/// requested for a graph without coordinates;
/// [`GraphError::UnboundedCoords`] if the graph's coordinates span more
/// than an `f64` measures. Other errors cannot occur:
/// generated batches are applied as they are produced, so invalid
/// references would be a bug, not an input condition.
pub fn generate(
    graph: &CsrGraph,
    scenario: Scenario,
    spec: &TraceSpec,
) -> Result<Vec<Vec<Mutation>>, GraphError> {
    if graph.num_nodes() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7374_7265_616d); // "stream"
    match scenario {
        Scenario::MeshGrowth => mesh_growth(graph, spec, &mut rng),
        Scenario::RandomChurn => random_churn(graph, spec, &mut rng),
        Scenario::HotspotDrift => Ok(hotspot_drift(graph, spec, &mut rng)),
    }
}

fn mesh_growth(
    graph: &CsrGraph,
    spec: &TraceSpec,
    rng: &mut StdRng,
) -> Result<Vec<Vec<Mutation>>, GraphError> {
    let coords = graph.coords_required()?;
    // Length scale from the measured point density, so growth looks the
    // same whatever the coordinate units are.
    let spacing = density_cell(coords)?;
    let mut index = NearestGrid::new(coords, spacing);
    let mut batches = Vec::with_capacity(spec.batches);
    for _ in 0..spec.batches {
        let mut log = MutationLog::new(index.len());
        let anchor = rng.gen_range(0..index.len() as u32);
        let anchor_pt = index.points()[anchor as usize];
        grow_step(
            &mut index,
            anchor_pt,
            2.0 * spacing,
            spec.ops_per_batch,
            &mut log,
            rng,
        );
        batches.push(log.into_ops());
    }
    Ok(batches)
}

fn random_churn(
    graph: &CsrGraph,
    spec: &TraceSpec,
    rng: &mut StdRng,
) -> Result<Vec<Vec<Mutation>>, GraphError> {
    let mut g = graph.clone();
    let mut batches = Vec::with_capacity(spec.batches);
    for _ in 0..spec.batches {
        let mut log = MutationLog::new(g.num_nodes());
        let n = g.num_nodes() as u32;
        let jitter = match g.coords() {
            Some(c) => 0.5 * density_cell(c)?,
            None => 0.0,
        };
        for _ in 0..spec.ops_per_batch {
            let roll = rng.gen_range(0u32..10);
            if roll < 5 {
                // New node, attached to a random existing node and one of
                // that node's neighbours (locality-ish, stays connected).
                let attach = rng.gen_range(0..n);
                let pos = g.coords().map(|c| {
                    let base = c[attach as usize];
                    Point2::new(
                        base.x + rng.gen_range(-jitter..jitter),
                        base.y + rng.gen_range(-jitter..jitter),
                    )
                });
                let id = log.add_node(1, pos);
                log.add_edge(id, attach, 1);
                let nbrs = g.neighbors(attach);
                if !nbrs.is_empty() {
                    log.add_edge(id, nbrs[rng.gen_range(0..nbrs.len())], 1);
                }
            } else if roll < 8 {
                // Extra edge between two distinct existing nodes
                // (reinforcement when it already exists).
                let u = rng.gen_range(0..n);
                let mut v = rng.gen_range(0..n);
                if v == u {
                    v = (v + 1) % n;
                }
                log.add_edge(u, v, 1);
            } else {
                // Weight noise.
                let v = rng.gen_range(0..n);
                log.set_node_weight(v, rng.gen_range(1u32..=4));
            }
        }
        let (next, _) = apply_batch(&g, log.ops())?;
        g = next;
        batches.push(log.into_ops());
    }
    Ok(batches)
}

fn hotspot_drift(graph: &CsrGraph, spec: &TraceSpec, rng: &mut StdRng) -> Vec<Vec<Mutation>> {
    let n = graph.num_nodes() as u32;
    // The drift is a *perturbation* of the load profile, not a
    // replacement: heat adds to a node's original weight and cooling
    // restores it exactly, so weighted input graphs keep their baseline.
    let orig = graph.node_weights().to_vec();
    let mut center = rng.gen_range(0..n);
    let mut hot: Vec<u32> = Vec::new();
    let mut batches = Vec::with_capacity(spec.batches);
    for b in 0..spec.batches {
        // Drift: step to a random neighbour of the current centre.
        let nbrs = graph.neighbors(center);
        if !nbrs.is_empty() {
            center = nbrs[rng.gen_range(0..nbrs.len())];
        }
        // The hot set is the `ops_per_batch` BFS-closest nodes.
        let dist = bfs_distances(graph, center);
        let mut by_dist: Vec<u32> = (0..n).filter(|&v| dist[v as usize] != usize::MAX).collect();
        by_dist.sort_unstable_by_key(|&v| (dist[v as usize], v));
        by_dist.truncate(spec.ops_per_batch);
        let heat = 3 + (b % 6) as u32;
        let mut log = MutationLog::new(graph.num_nodes());
        // Cool nodes the hotspot left back to their original weight...
        for &v in &hot {
            if !by_dist.contains(&v) {
                log.set_node_weight(v, orig[v as usize]);
            }
        }
        // ...and heat the new set (hotter toward the centre).
        for &v in &by_dist {
            let boost = heat.saturating_sub(dist[v as usize] as u32).max(1);
            log.set_node_weight(v, orig[v as usize].saturating_add(boost));
        }
        hot = by_dist;
        batches.push(log.into_ops());
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::apply_all;
    use crate::generators::{gnp, jittered_mesh};

    fn spec(batches: usize, ops: usize, seed: u64) -> TraceSpec {
        TraceSpec {
            batches,
            ops_per_batch: ops,
            seed,
        }
    }

    #[test]
    fn names_round_trip() {
        for name in Scenario::NAMES {
            assert_eq!(Scenario::by_name(name).unwrap().name(), name);
        }
        assert!(Scenario::by_name("tsunami").is_none());
    }

    #[test]
    fn mesh_growth_adds_exactly_the_requested_nodes() {
        let g = jittered_mesh(120, 3);
        let trace = generate(&g, Scenario::MeshGrowth, &spec(4, 8, 1)).unwrap();
        assert_eq!(trace.len(), 4);
        let (grown, dirty) = apply_all(&g, &trace).unwrap();
        grown.validate().unwrap();
        assert_eq!(grown.num_nodes(), 120 + 4 * 8);
        assert!(dirty.len() >= 32);
    }

    #[test]
    fn mesh_growth_requires_coordinates() {
        let g = gnp(30, 0.2, 1);
        assert_eq!(
            generate(&g, Scenario::MeshGrowth, &spec(1, 2, 0)).unwrap_err(),
            GraphError::MissingCoordinates
        );
    }

    #[test]
    fn churn_applies_cleanly_with_and_without_coords() {
        for g in [jittered_mesh(80, 5), gnp(80, 0.1, 5)] {
            let trace = generate(&g, Scenario::RandomChurn, &spec(5, 10, 9)).unwrap();
            assert_eq!(trace.len(), 5);
            let (churned, _) = apply_all(&g, &trace).unwrap();
            churned.validate().unwrap();
            assert!(churned.num_nodes() > g.num_nodes(), "churn never grew");
        }
    }

    #[test]
    fn hotspot_changes_weights_but_not_structure() {
        let g = jittered_mesh(90, 2);
        let trace = generate(&g, Scenario::HotspotDrift, &spec(6, 12, 4)).unwrap();
        let (drifted, _) = apply_all(&g, &trace).unwrap();
        drifted.validate().unwrap();
        assert_eq!(drifted.num_nodes(), 90);
        assert_eq!(drifted.num_edges(), g.num_edges());
        assert_ne!(drifted.node_weights(), g.node_weights());
        assert!(trace
            .iter()
            .flatten()
            .all(|m| matches!(m, Mutation::SetNodeWeight { .. })));
        // Drift perturbs the original load profile, never erases it:
        // every weight is original-or-hotter, and only the final hot set
        // (≤ ops_per_batch nodes) may still be hot.
        let still_hot = drifted
            .node_weights()
            .iter()
            .zip(g.node_weights())
            .filter(|(d, o)| d != o)
            .count();
        assert!(still_hot > 0 && still_hot <= 12, "{still_hot} hot nodes");
        for (v, (&d, &o)) in drifted
            .node_weights()
            .iter()
            .zip(g.node_weights())
            .enumerate()
        {
            assert!(d >= o, "node {v} cooled below its original weight");
        }
    }

    #[test]
    fn hotspot_preserves_weighted_baselines() {
        // A graph whose nodes carry real (non-unit) weights must keep
        // that baseline through arbitrary drift.
        let base = jittered_mesh(60, 9);
        let mut b = crate::builder::GraphBuilder::with_nodes(60);
        for (u, v, w) in base.edges() {
            b.push_edge(u, v, w);
        }
        let g = b
            .node_weights(vec![50; 60])
            .coords(base.coords().unwrap().to_vec())
            .build()
            .unwrap();
        let trace = generate(&g, Scenario::HotspotDrift, &spec(8, 10, 3)).unwrap();
        let (drifted, _) = apply_all(&g, &trace).unwrap();
        assert!(drifted.node_weights().iter().all(|&w| w >= 50));
        // Most nodes are cooled back to exactly the baseline.
        let at_baseline = drifted.node_weights().iter().filter(|&&w| w == 50).count();
        assert!(at_baseline >= 50, "only {at_baseline} nodes at baseline");
    }

    #[test]
    fn generation_is_deterministic_in_the_spec() {
        let g = jittered_mesh(70, 8);
        for sc in [
            Scenario::MeshGrowth,
            Scenario::RandomChurn,
            Scenario::HotspotDrift,
        ] {
            let a = generate(&g, sc, &spec(3, 6, 77)).unwrap();
            let b = generate(&g, sc, &spec(3, 6, 77)).unwrap();
            assert_eq!(a, b, "{}", sc.name());
            let c = generate(&g, sc, &spec(3, 6, 78)).unwrap();
            assert_ne!(a, c, "{} ignored the seed", sc.name());
        }
    }
}
