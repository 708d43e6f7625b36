//! Streaming dynamic repartitioning: maintain a partition across a
//! mutation stream.
//!
//! This is the production generalization of the paper's one-shot
//! incremental experiment (§3.5, §4.2). A [`DynamicSession`] owns the
//! current graph and partition and applies
//! [`gapart_graph::dynamic::Mutation`] batches with a three-stage
//! pipeline per batch:
//!
//! 1. **Seed** — new nodes are assigned by *both* of the paper's
//!    policies: the §3.5 balanced extension
//!    ([`crate::incremental::extend_partition_balanced`]) and the
//!    conclusion's neighbour-majority baseline
//!    ([`crate::incremental::greedy_neighbor_assign`]); the candidate
//!    with the lower composite cost (`Σ I(q) + λ Σ C(q)` at the paper's
//!    λ = 1, its Fitness-1 objective) wins, ties toward the balanced
//!    policy.
//! 2. **Localized refine** — the boundary FM refiner
//!    ([`gapart_graph::fm::FmRefiner`], reusing the session's workspace
//!    so only the dirty frontier's buckets are rebuilt) touches only the
//!    frontier (the mutated nodes plus a BFS halo of
//!    [`SessionSpec::hops`]). The cut is maintained incrementally (batch
//!    edge deltas plus the refiner's exact gain), so outside escalations
//!    a batch costs the frontier work plus `O(V)` tallies — never a full
//!    edge-set pass.
//! 3. **Escalate when degraded** — when the maintained cut exceeds
//!    [`SessionSpec::threshold`] `×` the epoch's baseline cut
//!    ([`SessionState::baseline_cut`]), the session runs its full
//!    partitioner ([`SessionSpec::method`], typically the multilevel
//!    V-cycle) from scratch, keeps the better of the two partitions,
//!    starts a new *epoch*, and re-anchors the baseline at the
//!    survivor's cut.
//!
//! A [`SessionSpec`] describes every session, and [`SessionSpec::open`]
//! (a full solve) and [`SessionSpec::resume`] (persisted state) are the
//! only ways to build one. Every step is deterministic: replaying the
//! same trace through the same spec yields a bit-identical partition,
//! regardless of thread count (asserted in `tests/stream_contract.rs`).
//!
//! A session keeps no per-batch history: memory stays bounded however
//! long it runs. [`DynamicSession::apply_batch`] and
//! [`DynamicSession::replay`] hand each [`BatchRecord`] to the caller,
//! and a `serve` tape already records every batch.

use crate::error::GaError;
use crate::incremental::{extend_partition_balanced, greedy_neighbor_assign};
use gapart_graph::dynamic::{apply_batch, Mutation};
use gapart_graph::fm::FmRefiner;
use gapart_graph::partition::cut_size;
use gapart_graph::refine::{RefineOptions, RefineStats};
use gapart_graph::{CsrGraph, GraphError, Partition, Partitioner, PartitionerError};

/// Errors surfaced by a [`DynamicSession`].
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// A mutation batch was structurally invalid for the current graph.
    Graph(GraphError),
    /// Seeding the new nodes failed (partition/graph mismatch).
    Seed(GaError),
    /// The full repartitioner failed during an escalation.
    Escalation(PartitionerError),
    /// A [`SessionSpec`] named a method the resolver does not know.
    UnknownMethod(String),
    /// Restoring a session from persisted state failed an integrity
    /// check (the message says which).
    Resume(String),
}

impl std::fmt::Display for DynamicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynamicError::Graph(e) => write!(f, "bad mutation batch: {e}"),
            DynamicError::Seed(e) => write!(f, "seeding failed: {e}"),
            DynamicError::Escalation(e) => write!(f, "full repartition failed: {e}"),
            DynamicError::UnknownMethod(m) => write!(f, "unknown method '{m}'"),
            DynamicError::Resume(m) => write!(f, "cannot resume session: {m}"),
        }
    }
}

impl std::error::Error for DynamicError {}

impl From<GraphError> for DynamicError {
    fn from(e: GraphError) -> Self {
        DynamicError::Graph(e)
    }
}

/// Default RNG seed for user-facing session surfaces (`stream`,
/// `serve`) — the bytes "SC94".
pub const DEFAULT_SESSION_SEED: u64 = 0x5343_3934;

/// The one seed grammar every surface reads (a session's `seed=`, the
/// CLI's `--seed`): decimal, or hexadecimal after `0x`/`0X`. `None` when
/// `value` is neither or does not fit a `u64`.
pub fn parse_seed(value: &str) -> Option<u64> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// A malformed or invalid [`SessionSpec`] field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A `key=value` token had no `=`.
    Malformed(String),
    /// The key is not a session parameter.
    UnknownKey(String),
    /// The value does not parse or is out of range for its key.
    BadValue {
        /// The offending key.
        key: String,
        /// The rejected value.
        value: String,
    },
    /// The spec text never set the mandatory `parts` key.
    MissingParts,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Malformed(tok) => write!(f, "expected key=value, got '{tok}'"),
            SpecError::UnknownKey(k) => write!(f, "unknown session parameter '{k}'"),
            SpecError::BadValue { key, value } => {
                write!(f, "bad value '{value}' for session parameter '{key}'")
            }
            SpecError::MissingParts => write!(f, "session spec must set parts=<n>"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Resolves a method name to a full partitioner for escalations.
///
/// [`SessionSpec`] lives below the partitioner registry (the facade
/// crate), so callers inject the lookup: the CLI and the serve daemon
/// pass `gapart::partitioners::by_name`, tests pass a function over
/// whatever partitioner they build. Returning `None` surfaces as
/// [`DynamicError::UnknownMethod`].
pub type MethodResolver = fn(&str) -> Option<Box<dyn Partitioner>>;

/// Everything that identifies a dynamic session, in one validated
/// value: part count, escalation method, seed, escalation threshold,
/// and frontier size.
///
/// This is the *single* parse/validate path for session parameters.
/// The CLI `stream` flags, the serve protocol's `open` command, and the
/// session tape's `open` record all reduce to [`SessionSpec::set`] calls
/// keyed by the same names, so one grammar serves every surface:
///
/// ```text
/// parts=4 method=mlga refine=fm seed=0x53433934 threshold=1.5 hops=2
/// ```
///
/// [`SessionSpec::to_kv`] renders that canonical form and
/// [`SessionSpec::parse_kv`] reads it back; the two round-trip exactly
/// (including `threshold=inf`). The `refine` key names the refiner,
/// which is always boundary FM: it accepts only `fm`, and `to_kv`
/// keeps writing `refine=fm` so every tape's `open` record stays
/// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Number of parts to maintain (`parts=`, mandatory, > 0).
    pub parts: u32,
    /// Registry name of the full partitioner used for the opening solve
    /// and escalations (`method=`, default `mlga`). Validated at open
    /// time by the injected [`MethodResolver`].
    pub method: String,
    /// RNG seed for every stochastic step: the opening solve, balanced
    /// seeding and escalations (`seed=`, decimal or `0x`-hex; default
    /// [`DEFAULT_SESSION_SEED`]). Batch `i` derives its sub-seed from
    /// `seed` and `i`, so a replay is a pure function of `(graph, trace,
    /// spec)`.
    pub seed: u64,
    /// Escalate to a full repartition when the maintained cut exceeds
    /// this multiple of the epoch's baseline cut
    /// ([`SessionState::baseline_cut`]; `threshold=`, default 1.5).
    /// `inf` disables escalation entirely.
    pub threshold: f64,
    /// BFS halo around the dirty nodes that the localized refinement
    /// may move (`hops=`, default 2). Larger values trade batch latency
    /// for cut quality.
    pub hops: usize,
}

impl SessionSpec {
    /// The defaults every surface shares, for `parts` parts.
    pub fn new(parts: u32) -> Self {
        SessionSpec {
            parts,
            method: "mlga".to_string(),
            seed: DEFAULT_SESSION_SEED,
            threshold: 1.5,
            hops: 2,
        }
    }

    /// Sets one parameter from its textual form — the one validation
    /// path behind both `key=value` specs and CLI flags.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] / [`SpecError::BadValue`].
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        let bad = || SpecError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
        };
        match key {
            "parts" => {
                self.parts = value.parse().ok().filter(|&p| p > 0).ok_or_else(bad)?;
            }
            "method" => {
                self.method = value.to_string();
            }
            "refine" => {
                if value != "fm" {
                    return Err(bad());
                }
            }
            "seed" => {
                self.seed = parse_seed(value).ok_or_else(bad)?;
            }
            "threshold" => {
                self.threshold = value
                    .parse::<f64>()
                    .ok()
                    .filter(|t| *t > 0.0 && !t.is_nan())
                    .ok_or_else(bad)?;
            }
            "hops" => {
                self.hops = value.parse().map_err(|_| bad())?;
            }
            _ => return Err(SpecError::UnknownKey(key.to_string())),
        }
        Ok(())
    }

    /// Parses a whitespace-separated `key=value` spec. `parts=` is
    /// mandatory; every other key falls back to its default.
    ///
    /// # Errors
    ///
    /// See [`SpecError`].
    pub fn parse_kv(text: &str) -> Result<Self, SpecError> {
        let mut spec = SessionSpec::new(0);
        let mut saw_parts = false;
        for tok in text.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| SpecError::Malformed(tok.to_string()))?;
            spec.set(key, value)?;
            saw_parts |= key == "parts";
        }
        if !saw_parts {
            return Err(SpecError::MissingParts);
        }
        Ok(spec)
    }

    /// Renders the canonical `key=value` form. `parse_kv ∘ to_kv` is
    /// the identity; the serve tape records this string in its `open`
    /// record so a recovery reconstructs the exact configuration.
    pub fn to_kv(&self) -> String {
        format!(
            "parts={} method={} refine=fm seed={} threshold={} hops={}",
            self.parts, self.method, self.seed, self.threshold, self.hops
        )
    }

    /// Resolves the method and opens a fresh session on `graph`: the
    /// full partitioner solves it once, and that solve's cut is epoch
    /// 1's baseline.
    ///
    /// # Errors
    ///
    /// [`DynamicError::UnknownMethod`] when `resolver` does not know
    /// [`SessionSpec::method`]; [`DynamicError::Escalation`] if the
    /// opening solve fails.
    pub fn open(
        &self,
        graph: CsrGraph,
        resolver: MethodResolver,
    ) -> Result<DynamicSession, DynamicError> {
        let full = self.resolve(resolver)?;
        let report = full
            .partition(&graph, self.parts, self.seed)
            .map_err(DynamicError::Escalation)?;
        let cut = report.metrics.total_cut;
        let state = SessionState {
            batches: 0,
            epoch: 1,
            baseline_cut: cut,
            current_cut: cut,
        };
        Ok(self.assemble(graph, report.partition, full, state))
    }

    /// Resolves the method and restores a session from persisted
    /// `(graph, partition, state)` — the serve daemon's crash-recovery
    /// path: a tape snapshot carries exactly these three plus the spec.
    /// Restoring `state.batches` keeps the per-batch sub-seed derivation
    /// aligned, so replaying the post-snapshot tail reproduces the
    /// uninterrupted run bit for bit.
    ///
    /// # Errors
    ///
    /// [`DynamicError::UnknownMethod`] when `resolver` does not know
    /// [`SessionSpec::method`]; [`DynamicError::Seed`] if `partition`
    /// does not cover `graph` or disagrees with [`SessionSpec::parts`];
    /// [`DynamicError::Resume`] if the recomputed cut of the restored
    /// partition disagrees with `state.current_cut` (a corrupt or
    /// mismatched snapshot).
    // gapart-lint: allow(panic-reach) -- cut_size indexes labels by node id, and the shape check above proves the partition labels every node of the graph
    pub fn resume(
        &self,
        graph: CsrGraph,
        partition: Partition,
        state: SessionState,
        resolver: MethodResolver,
    ) -> Result<DynamicSession, DynamicError> {
        let full = self.resolve(resolver)?;
        if partition.num_nodes() != graph.num_nodes() || partition.num_parts() != self.parts {
            return Err(DynamicError::Seed(GaError::BadSeed {
                message: format!(
                    "partition covers {} nodes / {} parts, session wants {} / {}",
                    partition.num_nodes(),
                    partition.num_parts(),
                    graph.num_nodes(),
                    self.parts
                ),
            }));
        }
        let actual = cut_size(&graph, &partition);
        if actual != state.current_cut {
            return Err(DynamicError::Resume(format!(
                "snapshot says cut {}, restored partition has cut {actual}",
                state.current_cut
            )));
        }
        Ok(self.assemble(graph, partition, full, state))
    }

    fn resolve(&self, resolver: MethodResolver) -> Result<Box<dyn Partitioner>, DynamicError> {
        resolver(&self.method).ok_or_else(|| DynamicError::UnknownMethod(self.method.clone()))
    }

    fn assemble(
        &self,
        graph: CsrGraph,
        partition: Partition,
        full: Box<dyn Partitioner>,
        state: SessionState,
    ) -> DynamicSession {
        DynamicSession {
            graph,
            partition,
            full,
            spec: self.clone(),
            state,
            fm: FmRefiner::new(),
        }
    }
}

/// The part of a [`DynamicSession`]'s state that is not the graph or
/// the partition: the counters a persisted session must restore for a
/// resumed run to be bit-identical to an uninterrupted one.
///
/// `batches` feeds the per-batch sub-seed derivation, `epoch` and
/// `baseline_cut` drive escalation, and `current_cut` doubles as an
/// integrity check on resume (it must equal the recomputed cut of the
/// restored partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionState {
    /// Batches absorbed so far (the next batch's 0-based index).
    pub batches: usize,
    /// Full solves so far: the opening solve plus one per escalation.
    pub epoch: usize,
    /// The cut the current epoch started from — what escalation
    /// triggers relative to. After the opening solve, or an escalation
    /// where the fresh solve won, this is that full solve's cut; when
    /// the incremental partition beat the fresh solve at an escalation,
    /// it is the (better) incremental cut instead.
    pub baseline_cut: u64,
    /// The maintained cut of the partition (edge deltas plus refinement
    /// gain; always equal to `cut_size(graph, partition)`).
    pub current_cut: u64,
}

/// How a batch was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAction {
    /// Seed + localized refinement only.
    Incremental,
    /// The degradation threshold tripped: a full repartition ran and a
    /// new epoch began.
    FullRepartition,
}

/// What one batch did. The `epoch` column makes escalations
/// visible: it increments exactly when `action` is
/// [`BatchAction::FullRepartition`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// 0-based batch index in the stream.
    pub batch: usize,
    /// Epoch after this batch (number of full solves so far).
    pub epoch: usize,
    /// Mutations in the batch.
    pub mutations: usize,
    /// Nodes the batch added.
    pub new_nodes: usize,
    /// Size of the localized-refinement frontier.
    pub frontier: usize,
    /// Cut right after seeding, before any refinement.
    pub cut_seeded: u64,
    /// Cut after the batch was fully absorbed.
    pub cut_after: u64,
    /// What the localized refinement did.
    pub refine: RefineStats,
    /// Incremental or escalated.
    pub action: BatchAction,
}

/// A live dynamic-repartitioning session: current graph + partition
/// and a full repartitioner for escalations, built by
/// [`SessionSpec::open`] or [`SessionSpec::resume`].
///
/// See the [module docs](self) for the per-batch pipeline.
pub struct DynamicSession {
    graph: CsrGraph,
    partition: Partition,
    full: Box<dyn Partitioner>,
    spec: SessionSpec,
    state: SessionState,
    /// Reusable boundary-FM workspace (gain buckets, degree caches):
    /// batch refinement touches only the dirty frontier's buckets and
    /// allocates nothing steady-state.
    fm: FmRefiner,
}

impl std::fmt::Debug for DynamicSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynamicSession")
            .field("nodes", &self.graph.num_nodes())
            .field("parts", &self.spec.parts)
            .field("method", &self.spec.method)
            .field("epoch", &self.state.epoch)
            .field("batches", &self.state.batches)
            .finish()
    }
}

impl DynamicSession {
    /// The restorable counters — what a snapshot must persist alongside
    /// the graph and partition (see [`SessionSpec::resume`]).
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The maintained partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The spec the session was opened or resumed with.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// Current cut of the maintained partition (tracked incrementally;
    /// `O(1)`).
    pub fn current_cut(&self) -> u64 {
        debug_assert_eq!(
            self.state.current_cut,
            cut_size(&self.graph, &self.partition)
        );
        self.state.current_cut
    }

    /// Deterministic per-batch sub-seed.
    fn batch_seed(&self) -> u64 {
        self.spec
            .seed
            .wrapping_add((self.state.batches as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Applies one mutation batch and returns its record.
    ///
    /// # Errors
    ///
    /// See [`DynamicError`]; on error the session is unchanged.
    pub fn apply_batch(&mut self, batch: &[Mutation]) -> Result<BatchRecord, DynamicError> {
        let (graph, dirty) = apply_batch(&self.graph, batch)?;
        let seed = self.batch_seed();
        let n_old = self.partition.num_nodes();
        let new_nodes = graph.num_nodes() - n_old;
        let n_parts = self.spec.parts as usize;

        // Cut delta contributed by the batch's edges under a given
        // labelling: every `AddEdge` op adds its weight to the (possibly
        // pre-existing) edge, so it raises the cut by exactly that
        // weight when its endpoints sit in different parts. This keeps
        // the cut maintained in O(|batch|) instead of re-walking the
        // whole edge set.
        let added_cut = |p: &Partition| -> u64 {
            batch
                .iter()
                .map(|m| match *m {
                    Mutation::AddEdge { u, v, weight } if p.part(u) != p.part(v) => weight as u64,
                    _ => 0,
                })
                .sum()
        };

        // 1. Seed: both of the paper's policies, best composite cost
        //    wins. Both candidates agree on the old-node prefix, so the
        //    comparison needs only a load tally plus the batch's edge
        //    delta — no full-graph metrics pass.
        let (mut partition, cut_seeded) = if new_nodes > 0 {
            let balanced = extend_partition_balanced(&graph, &self.partition, seed)
                .map_err(DynamicError::Seed)?;
            let majority =
                greedy_neighbor_assign(&graph, &self.partition).map_err(DynamicError::Seed)?;
            let mut base_loads = vec![0u64; n_parts];
            for v in 0..n_old as u32 {
                base_loads[self.partition.part(v) as usize] += graph.node_weight(v) as u64;
            }
            let avg = graph.total_node_weight() as f64 / n_parts as f64;
            // The paper's composite cost Σ I(q) + λ Σ C(q) at λ = 1, with
            // Σ C(q) = 2 × total cut (each cut edge charges both parts).
            let score = |p: &Partition| -> (f64, u64) {
                let mut loads = base_loads.clone();
                for v in n_old as u32..graph.num_nodes() as u32 {
                    loads[p.part(v) as usize] += graph.node_weight(v) as u64;
                }
                let imbalance: f64 = loads
                    .iter()
                    .map(|&l| {
                        let d = l as f64 - avg;
                        d * d
                    })
                    .sum();
                let cut = self.state.current_cut + added_cut(p);
                (imbalance + (2 * cut) as f64, cut)
            };
            let (cost_b, cut_b) = score(&balanced);
            let (cost_m, cut_m) = score(&majority);
            if cost_m < cost_b {
                (majority, cut_m)
            } else {
                (balanced, cut_b)
            }
        } else {
            let cut = self.state.current_cut + added_cut(&self.partition);
            (self.partition.clone(), cut)
        };
        debug_assert_eq!(cut_seeded, cut_size(&graph, &partition));

        // 2. Localized refinement on the dirty frontier. The refiner's
        //    reported gain is the exact cut delta (unit-tested), so the
        //    cut stays maintained without an edge-set pass. Boundary FM
        //    rebuilds only the frontier's buckets inside the session's
        //    persistent workspace.
        let frontier = dirty.frontier(&graph, self.spec.hops);
        let refine = self.fm.refine_local(
            &graph,
            &mut partition,
            &RefineOptions::default(),
            seed,
            &frontier,
        );
        let mut cut_after = cut_seeded - refine.gain;
        debug_assert_eq!(cut_after, cut_size(&graph, &partition));

        // 3. Escalate when quality degraded past the threshold.
        let degraded = cut_after as f64 > self.spec.threshold * self.state.baseline_cut as f64;
        let action = if degraded {
            let report = self
                .full
                .partition(&graph, self.spec.parts, seed)
                .map_err(DynamicError::Escalation)?;
            // Keep whichever side of the escalation is actually better:
            // a small-budget full solve can lose to a well-maintained
            // incremental partition, and regressing the cut would make
            // escalation worse than useless. Either way the survivor's
            // cut becomes the new epoch baseline.
            if report.metrics.total_cut < cut_after {
                partition = report.partition;
                cut_after = report.metrics.total_cut;
            }
            self.state.baseline_cut = cut_after;
            self.state.epoch += 1;
            BatchAction::FullRepartition
        } else {
            BatchAction::Incremental
        };

        self.graph = graph;
        self.partition = partition;
        self.state.current_cut = cut_after;
        let record = BatchRecord {
            batch: self.state.batches,
            epoch: self.state.epoch,
            mutations: batch.len(),
            new_nodes,
            frontier: frontier.len(),
            cut_seeded,
            cut_after,
            refine,
            action,
        };
        self.state.batches += 1;
        Ok(record)
    }

    /// Replays a whole trace, stopping at the first error; returns one
    /// record per batch, in order.
    ///
    /// # Errors
    ///
    /// The first [`DynamicError`] any batch raises; batches before it
    /// are applied.
    pub fn replay(&mut self, batches: &[Vec<Mutation>]) -> Result<Vec<BatchRecord>, DynamicError> {
        batches
            .iter()
            .map(|batch| self.apply_batch(batch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GaConfig;
    use crate::partitioner_impl::GaPartitioner;
    use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
    use gapart_graph::dynamic::MutationLog;
    use gapart_graph::generators::jittered_mesh;
    use gapart_graph::multilevel::MultilevelPartitioner;

    /// Small-budget multilevel GA, the intended escalation partitioner.
    fn mlga() -> Box<dyn Partitioner> {
        Box::new(MultilevelPartitioner::new(Box::new(GaPartitioner::new(
            GaConfig::coarse_defaults(4),
        ))))
    }

    /// Resolver over the test `mlga`, matching the [`MethodResolver`]
    /// shape the CLI and daemon inject.
    fn resolve(name: &str) -> Option<Box<dyn Partitioner>> {
        (name == "mlga").then(mlga)
    }

    fn session(n: usize, parts: u32) -> DynamicSession {
        SessionSpec {
            seed: 5,
            ..SessionSpec::new(parts)
        }
        .open(jittered_mesh(n, 11), resolve)
        .unwrap()
    }

    #[test]
    fn opens_with_a_full_solve() {
        let s = session(150, 4);
        assert_eq!(s.state().epoch, 1);
        assert_eq!(s.partition().num_nodes(), 150);
        assert_eq!(s.state().baseline_cut, s.current_cut());
        assert_eq!(s.state().batches, 0);
    }

    #[test]
    fn incremental_batch_keeps_all_invariants() {
        let mut s = session(150, 4);
        let mut log = MutationLog::new(150);
        let a = log.add_node(1, Some(gapart_graph::Point2::new(0.5, 0.5)));
        log.add_edge(a, 10, 1);
        log.add_edge(a, 20, 1);
        let rec = s.apply_batch(log.ops()).unwrap();
        assert_eq!(rec.action, BatchAction::Incremental);
        assert_eq!(rec.new_nodes, 1);
        assert_eq!(s.partition().num_nodes(), 151);
        assert!(s.partition().labels().iter().all(|&l| l < 4));
        // Refinement never worsens the seeded cut.
        assert!(rec.cut_after <= rec.cut_seeded);
        // No part was drained empty.
        assert!(s.partition().part_sizes().iter().all(|&z| z > 0));
    }

    #[test]
    fn replays_a_generated_trace_end_to_end() {
        let mut s = session(200, 4);
        let trace = generate(
            s.graph(),
            Scenario::RandomChurn,
            &TraceSpec {
                batches: 6,
                ops_per_batch: 12,
                seed: 3,
            },
        )
        .unwrap();
        let records = s.replay(&trace).unwrap();
        assert_eq!(records.len(), 6);
        assert!(records.iter().enumerate().all(|(i, r)| r.batch == i));
        assert_eq!(s.state().batches, 6);
        assert_eq!(s.partition().num_nodes(), s.graph().num_nodes());
        s.graph().validate().unwrap();
    }

    #[test]
    fn escalation_trips_on_degradation_and_starts_an_epoch() {
        // Forcing the threshold to 0 makes any positive cut "degraded",
        // so every batch must escalate.
        let mut s = SessionSpec {
            seed: 5,
            threshold: 0.0,
            ..SessionSpec::new(4)
        }
        .open(jittered_mesh(150, 11), resolve)
        .unwrap();
        let trace = generate(
            s.graph(),
            Scenario::MeshGrowth,
            &TraceSpec {
                batches: 3,
                ops_per_batch: 10,
                seed: 8,
            },
        )
        .unwrap();
        let records = s.replay(&trace).unwrap();
        assert_eq!(s.state().epoch, 4, "every batch should escalate");
        assert!(records
            .iter()
            .all(|r| r.action == BatchAction::FullRepartition));

        // And an infinite threshold never escalates.
        let mut s = SessionSpec {
            seed: 5,
            threshold: f64::INFINITY,
            ..SessionSpec::new(4)
        }
        .open(jittered_mesh(150, 11), resolve)
        .unwrap();
        s.replay(&trace).unwrap();
        assert_eq!(s.state().epoch, 1);
    }

    #[test]
    fn escalation_never_regresses_the_cut() {
        let mut s = SessionSpec {
            seed: 9,
            threshold: 0.0,
            ..SessionSpec::new(4)
        }
        .open(jittered_mesh(180, 4), resolve)
        .unwrap();
        let trace = generate(
            s.graph(),
            Scenario::RandomChurn,
            &TraceSpec {
                batches: 4,
                ops_per_batch: 8,
                seed: 2,
            },
        )
        .unwrap();
        for batch in &trace {
            let incremental_cut = {
                // What the cut would be without escalation is not directly
                // observable; instead assert the recorded escalated cut is
                // never worse than the recorded seeded+refined cut.
                let rec = s.apply_batch(batch).unwrap();
                (rec.cut_after, rec.cut_seeded)
            };
            assert!(incremental_cut.0 <= incremental_cut.1);
        }
    }

    #[test]
    fn hotspot_drift_changes_loads_without_structure() {
        let mut s = session(160, 4);
        let trace = generate(
            s.graph(),
            Scenario::HotspotDrift,
            &TraceSpec {
                batches: 5,
                ops_per_batch: 15,
                seed: 6,
            },
        )
        .unwrap();
        let nodes_before = s.graph().num_nodes();
        let records = s.replay(&trace).unwrap();
        assert_eq!(s.graph().num_nodes(), nodes_before);
        assert!(records.iter().all(|r| r.new_nodes == 0));
    }

    #[test]
    fn bad_batches_leave_the_session_unchanged() {
        let mut s = session(100, 4);
        let before_nodes = s.graph().num_nodes();
        let before_partition = s.partition().clone();
        let bad = vec![Mutation::AddEdge {
            u: 0,
            v: 9999,
            weight: 1,
        }];
        assert!(matches!(
            s.apply_batch(&bad).unwrap_err(),
            DynamicError::Graph(GraphError::NodeOutOfRange { .. })
        ));
        assert_eq!(s.graph().num_nodes(), before_nodes);
        assert_eq!(s.partition(), &before_partition);
        assert_eq!(s.state().batches, 0);
    }

    #[test]
    fn spec_parses_validates_and_round_trips() {
        let spec =
            SessionSpec::parse_kv("parts=4 seed=0x2A threshold=inf hops=3 refine=fm").unwrap();
        assert_eq!(spec.parts, 4);
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.threshold, f64::INFINITY);
        assert_eq!(spec.hops, 3);
        assert_eq!(spec.method, "mlga", "default survives partial specs");
        // Canonical form round-trips exactly, including the inf
        // threshold, and still names the refiner for the tape.
        assert!(spec.to_kv().contains(" refine=fm "), "{}", spec.to_kv());
        assert_eq!(SessionSpec::parse_kv(&spec.to_kv()).unwrap(), spec);
        let dflt = SessionSpec::new(2);
        assert_eq!(SessionSpec::parse_kv(&dflt.to_kv()).unwrap(), dflt);

        assert_eq!(
            SessionSpec::parse_kv("seed=1").unwrap_err(),
            SpecError::MissingParts
        );
        assert_eq!(
            SessionSpec::parse_kv("parts=0").unwrap_err(),
            SpecError::BadValue {
                key: "parts".into(),
                value: "0".into()
            }
        );
        assert!(matches!(
            SessionSpec::parse_kv("parts=2 frob=1").unwrap_err(),
            SpecError::UnknownKey(_)
        ));
        assert!(matches!(
            SessionSpec::parse_kv("parts=2 nodice").unwrap_err(),
            SpecError::Malformed(_)
        ));
        // Unknown engines and the retired refiners alike.
        for retired in ["quantum", "sweep", "pfm", "pfm-rescan"] {
            assert_eq!(
                SessionSpec::parse_kv(&format!("parts=2 refine={retired}")).unwrap_err(),
                SpecError::BadValue {
                    key: "refine".into(),
                    value: retired.into()
                }
            );
        }
        assert!(matches!(
            SessionSpec::parse_kv("parts=2 threshold=-1").unwrap_err(),
            SpecError::BadValue { .. }
        ));
    }

    #[test]
    fn spec_open_resolves_the_method() {
        let spec = SessionSpec {
            seed: 5,
            ..SessionSpec::new(4)
        };
        let s = spec.open(jittered_mesh(120, 11), resolve).unwrap();
        assert_eq!(s.state().epoch, 1);
        assert_eq!(s.spec(), &spec);

        let unknown = SessionSpec {
            method: "frob".into(),
            ..SessionSpec::new(4)
        };
        assert!(matches!(
            unknown.open(jittered_mesh(120, 11), resolve).unwrap_err(),
            DynamicError::UnknownMethod(m) if m == "frob"
        ));
    }

    #[test]
    fn resume_restores_counters_and_checks_the_cut() {
        // Run a session halfway, capture its state, and resume a clone
        // from (graph, partition, state): the continuations must agree
        // batch for batch — the crash-recovery determinism contract.
        let trace = generate(
            &jittered_mesh(150, 11),
            Scenario::RandomChurn,
            &TraceSpec {
                batches: 6,
                ops_per_batch: 10,
                seed: 1,
            },
        )
        .unwrap();
        let mut live = session(150, 4);
        live.replay(&trace[..3]).unwrap();

        let mut resumed = live
            .spec()
            .resume(
                live.graph().clone(),
                live.partition().clone(),
                live.state(),
                resolve,
            )
            .unwrap();
        assert_eq!(resumed.state(), live.state());

        assert_eq!(
            resumed.replay(&trace[3..]).unwrap(),
            live.replay(&trace[3..]).unwrap()
        );
        assert_eq!(resumed.partition(), live.partition());
        assert_eq!(resumed.state(), live.state());

        // A tampered cut is rejected.
        let mut bad = live.state();
        bad.current_cut += 1;
        assert!(matches!(
            live.spec()
                .resume(live.graph().clone(), live.partition().clone(), bad, resolve)
                .unwrap_err(),
            DynamicError::Resume(_)
        ));

        // So is a partition into a part count the spec does not name.
        let wrong = Partition::round_robin(live.graph().num_nodes(), 8);
        assert!(matches!(
            live.spec()
                .resume(live.graph().clone(), wrong, live.state(), resolve)
                .unwrap_err(),
            DynamicError::Seed(_)
        ));
    }

    #[test]
    fn replay_is_deterministic() {
        let trace = generate(
            &jittered_mesh(150, 11),
            Scenario::RandomChurn,
            &TraceSpec {
                batches: 5,
                ops_per_batch: 10,
                seed: 1,
            },
        )
        .unwrap();
        let run = || {
            let mut s = session(150, 4);
            let records = s.replay(&trace).unwrap();
            (s.partition().clone(), records, s.state())
        };
        assert_eq!(run(), run());
    }
}
