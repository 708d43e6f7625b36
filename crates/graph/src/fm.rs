//! Boundary-driven k-way Fiduccia–Mattheyses refinement with gain
//! buckets.
//!
//! Instead of revisiting every vertex per pass, the engine
//! keeps only the **cut boundary** in an O(1) bucket priority structure
//! and chains moves — including into locally-worse states — rolling back
//! to the best prefix seen when a pass ends. This is the standard move of
//! multilevel partitioners (METIS-style refinement) and the quality lever
//! of the V-cycle: the coarsest-level solution is cheap, projection is
//! exact, so the final cut is decided by how well each level refines.
//!
//! # Structure
//!
//! * **Gain buckets** — a doubly-linked list per gain value over the
//!   range `[-Δ, +Δ]` (`Δ` = the largest |gain| in the pass's initial
//!   boundary, clamped; gains drifting out of range mid-pass share the
//!   end buckets). Insert, remove, and reposition are O(1); pop-max
//!   amortizes the descending scan over the range plus the insertions.
//! * **Per-vertex degree caches** — each boundary vertex caches its
//!   external connectivity (`ed`, the weight into other parts) and its
//!   best-move gain (connectivity to the best adjacent part minus the
//!   internal degree). A vertex is *boundary* iff `ed > 0`; only
//!   boundary vertices live in the buckets, so a pass costs
//!   `O(boundary · deg)`, not `O(V + E)`.
//! * **Hill-climbing rollback** — a pass keeps popping the best-gain
//!   vertex and applying its move even when the gain is negative
//!   (bounded by a stall limit), logging every move. At pass end the
//!   partition rolls back to the shortest prefix that achieved the best
//!   cut seen, so a pass **never worsens the cut** — it merely explores
//!   past ridges a greedy pass cannot cross. Each vertex moves at most
//!   once per pass (the classic FM lock).
//! * **Balance** — a move must keep the destination within
//!   `(1 + balance_slack) × avg` load and may never empty its source
//!   part — only a part's last vertex is pinned, so a zero-weight
//!   vertex in a populated part moves freely (it cannot drain any
//!   load).
//!
//! # Determinism
//!
//! The engine is strictly sequential — a pure function of
//! `(graph, partition, options, seed)` — so it is bit-identical for any
//! worker-pool size by construction (pinned alongside the parallel
//! pipeline in `tests/parallel_contract.rs`). Ties between equal-gain
//! vertices are broken by a seeded SplitMix64 key (the same mixer as the
//! PR 4 handshake matcher), so tie-breaking is reproducible yet free of
//! id-order bias.
//!
//! # Reuse
//!
//! [`FmRefiner`] owns every buffer the engine needs and recycles them
//! across calls; the streaming layer keeps one per session so a batch's
//! dirty-frontier refinement allocates nothing beyond first-use growth
//! (see `gapart_core::dynamic::DynamicSession`). One-shot callers can
//! use the [`refine_fm`] / [`refine_fm_local`] conveniences.

use crate::coarsen::splitmix64;
use crate::csr::CsrGraph;
use crate::partition::Partition;
use crate::refine::{RefineOptions, RefineStats};

/// Sentinel for "no node" in the bucket links.
const NONE: u32 = u32::MAX;

/// A pass aborts after this many consecutive non-progressing moves: long
/// plateaus cost `O(deg²)` per move and rarely pay past this depth
/// (measured on the 320×320 grid bench: 64 keeps ~85% of the cut win of
/// an unbounded tail at a fraction of the move churn). A move *counts*
/// toward the budget only when it neither reaches a new best prefix nor
/// has strictly positive gain — a positive chain climbing back out of a
/// dip is progress and resets the counter, so the budget bounds genuine
/// stalls, not recovery length. The rollback makes the abort safe — the
/// committed prefix is unaffected.
const STALL_LIMIT: usize = 64;

/// Gains outside `±MAX_HALF_RANGE` share the end buckets (ordering among
/// them falls back to insertion order). Keeps the bucket array bounded on
/// graphs with huge weighted degrees.
const MAX_HALF_RANGE: i64 = 1 << 15;

/// Passes stop once a pass gains less than `observed cut / this` — the
/// diminishing-returns cutoff (a pass improving the cut by under ~1.5%
/// is churn, not progress; measured on the 320×320 grid bench this
/// keeps ~90% of the quality win of running every pass at a greedy
/// sweep's wall time). `RefineOptions::max_passes` remains the hard
/// cap.
const CONVERGENCE_DENOM: u64 = 64;

/// Vertex state during a pass.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not in the buckets (internal vertex, or not a candidate).
    Out,
    /// In the buckets, eligible to move.
    Queued,
    /// Moved (or skipped) this pass; ineligible until the next pass.
    Locked,
}

/// One applied move, kept for the rollback.
struct MoveRec {
    node: u32,
    from: u32,
    /// Exact cut reduction of the move (negative = the cut grew).
    gain: i64,
}

/// Reusable boundary-FM engine: owns the gain buckets, degree caches,
/// and scratch vectors, growing them on demand and recycling them across
/// calls. See the [module docs](self) for the algorithm.
pub struct FmRefiner {
    /// Bucket list links, indexed by node.
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Cached best-move gain of each queued vertex (its priority).
    gain: Vec<i64>,
    /// Seeded tie key, computed per call.
    tie: Vec<u64>,
    state: Vec<State>,
    /// Bucket heads, indexed by `gain + half_range`.
    heads: Vec<u32>,
    /// Region membership stamps (`stamp[v] == generation` ⇔ in region).
    stamp: Vec<u64>,
    generation: u64,
    /// Dedup stamps for [`Self::active_list`] construction.
    active: Vec<u64>,
    active_gen: u64,
    /// Candidates of the next pass: only the previous pass's boundary
    /// and the neighbourhood of its moves can be on the new boundary,
    /// so later passes scan this list instead of the whole graph.
    active_list: Vec<u32>,
    /// Nodes whose `state` was touched this pass (for O(touched) reset).
    touched: Vec<u32>,
    /// Nodes a pass moved (committed or rolled back), for the
    /// next-pass active set.
    moved: Vec<u32>,
    /// Fill-scan buffer (the pass's initial boundary), recycled.
    fill: Vec<u32>,
    /// Connectivity scratch: `(part, edge weight into it)`.
    conn: Vec<(u32, u64)>,
    loads: Vec<u64>,
    counts: Vec<usize>,
    log: Vec<MoveRec>,
}

impl Default for FmRefiner {
    fn default() -> Self {
        Self::new()
    }
}

impl FmRefiner {
    /// An empty engine; buffers grow on first use.
    pub fn new() -> Self {
        FmRefiner {
            next: Vec::new(),
            prev: Vec::new(),
            gain: Vec::new(),
            tie: Vec::new(),
            state: Vec::new(),
            heads: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            active: Vec::new(),
            active_gen: 0,
            active_list: Vec::new(),
            touched: Vec::new(),
            moved: Vec::new(),
            fill: Vec::new(),
            conn: Vec::new(),
            loads: Vec::new(),
            counts: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Boundary-FM refinement over the whole graph: every vertex is a
    /// candidate, but only the cut boundary enters the buckets.
    ///
    /// Never increases the cut; the reported `gain` is the exact cut
    /// reduction. A move keeps its destination within the balance cap
    /// and never empties its source part.
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`.
    pub fn refine(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
    ) -> RefineStats {
        self.run(graph, partition, opts, seed, None, None, None)
    }

    /// [`FmRefiner::refine`] with a boundary *hint* and the partition's
    /// per-part `loads` and `counts` — the multilevel fast path.
    ///
    /// `hint` must contain every vertex currently on the cut boundary (it
    /// may contain more — internal vertices are skipped — and duplicates
    /// are tolerated). The first pass then scans only the hint instead of
    /// the whole graph; moves are **not** restricted to it, and the
    /// result is bit-identical to [`FmRefiner::refine`] (asserted in
    /// tests). After projecting a coarse partition, the fine boundary is
    /// exactly the preimage of the coarse boundary (a cut fine edge maps
    /// to a cut coarse edge), so the V-cycle hands that preimage over and
    /// skips the `O(V + E)` boundary discovery on every level.
    ///
    /// The tallies replace a re-tally:
    /// [`crate::coarsen::Coarsening::project_for_fm`] produces hint,
    /// loads and counts in the projection pass itself, so an uncoarsening
    /// level runs zero extra full-vertex scans. The caller owns the
    /// exactness of the tallies (debug-asserted).
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`, or if `hint` contains a node id `≥ graph.num_nodes()`.
    /// A hint that *misses* boundary vertices is not detected — it
    /// merely refines a subset (callers own the superset argument).
    #[allow(clippy::too_many_arguments)]
    pub fn refine_primed(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        hint: &[u32],
        loads: Vec<u64>,
        counts: Vec<usize>,
    ) -> RefineStats {
        if let Some(&max) = hint.iter().max() {
            assert!(
                (max as usize) < graph.num_nodes(),
                "hint node {max} out of range"
            );
        }
        self.run(
            graph,
            partition,
            opts,
            seed,
            None,
            Some(hint),
            Some((loads, counts)),
        )
    }

    /// Localized variant: only vertices in `region` (deduplicated; order
    /// irrelevant) may move. Loads and part populations are still global,
    /// so the balance and never-empty-a-part rules hold for the whole
    /// partition. This is the streaming workhorse: after a mutation
    /// batch only the dirty frontier's buckets are (re)built, so a batch
    /// costs `O(|region| · deg)` plus one `O(V)` load tally — never a
    /// full edge-set rescan.
    ///
    /// # Panics
    ///
    /// Panics if `partition` covers a different number of nodes than
    /// `graph`, or if `region` contains a node id `≥ graph.num_nodes()`.
    pub fn refine_local(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: &[u32],
    ) -> RefineStats {
        let mut nodes: Vec<u32> = region.to_vec();
        nodes.sort_unstable();
        nodes.dedup();
        if let Some(&last) = nodes.last() {
            assert!(
                (last as usize) < graph.num_nodes(),
                "region node {last} out of range"
            );
        }
        self.run(graph, partition, opts, seed, Some(&nodes), None, None)
    }

    /// A superset of the cut boundary the last refine on this workspace
    /// left behind: the final pass's queue plus the neighbourhood of its
    /// moves (empty when the last refine found no boundary at all).
    /// Valid for the graph/partition of that call until the next one.
    ///
    /// The multilevel V-cycle masks this instead of re-scanning the
    /// coarse graph with `boundary_nodes` before each projection —
    /// supersets compose: hints built from it stay supersets of the
    /// fine boundary, so refinement results are unchanged.
    pub fn last_boundary_superset(&self) -> &[u32] {
        &self.active_list
    }

    /// Grows the per-node buffers to cover `n` nodes.
    fn ensure_nodes(&mut self, n: usize) {
        if self.next.len() < n {
            self.next.resize(n, NONE);
            self.prev.resize(n, NONE);
            self.gain.resize(n, 0);
            self.tie.resize(n, 0);
            self.state.resize(n, State::Out);
            self.stamp.resize(n, 0);
            self.active.resize(n, 0);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        opts: &RefineOptions,
        seed: u64,
        region: Option<&[u32]>,
        hint: Option<&[u32]>,
        primed: Option<(Vec<u64>, Vec<usize>)>,
    ) -> RefineStats {
        assert_eq!(graph.num_nodes(), partition.num_nodes());
        let n = graph.num_nodes();
        let n_parts = partition.num_parts() as usize;
        let mut stats = RefineStats { moves: 0, gain: 0 };
        // The boundary superset of the previous call must never leak
        // into this one (no-boundary runs leave it empty — correctly).
        self.active_list.clear();
        if n == 0 || n_parts < 2 {
            return stats;
        }
        self.ensure_nodes(n);

        // Region membership via generation stamps: O(|region|) setup, no
        // O(V) clearing between calls.
        self.generation += 1;
        let generation = self.generation;
        if let Some(nodes) = region {
            for &v in nodes {
                self.stamp[v as usize] = generation;
            }
        }
        let in_region =
            |stamp: &[u64], v: u32| -> bool { region.is_none() || stamp[v as usize] == generation };

        // Global load/population tally — taken from the caller when
        // primed (the fused projection pass already produced it; the
        // loads then also give the total weight, skipping the O(V)
        // re-sum), tallied here otherwise.
        match primed {
            Some((loads, counts)) => {
                debug_assert_eq!(loads.len(), n_parts);
                debug_assert_eq!(counts.len(), n_parts);
                debug_assert_eq!(
                    loads.iter().sum::<u64>(),
                    graph.total_node_weight(),
                    "primed loads do not tally the graph"
                );
                debug_assert_eq!(counts.iter().sum::<usize>(), n, "primed counts mismatch");
                self.loads = loads;
                self.counts = counts;
            }
            None => {
                self.loads.clear();
                self.loads.resize(n_parts, 0);
                self.counts.clear();
                self.counts.resize(n_parts, 0);
                for v in 0..n as u32 {
                    self.loads[partition.part(v) as usize] += graph.node_weight(v) as u64;
                    self.counts[partition.part(v) as usize] += 1;
                }
            }
        }
        let avg = self.loads.iter().sum::<u64>() as f64 / n_parts as f64;
        let max_load = (avg * (1.0 + opts.balance_slack)).ceil() as u64;
        // Diminishing-returns convergence: the first pass observes the
        // boundary cut for free (Σ external weight / 2); once a pass's
        // gain drops below that cut / CONVERGENCE_DENOM, further passes
        // are churn for sub-0.4% improvements and the budget stops
        // early. `max_passes` stays the hard cap.
        let mut observed_cut: u64 = 0;
        for pass_no in 0..opts.max_passes {
            // Scan domain of the pass: the region (local runs) or hint
            // (V-cycle runs) for the first pass — the whole graph when
            // neither is given — and the active list afterwards.
            let first = if pass_no == 0 {
                Some(region.or(hint))
            } else {
                None
            };
            let (kept, gain, boundary_cut) =
                self.pass(graph, partition, first, seed, max_load, &in_region);
            stats.moves += kept;
            stats.gain += gain;
            if pass_no == 0 {
                observed_cut = boundary_cut;
            }
            if kept == 0 || gain * CONVERGENCE_DENOM < observed_cut {
                break;
            }
        }
        stats
    }

    /// One FM pass: fill the buckets from the boundary, chain moves with
    /// hill climbing, roll back to the best prefix. Returns
    /// `(moves kept, exact cut reduction)`.
    ///
    /// The first pass scans every candidate for boundary membership; a
    /// later pass scans only the *active* set stamped by its
    /// predecessor — the previous boundary plus the neighbourhood of
    /// every (committed or rolled-back) move, a superset of everything
    /// whose boundary status can have changed. That keeps steady-state
    /// passes `O(boundary · deg)` instead of `O(V + E)`.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &mut self,
        graph: &CsrGraph,
        partition: &mut Partition,
        first_domain: Option<Option<&[u32]>>,
        seed: u64,
        max_load: u64,
        in_region: &dyn Fn(&[u64], u32) -> bool,
    ) -> (usize, u64, u64) {
        self.log.clear();
        self.touched.clear();
        self.moved.clear();

        // Fill scan: every candidate of the pass's domain currently on
        // the cut boundary, at its best-move gain; seeded tie keys are
        // computed here, only for boundary vertices. The fill is a pure
        // function of the labels — its iteration order never matters
        // (it is re-sorted below), only its membership. The fill buffer
        // lives in the workspace so steady-state passes allocate
        // nothing.
        let mut fill = std::mem::take(&mut self.fill);
        fill.clear();
        // Total external weight of the filled boundary; /2 is the cut
        // the pass starts from (each cut edge is counted by both of its
        // — necessarily boundary — endpoints). Free convergence signal.
        let mut boundary_w: u64 = 0;
        let mut fill_one = |slf: &mut Self, fill: &mut Vec<u32>, v: u32| {
            if let Some((g, ed)) = best_gain(graph, partition, &mut slf.conn, v) {
                slf.gain[v as usize] = g;
                slf.tie[v as usize] = splitmix64(seed ^ (v as u64));
                boundary_w += ed;
                fill.push(v);
            }
        };
        match first_domain {
            Some(Some(nodes)) => {
                // Explicit domains (hints) may carry duplicates — the
                // API only demands a boundary superset. Dedup with the
                // active stamps: a double insert would corrupt the
                // bucket links and double-move the vertex.
                self.active_gen += 1;
                let gen = self.active_gen;
                for &v in nodes {
                    if self.active[v as usize] != gen {
                        self.active[v as usize] = gen;
                        fill_one(self, &mut fill, v);
                    }
                }
            }
            Some(None) => {
                for v in 0..graph.num_nodes() as u32 {
                    fill_one(self, &mut fill, v);
                }
            }
            None => {
                let mut domain = std::mem::take(&mut self.active_list);
                for &v in &domain {
                    fill_one(self, &mut fill, v);
                }
                // Hand the buffer back so the next-active rebuild below
                // reuses its capacity instead of growing from zero.
                domain.clear();
                self.active_list = domain;
            }
        }
        if fill.is_empty() {
            self.fill = fill;
            return (0, 0, 0);
        }
        // The fill's gain spread sizes the bucket array; gains that
        // drift outside it mid-pass share the end buckets (the clamp in
        // `bucket_index` — deterministic, and ordering inside a clamped
        // bucket degrades to insertion order only in that rare case).
        let half_range = fill
            .iter()
            .map(|&v| self.gain[v as usize].unsigned_abs())
            .max()
            .map_or(1, |m| (m as i64).clamp(1, MAX_HALF_RANGE));
        let buckets = (2 * half_range + 1) as usize;
        self.heads.clear();
        self.heads.resize(buckets, NONE);
        let mut max_idx: i64 = -1;

        // Inserting in descending seeded-key order makes each bucket's
        // head (LIFO) the smallest key, so equal-gain pops follow the
        // seeded order.
        fill.sort_unstable_by(|&a, &b| (self.tie[b as usize], b).cmp(&(self.tie[a as usize], a)));
        for &v in &fill {
            let g = self.gain[v as usize];
            bucket_insert(
                &mut self.heads,
                &mut self.next,
                &mut self.prev,
                &mut self.gain,
                &mut max_idx,
                half_range,
                v,
                g,
            );
            self.state[v as usize] = State::Queued;
            self.touched.push(v);
        }
        self.fill = fill;

        // Move loop.
        let mut cut_delta: i64 = 0; // running cut change (negative = better)
        let mut best_delta: i64 = 0;
        let mut best_len: usize = 0;
        let mut stall = 0usize;
        loop {
            // Pop the best-gain queued vertex.
            while max_idx >= 0 && self.heads[max_idx as usize] == NONE {
                max_idx -= 1;
            }
            if max_idx < 0 {
                break;
            }
            let v = self.heads[max_idx as usize];
            bucket_remove(
                &mut self.heads,
                &mut self.next,
                &mut self.prev,
                &self.gain,
                half_range,
                v,
            );
            self.state[v as usize] = State::Locked;

            // Re-derive the move against the live partition: best
            // strictly-feasible target (gain first, then lowest part id).
            let pv = partition.part(v);
            if self.counts[pv as usize] <= 1 {
                continue; // sole occupant: emptying a part is never allowed
            }
            let wv = graph.node_weight(v) as u64;
            let (internal, _) = collect_conn(graph, partition, &mut self.conn, v);
            let mut best: Option<(i64, u32)> = None;
            for &(p, c) in &self.conn {
                if self.loads[p as usize] + wv > max_load {
                    continue;
                }
                let g = c as i64 - internal as i64;
                if best.is_none_or(|(bg, bp)| g > bg || (g == bg && p < bp)) {
                    best = Some((g, p));
                }
            }
            let Some((g, target)) = best else {
                continue; // nothing feasible; stays locked this pass
            };

            // Apply, log, track the best prefix.
            partition.set(v, target);
            self.loads[pv as usize] -= wv;
            self.loads[target as usize] += wv;
            self.counts[pv as usize] -= 1;
            self.counts[target as usize] += 1;
            cut_delta -= g;
            self.moved.push(v);
            self.log.push(MoveRec {
                node: v,
                from: pv,
                gain: g,
            });
            if cut_delta < best_delta {
                best_delta = cut_delta;
                best_len = self.log.len();
                stall = 0;
            } else if g > 0 {
                // A strictly improving move is progress even while the
                // running delta is still repaying an earlier dip; only
                // genuinely non-improving moves spend the stall budget,
                // so a long positive chain climbing out of a valley is
                // never cut short (pinned by
                // `stall_budget_resets_on_positive_gain_chains`).
                stall = 0;
            } else {
                stall += 1;
                if stall >= STALL_LIMIT {
                    break;
                }
            }

            // Refresh the neighbours' cached gains against the live
            // labels: enter the boundary, leave it, or reposition.
            for &u in graph.neighbors(v) {
                if self.state[u as usize] == State::Locked || !in_region(&self.stamp, u) {
                    continue;
                }
                match best_gain(graph, partition, &mut self.conn, u) {
                    Some((g, _)) => {
                        if self.state[u as usize] == State::Queued {
                            if self.gain[u as usize] != g {
                                bucket_remove(
                                    &mut self.heads,
                                    &mut self.next,
                                    &mut self.prev,
                                    &self.gain,
                                    half_range,
                                    u,
                                );
                                bucket_insert(
                                    &mut self.heads,
                                    &mut self.next,
                                    &mut self.prev,
                                    &mut self.gain,
                                    &mut max_idx,
                                    half_range,
                                    u,
                                    g,
                                );
                            }
                        } else {
                            bucket_insert(
                                &mut self.heads,
                                &mut self.next,
                                &mut self.prev,
                                &mut self.gain,
                                &mut max_idx,
                                half_range,
                                u,
                                g,
                            );
                            self.state[u as usize] = State::Queued;
                            self.touched.push(u);
                        }
                    }
                    None => {
                        if self.state[u as usize] == State::Queued {
                            bucket_remove(
                                &mut self.heads,
                                &mut self.next,
                                &mut self.prev,
                                &self.gain,
                                half_range,
                                u,
                            );
                            self.state[u as usize] = State::Out;
                        }
                    }
                }
            }
        }

        // Roll back past the best prefix (in reverse, restoring loads and
        // populations exactly).
        for rec in self.log.drain(best_len..).rev() {
            let wv = graph.node_weight(rec.node) as u64;
            let to = partition.part(rec.node);
            partition.set(rec.node, rec.from);
            self.loads[to as usize] -= wv;
            self.loads[rec.from as usize] += wv;
            self.counts[to as usize] -= 1;
            self.counts[rec.from as usize] += 1;
        }
        debug_assert_eq!(
            -best_delta,
            self.log.iter().map(|r| r.gain).sum::<i64>(),
            "kept prefix gain must equal the best running delta"
        );
        for &v in &self.touched {
            self.state[v as usize] = State::Out;
        }

        // Collect the next pass's candidates: everything queued this
        // pass plus the (in-region) neighbourhood of every label change
        // — committed or rolled back — a superset of any vertex whose
        // boundary status can differ next pass. The stamps only dedup.
        self.active_gen += 1;
        let gen = self.active_gen;
        self.active_list.clear();
        for i in 0..self.touched.len() {
            let v = self.touched[i];
            if self.active[v as usize] != gen {
                self.active[v as usize] = gen;
                self.active_list.push(v);
            }
        }
        for i in 0..self.moved.len() {
            let v = self.moved[i];
            for &u in graph.neighbors(v) {
                if self.active[u as usize] != gen && in_region(&self.stamp, u) {
                    self.active[u as usize] = gen;
                    self.active_list.push(u);
                }
            }
        }
        (best_len, (-best_delta) as u64, boundary_w / 2)
    }
}

/// Accumulates `v`'s connectivity per foreign part into `conn` (cleared
/// first) and returns `(internal, external)` weighted degrees against
/// the live partition — the one neighbour scan both the bucket priority
/// and the move re-derivation are built from, so the gain model lives
/// in exactly one place.
fn collect_conn(
    graph: &CsrGraph,
    partition: &Partition,
    conn: &mut Vec<(u32, u64)>,
    v: u32,
) -> (u64, u64) {
    let pv = partition.part(v);
    conn.clear();
    let mut internal: u64 = 0;
    let mut external: u64 = 0;
    for (&u, &w) in graph.neighbors(v).iter().zip(graph.edge_weights(v)) {
        let pu = partition.part(u);
        if pu == pv {
            internal += w as u64;
        } else {
            external += w as u64;
            match conn.iter_mut().find(|(p, _)| *p == pu) {
                Some((_, c)) => *c += w as u64,
                None => conn.push((pu, w as u64)),
            }
        }
    }
    (internal, external)
}

/// Best unconstrained move gain of `v` against the live partition plus
/// its total external weight (`ed`), or `None` when `v` is not on the
/// cut boundary (no external edges). The gain — connectivity to the
/// best adjacent part minus the internal degree — is the bucket
/// priority; `ed` feeds the pass's free cut observation.
fn best_gain(
    graph: &CsrGraph,
    partition: &Partition,
    conn: &mut Vec<(u32, u64)>,
    v: u32,
) -> Option<(i64, u64)> {
    let (internal, external) = collect_conn(graph, partition, conn, v);
    conn.iter()
        .map(|&(_, c)| c as i64 - internal as i64)
        .max()
        .map(|g| (g, external))
}

/// Maps a gain to its bucket index, clamping into the end buckets.
#[inline]
fn bucket_index(gain: i64, half_range: i64) -> usize {
    (gain.clamp(-half_range, half_range) + half_range) as usize
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn bucket_insert(
    heads: &mut [u32],
    next: &mut [u32],
    prev: &mut [u32],
    gains: &mut [i64],
    max_idx: &mut i64,
    half_range: i64,
    v: u32,
    gain: i64,
) {
    gains[v as usize] = gain;
    let idx = bucket_index(gain, half_range);
    let head = heads[idx];
    next[v as usize] = head;
    prev[v as usize] = NONE;
    if head != NONE {
        prev[head as usize] = v;
    }
    heads[idx] = v;
    *max_idx = (*max_idx).max(idx as i64);
}

#[inline]
fn bucket_remove(
    heads: &mut [u32],
    next: &mut [u32],
    prev: &mut [u32],
    gains: &[i64],
    half_range: i64,
    v: u32,
) {
    let idx = bucket_index(gains[v as usize], half_range);
    let (p, nx) = (prev[v as usize], next[v as usize]);
    if p == NONE {
        heads[idx] = nx;
    } else {
        next[p as usize] = nx;
    }
    if nx != NONE {
        prev[nx as usize] = p;
    }
    next[v as usize] = NONE;
    prev[v as usize] = NONE;
}

/// One-shot [`FmRefiner::refine`] with a fresh workspace.
pub fn refine_fm(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    seed: u64,
) -> RefineStats {
    FmRefiner::new().refine(graph, partition, opts, seed)
}

/// One-shot [`FmRefiner::refine_local`] with a fresh workspace.
pub fn refine_fm_local(
    graph: &CsrGraph,
    partition: &mut Partition,
    opts: &RefineOptions,
    seed: u64,
    region: &[u32],
) -> RefineStats {
    FmRefiner::new().refine_local(graph, partition, opts, seed, region)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::generators::paper_graph;
    use crate::partition::{cut_size, PartitionMetrics};

    const SEED: u64 = 0x464d; // "FM"

    fn opts(balance_slack: f64, max_passes: usize) -> RefineOptions {
        RefineOptions {
            balance_slack,
            max_passes,
        }
    }

    fn random_partition(n: usize, parts: u32, seed: u64) -> Partition {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        Partition::new((0..n).map(|_| rng.gen_range(0..parts)).collect(), parts).unwrap()
    }

    #[test]
    fn fixes_an_obviously_misplaced_vertex() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut p = Partition::new(vec![1, 0, 1, 1], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(0.6, 4), SEED);
        let after = cut_size(&g, &p);
        assert!(after < before, "no improvement: {before} -> {after}");
        assert_eq!((before - after) as u64, stats.gain);
    }

    #[test]
    fn never_increases_cut_and_gain_is_exact() {
        let g = paper_graph(139);
        for seed in 0..5u64 {
            let mut p = random_partition(139, 4, seed);
            let before = cut_size(&g, &p);
            let stats = refine_fm(&g, &mut p, &opts(0.1, 8), SEED ^ seed);
            let after = cut_size(&g, &p);
            assert!(after <= before, "cut increased {before} -> {after}");
            assert_eq!(before - after, stats.gain, "reported gain is not exact");
        }
    }

    #[test]
    fn respects_balance_slack() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 9);
        refine_fm(&g, &mut p, &opts(0.05, 8), SEED);
        let m = PartitionMetrics::compute(&g, &p);
        let cap = (m.avg_load * 1.05).ceil() as u64;
        for &l in &m.part_loads {
            assert!(l <= cap, "load {l} exceeds cap {cap}");
        }
    }

    #[test]
    fn deterministic_and_workspace_reuse_is_clean() {
        let g = paper_graph(167);
        let mut engine = FmRefiner::new();
        for seed in 0..3u64 {
            let base = random_partition(167, 6, seed);
            // Fresh engine vs engine reused across differing graph calls.
            let mut a = base.clone();
            let sa = refine_fm(&g, &mut a, &opts(0.1, 6), SEED);
            let mut b = base.clone();
            let sb = engine.refine(&g, &mut b, &opts(0.1, 6), SEED);
            assert_eq!(a, b, "reused workspace diverged from fresh engine");
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn different_seeds_may_tie_break_differently_but_never_regress() {
        let g = paper_graph(98);
        let base = random_partition(98, 8, 4);
        let before = cut_size(&g, &base);
        for seed in 0..4u64 {
            let mut p = base.clone();
            let stats = refine_fm(&g, &mut p, &opts(0.2, 10), seed);
            assert_eq!(before - cut_size(&g, &p), stats.gain);
        }
    }

    #[test]
    fn hinted_refine_is_bit_identical_to_full_refine() {
        // Any superset of the boundary — here the exact boundary, a
        // padded superset, and a shuffled one — must reproduce the
        // unhinted engine bit for bit: the hint only narrows the first
        // scan, never the behaviour.
        use crate::partition::boundary_nodes;
        let g = paper_graph(213);
        for seed in 0..3u64 {
            let base = random_partition(213, 4, seed);
            let mut full = base.clone();
            let sf = refine_fm(&g, &mut full, &opts(0.1, 6), SEED);

            let boundary = boundary_nodes(&g, &base);
            let mut padded = boundary.clone();
            padded.extend((0..40u32).filter(|v| !boundary.contains(v)));
            padded.reverse();
            // Duplicates are allowed by the hint contract and must not
            // corrupt the bucket links or double-move a vertex.
            let mut duplicated = boundary.clone();
            duplicated.extend_from_slice(&boundary);
            duplicated.push(boundary[0]);
            let loads = PartitionMetrics::compute(&g, &base).part_loads;
            let counts = base.part_sizes();
            for hint in [&boundary, &padded, &duplicated] {
                let mut hinted = base.clone();
                let sh = FmRefiner::new().refine_primed(
                    &g,
                    &mut hinted,
                    &opts(0.1, 6),
                    SEED,
                    hint,
                    loads.clone(),
                    counts.clone(),
                );
                assert_eq!(full, hinted, "hinted run diverged (seed {seed})");
                assert_eq!(sf, sh);
            }
        }
    }

    #[test]
    fn local_region_only_moves_region_nodes() {
        let g = paper_graph(144);
        let mut p = random_partition(144, 4, 5);
        let before = p.clone();
        let region: Vec<u32> = (40..80u32).collect();
        let stats = refine_fm_local(&g, &mut p, &opts(0.2, 6), SEED, &region);
        for v in 0..144u32 {
            if !region.contains(&v) {
                assert_eq!(p.part(v), before.part(v), "non-region node {v} moved");
            }
        }
        assert!(stats.moves > 0);
        assert!(cut_size(&g, &p) <= cut_size(&g, &before));
    }

    #[test]
    fn local_region_is_order_insensitive_and_dedups() {
        let g = paper_graph(98);
        let mut a = random_partition(98, 4, 8);
        let mut b = a.clone();
        let fwd: Vec<u32> = (10..50u32).collect();
        let mut rev: Vec<u32> = fwd.iter().rev().copied().collect();
        rev.extend_from_slice(&fwd); // duplicates too
        let sa = refine_fm_local(&g, &mut a, &opts(0.2, 6), SEED, &fwd);
        let sb = refine_fm_local(&g, &mut b, &opts(0.2, 6), SEED, &rev);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn degenerate_inputs_are_no_ops() {
        let g = paper_graph(78);
        let mut p = random_partition(78, 4, 1);
        let before = p.clone();
        let stats = refine_fm_local(&g, &mut p, &opts(0.1, 4), SEED, &[]);
        assert_eq!(stats, RefineStats { moves: 0, gain: 0 });
        assert_eq!(p, before);
        // Single part: no external edges can exist.
        let mut single = Partition::all_zero(78, 1);
        let stats = refine_fm(&g, &mut single, &opts(0.1, 4), SEED);
        assert_eq!(stats.moves, 0);
        // Edgeless graph: no boundary.
        let e = crate::builder::GraphBuilder::with_nodes(12)
            .build()
            .unwrap();
        let mut p = Partition::round_robin(12, 3);
        let stats = refine_fm(&e, &mut p, &opts(0.1, 4), SEED);
        assert_eq!(stats, RefineStats { moves: 0, gain: 0 });
    }

    #[test]
    fn weighted_edges_use_exact_weighted_gains() {
        // 0-1 heavy edge split across parts; the move must report the
        // weighted gain exactly.
        let g = crate::builder::GraphBuilder::with_nodes(4)
            .weighted_edge(0, 1, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(2, 3, 1)
            .build()
            .unwrap();
        let mut p = Partition::new(vec![0, 1, 1, 0], 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(1.0, 4), SEED);
        assert_eq!(before - cut_size(&g, &p), stats.gain);
        assert_eq!(p.part(0), p.part(1), "heavy edge left cut");
    }

    #[test]
    fn stall_budget_resets_on_positive_gain_chains() {
        // A weighted path whose optimum is reachable only through one
        // cut-worsening move followed by a 110-move chain of +1 gains:
        // p_111 moves first at gain −100, then each of p_110 .. p_1
        // follows at +1, for a net gain of +10. A stall budget charged
        // per *move* (the old bug) aborts the pass 64 moves in — still
        // 37 short of repaying the dip — and rolls everything back; the
        // budget must instead reset on every strictly-positive-gain
        // move so the chain completes.
        const M: usize = 112; // path nodes p_0..p_M, plus the anchor z
        const B: u32 = 200;
        const D: u32 = 100;
        let mut b = crate::builder::GraphBuilder::with_nodes(M + 2);
        for i in 0..M - 1 {
            b = b.weighted_edge(i as u32, i as u32 + 1, B + i as u32);
        }
        // The last path edge is light enough that moving p_{M-1} costs
        // exactly D; the heavy anchor edge pins p_M in part 1.
        let w_last = B + (M as u32 - 2) - D;
        b = b.weighted_edge(M as u32 - 1, M as u32, w_last);
        b = b.weighted_edge(M as u32, M as u32 + 1, D + w_last + 1000);
        let g = b.build().unwrap();
        let mut labels = vec![0u32; M + 2];
        labels[M] = 1;
        labels[M + 1] = 1;
        let mut p = Partition::new(labels, 2).unwrap();
        let before = cut_size(&g, &p);
        let stats = refine_fm(&g, &mut p, &opts(2.0, 4), SEED);
        assert_eq!(
            stats.moves,
            M - 1,
            "the positive chain was cut short (stall budget mischarged)"
        );
        assert_eq!(stats.gain, M as u64 - 2 - D as u64);
        assert_eq!(before - cut_size(&g, &p), stats.gain);
    }
}
