//! One managed session: a [`DynamicSession`] plus its tape.
//!
//! The daemon owns many of these, one per tenant graph. All durability
//! runs through here: a committed batch is written to the tape *after*
//! it applied (so the tape only ever contains applied batches), and
//! snapshots checkpoint the full `(graph, partition, state)` triple at
//! a configurable cadence so recovery replays a bounded tail.
//!
//! The determinism contract: [`ManagedSession::recover`] restores the
//! snapshot with [`SessionSpec::resume`] — which re-aligns the batch
//! counter feeding per-batch sub-seeds — then replays the tape's tail
//! batches. The result is bit-identical to the uninterrupted live run,
//! at any thread count (pinned by this crate's recovery proptests and
//! the process-level kill test in the workspace `tests/`).

use gapart_core::dynamic::{
    BatchRecord, DynamicSession, MethodResolver, SessionSpec, SessionState,
};
use gapart_graph::dynamic::wire;
use gapart_graph::dynamic::Mutation;
use gapart_graph::io::{
    attach_coords, coords_from_text, coords_to_text, from_metis, to_metis, write_coords,
};
use gapart_graph::partition::{hash_labels, Partition};
use gapart_graph::CsrGraph;
use std::path::Path;

use crate::tape::{scan_tape, LiveSnapshot, Record, Snapshot, TapeWriter};
use crate::ServeError;

/// A live named session: the dynamic-repartitioning engine (which
/// carries its spec), its tape, and the not-yet-committed mutation
/// buffer.
#[derive(Debug)]
pub struct ManagedSession {
    inner: DynamicSession,
    /// The graph's coordinate text ([`coords_to_text`] of its
    /// coordinates), when it has coordinates. No mutation moves or
    /// removes a node, so the text only grows: each applied batch
    /// appends the lines of the nodes it added, and a snapshot copies
    /// the text instead of formatting every coordinate again.
    coords_text: Option<String>,
    tape: TapeWriter,
    pending: Vec<Mutation>,
    /// `batches` value at the last snapshot on the tape (or 0 when only
    /// the open record exists) — drives the snapshot cadence.
    last_snapshot: usize,
}

fn parse_labels(text: &str, parts: u32) -> Result<Partition, ServeError> {
    let labels = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| ServeError::State("snapshot labels are not numbers".into()))?;
    Partition::new(labels, parts).map_err(|e| ServeError::State(format!("snapshot labels: {e}")))
}

fn restore_graph(metis: &str, coords: Option<&str>) -> Result<CsrGraph, ServeError> {
    let g = from_metis(metis).map_err(|e| ServeError::State(format!("tape graph: {e}")))?;
    match coords {
        None => Ok(g),
        Some(text) => {
            let coords = coords_from_text(text)
                .map_err(|e| ServeError::State(format!("tape coords: {e}")))?;
            attach_coords(&g, coords).map_err(|e| ServeError::State(format!("tape coords: {e}")))
        }
    }
}

/// Applies one batch to `inner` and appends the coordinate lines of the
/// nodes it added to `coords_text`.
fn absorb(
    inner: &mut DynamicSession,
    coords_text: &mut Option<String>,
    batch: &[Mutation],
) -> Result<BatchRecord, ServeError> {
    let before = inner.graph().num_nodes();
    let record = inner.apply_batch(batch).map_err(ServeError::Session)?;
    if let (Some(text), Some(coords)) = (coords_text.as_mut(), inner.graph().coords()) {
        write_coords(text, coords.get(before..).unwrap_or_default());
    }
    Ok(record)
}

impl ManagedSession {
    /// Opens a brand-new session: full solve on `graph`, fresh tape at
    /// `tape_path` whose first record persists the spec and the graph.
    pub fn open(
        spec: SessionSpec,
        graph: CsrGraph,
        tape_path: &Path,
        resolver: MethodResolver,
    ) -> Result<Self, ServeError> {
        let metis = to_metis(&graph);
        let coords_text = graph.coords().map(coords_to_text);
        let inner = spec.open(graph, resolver).map_err(ServeError::Session)?;
        let mut tape = TapeWriter::create(tape_path)?;
        tape.append(&Record::Open {
            spec: spec.to_kv(),
            metis,
            coords: coords_text.clone(),
        })?;
        Ok(ManagedSession {
            inner,
            coords_text,
            tape,
            pending: Vec::new(),
            last_snapshot: 0,
        })
    }

    /// Recovers a session from its tape: load the latest snapshot (or
    /// the open record's initial graph), then replay every batch record
    /// past it. Returns the session and how many tail batches were
    /// replayed.
    ///
    /// The tape is read one line at a time. Only the spec, the latest
    /// restore point (the open record, then each snapshot in turn) and
    /// the batch records after it are kept, so recovery needs memory for
    /// one checkpoint and its tail, not for the whole tape.
    pub fn recover(
        tape_path: &Path,
        resolver: MethodResolver,
    ) -> Result<(Self, usize), ServeError> {
        let mut spec_text: Option<String> = None;
        // The open record's graph, dropped once a snapshot supersedes it.
        let mut base: Option<(String, Option<String>)> = None;
        let mut snapshot: Option<Snapshot> = None;
        let mut tail: Vec<(usize, String)> = Vec::new();
        scan_tape(tape_path, |record| {
            match record {
                Record::Open {
                    spec,
                    metis,
                    coords,
                } if spec_text.is_none() => {
                    spec_text = Some(spec);
                    base = Some((metis, coords));
                }
                Record::Open { .. } => {
                    return Err(ServeError::State("second open record on tape".into()))
                }
                Record::Snapshot(s) => {
                    tail.clear();
                    base = None;
                    snapshot = Some(s);
                }
                Record::Batch { seq, muts } => tail.push((seq, muts)),
                Record::Close { .. } => {}
            }
            Ok(())
        })?;
        // scan_tape visits records only when the first is an open.
        let Some(spec_text) = spec_text else {
            return Err(ServeError::State("tape has no open record".into()));
        };
        let spec = SessionSpec::parse_kv(&spec_text).map_err(ServeError::Spec)?;

        let (mut inner, mut coords_text, last_snapshot) = match (snapshot, base) {
            (Some(s), _) => {
                let graph = restore_graph(&s.metis, s.coords.as_deref())?;
                let partition = parse_labels(&s.labels, spec.parts)?;
                let state = SessionState {
                    batches: s.batches,
                    epoch: s.epoch,
                    baseline_cut: s.baseline_cut,
                    current_cut: s.cut,
                };
                let inner = spec
                    .resume(graph, partition, state, resolver)
                    .map_err(ServeError::Session)?;
                (inner, s.coords, s.batches)
            }
            // No snapshot yet: redo the deterministic opening solve.
            (None, Some((metis, coords))) => {
                let graph = restore_graph(&metis, coords.as_deref())?;
                let inner = spec.open(graph, resolver).map_err(ServeError::Session)?;
                (inner, coords, 0)
            }
            (None, None) => return Err(ServeError::State("tape has no open record".into())),
        };

        // Replay the tail. Batches at or before the snapshot's counter
        // are already part of the restored state; past it, sequence
        // numbers must run contiguously.
        let mut replayed = 0usize;
        for (seq, muts) in tail {
            let at = inner.state().batches;
            if seq < at {
                continue;
            }
            if seq > at {
                return Err(ServeError::State(format!(
                    "tape gap: expected batch {at}, found {seq}"
                )));
            }
            let batch = wire::parse_batch(&muts)
                .map_err(|e| ServeError::State(format!("tape batch {seq}: {e}")))?;
            absorb(&mut inner, &mut coords_text, &batch)?;
            replayed += 1;
        }

        let tape = TapeWriter::append_to(tape_path)?;
        Ok((
            ManagedSession {
                inner,
                coords_text,
                tape,
                pending: Vec::new(),
                last_snapshot,
            },
            replayed,
        ))
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        self.inner.spec()
    }

    /// The underlying dynamic session.
    pub fn inner(&self) -> &DynamicSession {
        &self.inner
    }

    /// The graph's coordinate text as the next snapshot will write it:
    /// always [`coords_to_text`] of the graph's coordinates, `None` when
    /// the graph has none.
    pub fn coords_text(&self) -> Option<&str> {
        self.coords_text.as_deref()
    }

    /// Number of buffered, not-yet-committed mutations.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Buffers one mutation for the next commit. For an `AddNode`,
    /// returns the node id it will receive (ids are assigned in stream
    /// order, so the id is already determined at buffer time).
    pub fn push_mutation(&mut self, m: Mutation) -> Option<u32> {
        let id = match m {
            Mutation::AddNode { .. } => {
                let prior_adds = self
                    .pending
                    .iter()
                    .filter(|p| matches!(p, Mutation::AddNode { .. }))
                    .count();
                u32::try_from(self.inner.graph().num_nodes() + prior_adds).ok()
            }
            _ => None,
        };
        self.pending.push(m);
        id
    }

    /// Commits the buffered mutations as one batch: apply, then append
    /// the batch record, then snapshot if the cadence says so. A failed
    /// apply discards the buffer (the daemon stays consistent; the
    /// client is told via the error).
    pub fn commit(&mut self, snapshot_every: usize) -> Result<BatchRecord, ServeError> {
        let batch = std::mem::take(&mut self.pending);
        let seq = self.inner.state().batches;
        let record = absorb(&mut self.inner, &mut self.coords_text, &batch)?;
        self.tape.append(&Record::Batch {
            seq,
            muts: wire::format_batch(&batch),
        })?;
        if snapshot_every > 0 && self.inner.state().batches - self.last_snapshot >= snapshot_every {
            self.snapshot()?;
        }
        Ok(record)
    }

    /// Replays `batches` (e.g. a parsed trace) through the session,
    /// committing each as its own tape batch. Batches before `from` are
    /// skipped — the recovery idiom is `from = state().batches`.
    pub fn replay(
        &mut self,
        batches: &[Vec<Mutation>],
        from: usize,
        snapshot_every: usize,
    ) -> Result<usize, ServeError> {
        let mut applied = 0usize;
        for batch in batches.iter().skip(from) {
            self.pending.clone_from(batch);
            self.commit(snapshot_every)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Appends a full checkpoint to the tape, rendered straight from the
    /// live session.
    pub fn snapshot(&mut self) -> Result<(), ServeError> {
        let state = self.inner.state();
        self.tape.append_snapshot(&LiveSnapshot {
            state,
            labels: self.inner.partition().labels(),
            graph: self.inner.graph(),
            coords: self.coords_text.as_deref(),
        })?;
        self.last_snapshot = state.batches;
        Ok(())
    }

    /// Final snapshot plus a close marker; consumes the session.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.snapshot()?;
        let seq = self.inner.state().batches;
        self.tape.append(&Record::Close { seq })
    }

    /// The determinism witness for the current partition.
    pub fn labels_hash(&self) -> String {
        hash_labels(self.inner.partition().labels())
    }
}
