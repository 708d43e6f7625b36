//! Crash-recovery determinism: a tape truncated at *any* batch
//! boundary (with an optionally torn final line) recovers and, after
//! replaying the remaining batches, lands on a labelling bit-identical
//! to the uninterrupted run — under 1/2/4/8-thread pools alike.
//!
//! This is the serve-layer extension of the workspace determinism
//! matrix: the tape + `SessionSpec::resume` path must preserve the
//! batch counter that feeds per-batch sub-seeds, or the replayed tail
//! diverges silently.

use gapart_core::dynamic::SessionSpec;
use gapart_core::engine::GaConfig;
use gapart_core::partitioner_impl::GaPartitioner;
use gapart_graph::dynamic::scenario::{generate, Scenario, TraceSpec};
use gapart_graph::dynamic::Mutation;
use gapart_graph::generators::jittered_mesh;
use gapart_graph::io::{coords_to_text, from_metis, to_metis};
use gapart_graph::multilevel::MultilevelPartitioner;
use gapart_graph::{CsrGraph, Partitioner};
use gapart_serve::session::ManagedSession;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn resolve(name: &str) -> Option<Box<dyn Partitioner>> {
    (name == "mlga").then(|| {
        Box::new(MultilevelPartitioner::new(
            "mlga",
            Box::new(GaPartitioner::new(GaConfig::coarse_defaults(4))),
        )) as Box<dyn Partitioner>
    })
}

/// The test graph: a mesh with its coordinates stripped (the wire/tape
/// path for coordinate-free graphs; `AddNode` then needs no position).
fn base_graph() -> CsrGraph {
    from_metis(&to_metis(&jittered_mesh(90, 17))).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gapart-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Raw op tuples → valid mutations against the evolving node count.
fn concretize(raw: &[Vec<(u32, u32, u32, u32)>], start_nodes: usize) -> Vec<Vec<Mutation>> {
    let mut nodes = start_nodes as u32;
    raw.iter()
        .map(|batch| {
            batch
                .iter()
                .map(|&(tag, a, b, w)| match tag {
                    0 => {
                        nodes += 1;
                        Mutation::AddNode {
                            weight: w,
                            pos: None,
                        }
                    }
                    1 => {
                        let u = a % nodes;
                        let mut v = b % nodes;
                        if u == v {
                            v = (v + 1) % nodes;
                        }
                        Mutation::AddEdge { u, v, weight: w }
                    }
                    _ => Mutation::SetNodeWeight {
                        node: a % nodes,
                        weight: w,
                    },
                })
                .collect()
        })
        .collect()
}

/// Keeps the tape's line prefix up to and including the `keep`-th batch
/// record, then (optionally) appends the first half of the next line as
/// a torn tail.
fn truncate_tape(full: &str, keep: usize, tear: bool) -> String {
    let mut out = String::new();
    let mut batches = 0usize;
    let mut lines = full.lines();
    for line in lines.by_ref() {
        if line.starts_with("{\"t\":\"batch\"") {
            if batches == keep {
                if tear && line.len() > 2 {
                    out.push_str(&line[..line.len() / 2]);
                }
                return out;
            }
            batches += 1;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

fn arb_batches() -> impl Strategy<Value = Vec<Vec<(u32, u32, u32, u32)>>> {
    vec(
        vec((0u32..3, any::<u32>(), any::<u32>(), 1u32..50), 0..6),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn truncated_tape_recovers_bit_identically(
        raw in arb_batches(),
        cut_pick in any::<u32>(),
        tear in any::<bool>(),
    ) {
        let dir = temp_dir("prop");
        let graph = base_graph();
        let batches = concretize(&raw, graph.num_nodes());
        let total = batches.len();
        let spec = SessionSpec::parse_kv("parts=4 seed=11").unwrap();

        // Uninterrupted reference run (snapshots every 2 batches so
        // truncation points land both before and after checkpoints).
        let ref_tape = dir.join("reference.tape");
        let mut reference =
            ManagedSession::open(spec.clone(), graph.clone(), &ref_tape, resolve).unwrap();
        reference.replay(&batches, 0, 2).unwrap();
        let want_hash = reference.labels_hash();
        let full_tape = std::fs::read_to_string(&ref_tape).unwrap();

        // Crash at an arbitrary batch boundary, then recover + continue
        // under every thread count in the determinism matrix.
        let keep = (cut_pick as usize) % (total + 1);
        let truncated = truncate_tape(&full_tape, keep, tear);
        for threads in [1usize, 2, 4, 8] {
            let tape = dir.join(format!("crash-{threads}.tape"));
            std::fs::write(&tape, &truncated).unwrap();
            let hash = pool(threads).install(|| {
                let (mut session, replayed) =
                    ManagedSession::recover(&tape, resolve).unwrap();
                // Everything still on the tape was re-applied.
                prop_assert_eq!(session.inner().state().batches, keep);
                prop_assert!(replayed <= keep);
                let applied = session.replay(&batches, keep, 2).unwrap();
                prop_assert_eq!(applied, total - keep);
                prop_assert_eq!(session.inner().state().batches, total);
                Ok(session.labels_hash())
            })?;
            prop_assert!(
                hash == want_hash,
                "diverged at {} threads (keep={}): {} != {}",
                threads,
                keep,
                hash,
                want_hash
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The continued run's tape is itself recoverable: crash, recover,
/// continue, crash again, recover again — still the reference hash.
#[test]
fn double_crash_still_converges() {
    let dir = temp_dir("double");
    let graph = base_graph();
    let raw: Vec<Vec<(u32, u32, u32, u32)>> = (0..6u32)
        .map(|b| {
            (0..4u32)
                .map(|i| (i % 3, b * 31 + i, i * 17 + 5, 1 + i))
                .collect()
        })
        .collect();
    let batches = concretize(&raw, graph.num_nodes());
    let spec = SessionSpec::parse_kv("parts=4 seed=11").unwrap();

    let ref_tape = dir.join("reference.tape");
    let mut reference =
        ManagedSession::open(spec.clone(), graph.clone(), &ref_tape, resolve).unwrap();
    reference.replay(&batches, 0, 2).unwrap();
    let want = reference.labels_hash();
    let full = std::fs::read_to_string(&ref_tape).unwrap();

    let tape = dir.join("crash.tape");
    std::fs::write(&tape, truncate_tape(&full, 2, true)).unwrap();
    {
        let (mut s, _) = ManagedSession::recover(&tape, resolve).unwrap();
        s.replay(&batches[..4], 2, 2).unwrap(); // continue partway...
                                                // ...and "crash" again by dropping without close.
    }
    let (mut s, _) = ManagedSession::recover(&tape, resolve).unwrap();
    assert_eq!(s.inner().state().batches, 4);
    s.replay(&batches, 4, 2).unwrap();
    assert_eq!(s.labels_hash(), want);
    std::fs::remove_dir_all(&dir).ok();
}

/// A tape whose open record names a retired refiner (the parallel FM
/// `pfm`, `sweep`, or the `pfm-rescan` reference mode) no longer
/// recovers: `open` replies `err spec`, and the daemon keeps serving
/// every other session.
#[test]
fn tapes_naming_a_retired_refiner_fail_cleanly() {
    use gapart_serve::{Daemon, ServeConfig};
    const RETIRED: [&str; 3] = ["pfm", "sweep", "pfm-rescan"];
    let dir = temp_dir("retired");
    let spec = SessionSpec::parse_kv("parts=4 seed=11 refine=fm").unwrap();
    let live = dir.join("live.tape");
    drop(ManagedSession::open(spec, base_graph(), &live, resolve).unwrap());
    let text = std::fs::read_to_string(&live).unwrap();
    assert!(text.contains(" refine=fm "), "{text}");
    for retired in RETIRED {
        let forged = text.replace(" refine=fm ", &format!(" refine={retired} "));
        std::fs::write(dir.join(format!("{retired}.tape")), forged).unwrap();
    }

    let mut d = Daemon::new(ServeConfig::new(&dir), resolve).unwrap();
    for retired in RETIRED {
        let (reply, errored, _) = d.execute(&format!("open {retired}"));
        assert!(errored, "{reply}");
        assert!(reply.starts_with("err spec"), "{reply}");
        assert!(reply.contains(&format!("'{retired}'")), "{reply}");
    }
    let (reply, errored, _) = d.execute("open live");
    assert!(!errored, "{reply}");
    assert_eq!(d.execute("sessions").0, "ok sessions=1 names=live");
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The session's cached coordinate text is what formatting every
/// coordinate of its graph again gives.
fn assert_coords_cached(session: &ManagedSession, context: &str) {
    let graph = session.inner().graph();
    let want = graph.coords().map(coords_to_text);
    assert!(
        want.is_some(),
        "{context}: the pinned graph carries coordinates"
    );
    assert_eq!(session.coords_text(), want.as_deref(), "{context}");
}

/// The pinned session: a jittered mesh with coordinates grown by a
/// mesh-growth trace, a snapshot every 2 batches, then `close`. Checks
/// the coordinate cache after every commit.
fn run_pinned_session(tape: &Path) -> Vec<Vec<Mutation>> {
    let mesh = jittered_mesh(150, 23);
    let spec = TraceSpec {
        batches: 7,
        ops_per_batch: 5,
        seed: 3,
    };
    let trace = generate(&mesh, Scenario::MeshGrowth, &spec).unwrap();
    let spec = SessionSpec::parse_kv("parts=4 seed=11").unwrap();
    let mut session = ManagedSession::open(spec, mesh, tape, resolve).unwrap();
    assert_coords_cached(&session, "after open");
    for (i, batch) in trace.iter().enumerate() {
        for m in batch {
            session.push_mutation(m.clone());
        }
        session.commit(2).unwrap();
        assert_coords_cached(&session, &format!("after commit {i}"));
    }
    session.close().unwrap();
    trace
}

/// The tape's bytes are pinned: the snapshot writer renders from live
/// session state and the coordinate text is cached, and neither may
/// change a byte of what the formatting writer produced. The value was
/// recorded with that writer, and re-recorded when the coarsening
/// matcher's rating moved the session's `mlga` labels (same length:
/// only label digits changed); `tests/tape_bytes.rs` checks the writer
/// against the formatting oracles on every live snapshot.
#[test]
fn pinned_session_writes_the_recorded_tape_bytes() {
    const PINNED_TAPE: u64 = 0xd626_4a63_36c1_74ec;
    let dir = temp_dir("pinned");
    let tape = dir.join("pinned.tape");
    run_pinned_session(&tape);
    let bytes = std::fs::read(&tape).unwrap();
    assert_eq!(bytes.len(), 55_017);
    assert_eq!(fnv1a(&bytes), PINNED_TAPE);
    std::fs::remove_dir_all(&dir).ok();
}

/// Every recovery path seeds the coordinate cache with the text the
/// graph's coordinates format to: from a snapshot, from the open record
/// alone, and from a torn tape; replayed batches extend it.
#[test]
fn recovery_restores_the_coordinate_cache() {
    let dir = temp_dir("coords");
    let full_tape = dir.join("full.tape");
    let trace = run_pinned_session(&full_tape);
    let full = std::fs::read_to_string(&full_tape).unwrap();

    // (kept batches, torn tail): from the open record alone (0 batches,
    // and 1 batch before the first snapshot), from a snapshot plus a
    // tail, from the final snapshot, and torn variants of each.
    for (keep, tear) in [
        (0, false),
        (1, false),
        (3, false),
        (7, false),
        (1, true),
        (5, true),
    ] {
        let tape = dir.join(format!("crash-{keep}-{tear}.tape"));
        std::fs::write(&tape, truncate_tape(&full, keep, tear)).unwrap();
        let (mut session, _) = ManagedSession::recover(&tape, resolve).unwrap();
        let context = format!("recovered with {keep} batches, torn={tear}");
        assert_eq!(session.inner().state().batches, keep, "{context}");
        assert_coords_cached(&session, &context);
        for batch in trace.iter().skip(keep) {
            for m in batch {
                session.push_mutation(m.clone());
            }
            session.commit(2).unwrap();
            assert_coords_cached(&session, &context);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
