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
use gapart_graph::dynamic::Mutation;
use gapart_graph::generators::jittered_mesh;
use gapart_graph::io::{from_metis, to_metis};
use gapart_graph::multilevel::MultilevelPartitioner;
use gapart_graph::refine::RefineScheme;
use gapart_graph::{CsrGraph, Partitioner};
use gapart_serve::session::ManagedSession;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;

fn resolve(name: &str, _scheme: RefineScheme) -> Option<Box<dyn Partitioner>> {
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

/// A tape whose open record names a retired refiner (`sweep`, or the
/// `pfm-rescan` reference mode) no longer recovers: `open` replies
/// `err spec`, and the daemon keeps serving every other session.
#[test]
fn tapes_naming_a_retired_refiner_fail_cleanly() {
    use gapart_serve::{Daemon, ServeConfig};
    let dir = temp_dir("retired");
    let spec = SessionSpec::parse_kv("parts=4 seed=11 refine=pfm").unwrap();
    let live = dir.join("live.tape");
    drop(ManagedSession::open(spec, base_graph(), &live, resolve).unwrap());
    let text = std::fs::read_to_string(&live).unwrap();
    assert!(text.contains(" refine=pfm "), "{text}");
    for retired in ["sweep", "pfm-rescan"] {
        let forged = text.replace(" refine=pfm ", &format!(" refine={retired} "));
        std::fs::write(dir.join(format!("{retired}.tape")), forged).unwrap();
    }

    let mut d = Daemon::new(ServeConfig::new(&dir), resolve).unwrap();
    for retired in ["sweep", "pfm-rescan"] {
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
