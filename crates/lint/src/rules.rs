//! The rule table: what each rule matches and where it applies.
//!
//! Every rule is grounded in a repo invariant the runtime determinism
//! matrix can only *sample*:
//!
//! * `det-hash-iter` — `HashMap`/`HashSet` in result-affecting crates.
//!   Iteration order is randomized per process, so any hash collection
//!   whose iteration can reach labels or cuts breaks the bit-identity
//!   contract. Use `BTreeMap`/`BTreeSet`, or keep the hash map strictly
//!   probe-only and suppress with the reason.
//! * `det-wallclock` — `Instant::now`/`SystemTime` outside `crates/bench`.
//!   Wall-clock reads feeding anything but a bench report make output
//!   timing-dependent.
//! * `det-thread-id` — thread-identity APIs (`thread::current`,
//!   `ThreadId`, rayon's `current_thread_index`, `thread_rng`). Output
//!   influenced by *which* thread ran is the canonical scheduling leak.
//! * `cast-truncate` — `as u32` inside the `u32` CSR core (`csr.rs`,
//!   `coarsen.rs`, `fm.rs`). The PR 7 `SmallCsr` overflow safety rests on
//!   every `usize → u32` crossing going through the checked
//!   `from_usize_offsets`-style constructors; a bare `as u32` silently
//!   truncates past 4 Gi entries.
//! * `lib-panic` — `unwrap`/`expect`/`panic!` in library code outside
//!   `#[cfg(test)]` / `debug_assert`. Library crates surface
//!   `GraphError`/`GaError`; panics belong to bins and tests.
//! * `par-side-effect` — a `par_iter`/`par_chunks` closure that mutates
//!   captured state (`&mut` on a non-local, `.lock()`, atomic
//!   `fetch_*`). The frozen-scan/sequential-apply idiom requires the
//!   parallel scan phase to stay pure; shared mutation makes results
//!   scheduling-dependent.
//! * `float-reduce-order` — a float reduction (`.sum::<f32/f64>()`, a
//!   float-seeded `fold`) inside a parallel iterator chain. Float
//!   addition is not associative, so reduction order breaks
//!   bit-identity across pool sizes.
//! * `panic-reach` — call-graph pass: a `pub` library function that
//!   *transitively* reaches a panic site (`unwrap`/`expect`/`panic!`/
//!   indexing). Reported with the full witness call path.
//! * `det-taint` — call-graph pass: a nondeterminism site
//!   (hash-iteration, wall-clock, thread-identity) reachable from a
//!   pipeline entry point (`Partitioner::partition` impls,
//!   `MultilevelPartitioner`, `DynamicSession`, `SessionSpec`).
//! * `suppression-syntax` — a malformed or unknown-rule suppression
//!   directive. A typo'd suppression must fail loudly, not silently
//!   leave the finding live (or worse, look suppressed in review).

/// A single lint rule: name, rationale, and the code patterns it flags.
pub struct Rule {
    /// Kebab-case rule id, as used in suppressions and the baseline.
    pub name: &'static str,
    /// One-line rationale shown by `--list-rules`.
    pub desc: &'static str,
    /// Substring patterns matched against stripped code lines. Empty for
    /// rules driven by a dedicated pass (suppression parsing, parallel
    /// regions, call-graph propagation).
    pub patterns: &'static [&'static str],
    /// Longer rationale for `--explain`: what invariant the rule guards
    /// and what to do about a finding.
    pub why: &'static str,
    /// A minimal witness example for `--explain`.
    pub example: &'static str,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        name: "det-hash-iter",
        desc: "HashMap/HashSet in result-affecting code: iteration order can leak into labels/cuts; use BTreeMap/BTreeSet or sort before iterating",
        patterns: &["HashMap", "HashSet"],
        why: "std's hash collections randomize iteration order per process. Any \
              iteration whose order can reach partition labels, cut costs, or tie-breaks \
              violates the bit-identity contract pinned by tests/parallel_contract.rs and \
              the CI thread matrix. Replace with BTreeMap/BTreeSet, or keep the map \
              strictly probe-only and suppress with the reason.",
        example: "for (k, v) in hash_map.iter() { labels[k] = v; }  // order leaks\n\
                  for (k, v) in btree_map.iter() { labels[k] = v; } // fixed order",
    },
    Rule {
        name: "det-wallclock",
        desc: "wall-clock read outside crates/bench: Instant::now/SystemTime make output timing-dependent",
        patterns: &["Instant::now", "SystemTime"],
        why: "A wall-clock read feeding anything but a bench report makes output depend \
              on machine load: a time-based cutoff can stop refinement one pass earlier \
              on a slow run and change the partition. Budget by iteration counts instead; \
              measure time only in crates/bench.",
        example: "let t0 = Instant::now();\nwhile t0.elapsed() < budget { refine(); } // timing-dependent\n\
                  for _ in 0..max_passes { refine(); }             // deterministic",
    },
    Rule {
        name: "det-thread-id",
        desc: "thread-identity API: output influenced by which thread ran breaks pool-size bit-identity",
        patterns: &["thread::current", "ThreadId", "current_thread_index", "thread_rng"],
        why: "Output influenced by *which* thread executed a closure is the canonical \
              scheduling leak: per-thread RNGs, thread-indexed scratch selection, or \
              ThreadId ordering all change results with pool size. Seed RNGs from the \
              data (vertex id, round), not the executor.",
        example: "let r = thread_rng().gen::<u64>();      // differs per schedule\n\
                  let r = SplitMix64::new(seed ^ v).next(); // pure fn of data",
    },
    Rule {
        name: "cast-truncate",
        desc: "bare `as u32` in the u32 CSR core: silently truncates past u32::MAX; use the checked from_usize_offsets-style crossings",
        patterns: &["as u32"],
        why: "SmallCsr's overflow safety rests on every usize->u32 crossing going \
              through a checked constructor (from_usize_offsets returns \
              GraphError::AdjacencyOverflow). A bare `as u32` silently wraps past \
              4 Gi entries and corrupts adjacency on the 10M-node path.",
        example: "let off = total as u32;                 // wraps at 4 Gi\n\
                  let off = u32::try_from(total)?;         // surfaces the overflow",
    },
    Rule {
        name: "lib-panic",
        desc: "unwrap/expect/panic! in library code outside #[cfg(test)]/debug_assert: library crates return typed errors",
        patterns: &[".unwrap()", ".expect(", "panic!("],
        why: "Library crates surface GraphError/GaError; panics belong to bins and \
              tests. In the partition-as-a-service direction a reachable panic is an \
              outage, not a stack trace. Return a typed error, or suppress with the \
              invariant that makes the panic unreachable.",
        example: "let last = xadj.last().unwrap();        // panics on empty\n\
                  let last = xadj.last().ok_or(GraphError::Empty)?;",
    },
    Rule {
        name: "par-side-effect",
        desc: "parallel-iterator closure mutates captured state (&mut capture, .lock(), atomic fetch_*): the scan phase must stay pure",
        patterns: &[],
        why: "The repo's deterministic-parallelism idiom is frozen scan / sequential \
              apply: par_iter closures read frozen state and return values; all \
              mutation happens in a later index-ordered sequential phase. A closure \
              that mutates captured state (&mut on a non-local, a Mutex lock, an \
              atomic fetch_*) reintroduces scheduling order into results. \
              Closure-local `let mut` scratch is fine.",
        example: "items.par_iter().for_each(|v| shared.lock().push(v)); // order leaks\n\
                  let out: Vec<_> = items.par_iter().map(score).collect(); // pure scan",
    },
    Rule {
        name: "float-reduce-order",
        desc: "float reduction (.sum::<f32/f64>, float-seeded fold) inside a parallel iterator: reduction order breaks bit-identity",
        patterns: &[],
        why: "Float addition is not associative: a parallel sum's result depends on \
              how the runtime splits the input, so the same graph can produce \
              different cuts at different pool sizes. Reduce floats sequentially in \
              index order, or accumulate in integers (the cut/gain path uses \
              i64/u64 for exactly this reason).",
        example: "let s: f64 = xs.par_iter().map(score).sum::<f64>();   // split-dependent\n\
                  let s: f64 = xs.iter().map(score).sum::<f64>();       // index order",
    },
    Rule {
        name: "panic-reach",
        desc: "pub library function transitively reaches a panic site (unwrap/expect/panic!/indexing); witness call path in the message",
        patterns: &[],
        why: "The line-level lib-panic rule only sees direct panics; a public API \
              that reaches unwrap() three calls deep is the same outage in \
              production. This call-graph pass seeds at panic sites (including \
              slice indexing), propagates up caller edges (best-effort name \
              resolution; ambiguous edges marked), and reports pub functions in the \
              library crates with a concrete witness path. Fix the leaf, or \
              suppress on the pub fn with the invariant that bounds the index.",
        example: "pub fn api(g: &Graph) -> u32 { helper(g) }\n\
                  fn helper(g: &Graph) -> u32 { g.xadj[0] } // api -> helper -> index panic",
    },
    Rule {
        name: "det-taint",
        desc: "nondeterminism site reachable from a pipeline entry point (partition impls, MultilevelPartitioner, DynamicSession, SessionSpec)",
        patterns: &[],
        why: "A hash-order iteration (or wall-clock/thread-identity read) is only \
              fatal when the pipeline can actually reach it. This call-graph pass \
              seeds at det-hash-iter/det-wallclock/det-thread-id sites and reports \
              the ones reachable from the solver entry points, with the entry->site \
              witness path — exactly the latent nondeterminism the dynamic \
              thread-matrix can miss when a code path isn't exercised.",
        example: "impl Partitioner for X { fn partition(..) { seed_order(g) } }\n\
                  fn seed_order(g: &Graph) { for v in hash_set.iter() { .. } } // reachable",
    },
    Rule {
        name: "suppression-syntax",
        desc: "malformed gapart-lint suppression: must be `gapart-lint: allow(<known-rule>) -- <reason>`",
        patterns: &[],
        why: "A typo'd suppression must fail loudly: a directive that silently fails \
              to parse would leave the finding live (or worse, look suppressed in \
              review). Unknown rule names and missing reasons are findings.",
        example: "// gapart-lint: allow(lib-panick) -- oops     (unknown rule: finding)\n\
                  // gapart-lint: allow(lib-panic) -- len checked above  (valid)",
    },
];

/// Looks a rule up by name.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// The three files forming the `u32` CSR core (see `SmallCsr`).
const CAST_SCOPE: &[&str] = &[
    "crates/graph/src/csr.rs",
    "crates/graph/src/coarsen.rs",
    "crates/graph/src/fm.rs",
];

/// The library crates whose `pub` surface `panic-reach` covers: a panic
/// behind these APIs is a service outage, not a CLI exit.
const PANIC_REACH_SCOPE: &[&str] = &[
    "crates/graph/src/",
    "crates/core/src/",
    "crates/rsb/src/",
    "crates/ibp/src/",
    "crates/linalg/src/",
];

/// Whether `rule` applies to the workspace-relative path `relpath`
/// (forward slashes). Scopes mirror the invariants: bench code measures
/// time and threads legitimately; the CSR-core cast rule is per-file.
pub fn in_scope(rule: &str, relpath: &str) -> bool {
    match rule {
        "det-hash-iter" | "det-wallclock" | "det-thread-id" | "par-side-effect"
        | "float-reduce-order" | "det-taint" => !relpath.starts_with("crates/bench/"),
        "cast-truncate" => CAST_SCOPE.contains(&relpath),
        "lib-panic" => !relpath.starts_with("crates/bench/") && !relpath.starts_with("src/bin/"),
        "panic-reach" => PANIC_REACH_SCOPE.iter().any(|p| relpath.starts_with(p)),
        "suppression-syntax" => true,
        _ => false,
    }
}

/// Counts non-overlapping occurrences of `pat` in `hay`.
pub fn count_matches(hay: &str, pat: &str) -> usize {
    if pat.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut rest = hay;
    while let Some(pos) = rest.find(pat) {
        n += 1;
        rest = &rest[pos + pat.len()..];
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_name_resolves() {
        for r in RULES {
            assert_eq!(rule_by_name(r.name).map(|x| x.name), Some(r.name));
        }
        assert!(rule_by_name("no-such-rule").is_none());
    }

    #[test]
    fn every_rule_has_explain_material() {
        for r in RULES {
            assert!(!r.why.trim().is_empty(), "{} has no why", r.name);
            assert!(!r.example.trim().is_empty(), "{} has no example", r.name);
        }
    }

    #[test]
    fn scopes_follow_the_invariants() {
        assert!(in_scope("det-hash-iter", "crates/graph/src/geometry.rs"));
        assert!(!in_scope("det-hash-iter", "crates/bench/src/json.rs"));
        assert!(in_scope("det-wallclock", "crates/core/src/engine.rs"));
        assert!(!in_scope(
            "det-wallclock",
            "crates/bench/src/bin/benchsuite.rs"
        ));
        assert!(in_scope("cast-truncate", "crates/graph/src/fm.rs"));
        assert!(!in_scope("cast-truncate", "crates/graph/src/builder.rs"));
        assert!(in_scope("lib-panic", "src/cli.rs"));
        assert!(!in_scope("lib-panic", "src/bin/gapart-cli.rs"));
        assert!(!in_scope("lib-panic", "crates/bench/src/runner.rs"));
        assert!(in_scope("par-side-effect", "crates/graph/src/fm.rs"));
        assert!(!in_scope("par-side-effect", "crates/bench/src/runner.rs"));
        assert!(in_scope(
            "float-reduce-order",
            "crates/graph/src/coarsen.rs"
        ));
        assert!(in_scope("panic-reach", "crates/graph/src/fm.rs"));
        assert!(in_scope("panic-reach", "crates/linalg/src/tridiag.rs"));
        assert!(!in_scope("panic-reach", "src/cli.rs"));
        assert!(!in_scope("panic-reach", "crates/lint/src/engine.rs"));
        assert!(in_scope("det-taint", "crates/core/src/dynamic.rs"));
        assert!(!in_scope("det-taint", "crates/bench/src/json.rs"));
    }

    #[test]
    fn match_counting_is_non_overlapping() {
        assert_eq!(count_matches("x as u32; y as u32", "as u32"), 2);
        assert_eq!(count_matches("aaaa", "aa"), 2);
        assert_eq!(count_matches("abc", ""), 0);
    }
}
