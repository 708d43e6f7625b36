//! Propagation passes over the call graph.
//!
//! * **panic-reachability** (`panic-reach`): seeds at every panic site
//!   in library code — the v1 `lib-panic` patterns plus slice/map
//!   indexing — and propagates *up* caller edges. Reported are `pub`,
//!   non-test functions inside the library-crate scope whose body
//!   transitively reaches a seed; the finding excerpt carries the whole
//!   witness call path down to the seed site.
//! * **determinism taint** (`det-taint`): seeds at every
//!   `det-hash-iter`/`det-wallclock`/`det-thread-id` site and
//!   propagates *down* from the pipeline entry points
//!   (`Partitioner::partition` impls, `MultilevelPartitioner`,
//!   `DynamicSession` and its constructors on `SessionSpec`). Reported
//!   at the seed line, with the entry-to-site witness path.
//!
//! Both BFS walks keep a visited set, so recursion and mutual recursion
//! terminate; hops over ambiguous edges render as `~>` instead of `->`
//! in the witness text.

use crate::callgraph::CallGraph;
use crate::engine::Finding;
use crate::rules::{in_scope, rule_by_name};
use crate::scan::StrippedFile;
use std::collections::VecDeque;

/// A taint source: one offending site in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seed {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What the site does, for the witness text (e.g. `unwrap()`).
    pub what: String,
}

/// Collects panic seeds from one stripped file. `allows` is the per-line
/// suppression table from the engine: a `lib-panic` or `panic-reach`
/// allow on the site's line removes the seed (the suppression's reason
/// is exactly the invariant that makes the panic unreachable).
pub fn panic_seeds(rel: &str, file: &StrippedFile, allows: &[Vec<&'static str>]) -> Vec<Seed> {
    let mut seeds = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test
            || line.code.contains("debug_assert")
            || allows
                .get(i)
                .is_some_and(|a| a.contains(&"lib-panic") || a.contains(&"panic-reach"))
        {
            continue;
        }
        let what = if line.code.contains(".unwrap()") {
            "unwrap()"
        } else if line.code.contains(".expect(") {
            "expect()"
        } else if line.code.contains("panic!(") {
            "panic!"
        } else if line.code.contains("unreachable!(") {
            "unreachable!"
        } else if has_index_site(&line.code) {
            "indexing"
        } else {
            continue;
        };
        seeds.push(Seed {
            file: rel.to_string(),
            line: i + 1,
            what: what.to_string(),
        });
    }
    seeds
}

/// Whether a stripped code line contains a slice/map index expression
/// (`xs[`, `)(..)[`, `][`) as opposed to a type (`&[u32]`), an array
/// literal (`= [`), an attribute (`#[`), or a macro bang (`vec![`).
fn has_index_site(code: &str) -> bool {
    let chars: Vec<char> = code.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        if c != '[' || i == 0 {
            continue;
        }
        if matches!(chars[i - 1], 'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ')' | ']') {
            return true;
        }
    }
    false
}

/// Collects determinism seeds (`det-hash-iter`, `det-wallclock`,
/// `det-thread-id` pattern hits) from one stripped file, honouring the
/// rules' path scopes and per-line suppressions.
pub fn det_seeds(rel: &str, file: &StrippedFile, allows: &[Vec<&'static str>]) -> Vec<Seed> {
    const DET_RULES: &[&str] = &["det-hash-iter", "det-wallclock", "det-thread-id"];
    let mut seeds = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for rule_name in DET_RULES {
            let Some(rule) = rule_by_name(rule_name) else {
                continue;
            };
            if !in_scope(rule_name, rel)
                || allows
                    .get(i)
                    .is_some_and(|a| a.contains(rule_name) || a.contains(&"det-taint"))
            {
                continue;
            }
            if let Some(pat) = rule.patterns.iter().find(|p| line.code.contains(*p)) {
                seeds.push(Seed {
                    file: rel.to_string(),
                    line: i + 1,
                    what: format!("{pat} ({rule_name})"),
                });
            }
        }
    }
    seeds
}

/// One hop of a recorded witness path.
#[derive(Debug, Clone, Copy)]
struct Hop {
    next: usize,
    ambiguous: bool,
}

/// Panic-reachability: reverse BFS from the seeds' enclosing functions,
/// reporting `pub` non-test functions in the `panic-reach` path scope.
/// The finding sits on the function's declaration line (so a
/// `panic-reach` allow there suppresses it) and the excerpt carries the
/// witness path down to the seed site.
pub fn panic_reach(g: &CallGraph, seeds: &[Seed]) -> Vec<Finding> {
    let n = g.fns.len();
    // First seed per node wins; seeds arrive in (file, line) order.
    let mut seed_at: Vec<Option<&Seed>> = vec![None; n];
    let mut queue = VecDeque::new();
    let mut visited = vec![false; n];
    let mut hop: Vec<Option<Hop>> = vec![None; n];
    for s in seeds {
        let Some(ix) = g.enclosing(&s.file, s.line) else {
            continue;
        };
        if g.fns[ix].in_test {
            continue;
        }
        if seed_at[ix].is_none() {
            seed_at[ix] = Some(s);
        }
        if !visited[ix] {
            visited[ix] = true;
            queue.push_back(ix);
        }
    }
    while let Some(v) = queue.pop_front() {
        for e in &g.rev[v] {
            if !visited[e.from] && !g.fns[e.from].in_test {
                visited[e.from] = true;
                hop[e.from] = Some(Hop {
                    next: v,
                    ambiguous: e.ambiguous,
                });
                queue.push_back(e.from);
            }
        }
    }

    let mut findings = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !visited[i] || !f.is_pub || f.in_test || !in_scope("panic-reach", &f.file) {
            continue;
        }
        let mut path = g.fns[i].display();
        let mut cur = i;
        while let Some(h) = hop[cur] {
            path.push_str(if h.ambiguous { " ~> " } else { " -> " });
            path.push_str(&g.fns[h.next].display());
            cur = h.next;
        }
        let Some(seed) = seed_at[cur] else { continue };
        findings.push(Finding {
            file: f.file.clone(),
            line: f.line,
            rule: "panic-reach",
            excerpt: format!("{path}: {} at {}:{}", seed.what, seed.file, seed.line),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Whether a function is a pipeline entry point for determinism taint.
fn is_entry(f: &crate::items::FnItem) -> bool {
    if f.in_test {
        return false;
    }
    f.name == "partition"
        || matches!(
            f.self_ty.as_deref(),
            Some("MultilevelPartitioner" | "DynamicSession" | "SessionSpec")
        )
}

/// Determinism taint: forward BFS from the pipeline entry points,
/// reporting every seed whose enclosing function is reachable. The
/// finding sits on the seed line; the excerpt carries the entry-to-site
/// witness path.
pub fn det_taint(g: &CallGraph, seeds: &[Seed]) -> Vec<Finding> {
    let n = g.fns.len();
    let mut visited = vec![false; n];
    let mut pred: Vec<Option<Hop>> = vec![None; n];
    let mut queue = VecDeque::new();
    for (i, f) in g.fns.iter().enumerate() {
        if is_entry(f) {
            visited[i] = true;
            queue.push_back(i);
        }
    }
    while let Some(v) = queue.pop_front() {
        for e in &g.out[v] {
            if !visited[e.to] && !g.fns[e.to].in_test {
                visited[e.to] = true;
                pred[e.to] = Some(Hop {
                    next: v,
                    ambiguous: e.ambiguous,
                });
                queue.push_back(e.to);
            }
        }
    }

    let mut findings = Vec::new();
    for s in seeds {
        if !in_scope("det-taint", &s.file) {
            continue;
        }
        let Some(ix) = g.enclosing(&s.file, s.line) else {
            continue;
        };
        if !visited[ix] {
            continue;
        }
        // Walk predecessors back to the entry, then render forward.
        let mut chain = vec![(ix, false)];
        let mut cur = ix;
        while let Some(h) = pred[cur] {
            chain.push((h.next, h.ambiguous));
            cur = h.next;
        }
        let mut path = String::new();
        for (k, &(node, ambiguous)) in chain.iter().enumerate().rev() {
            if k + 1 < chain.len() {
                path.push_str(if ambiguous { " ~> " } else { " -> " });
            }
            path.push_str(&g.fns[node].display());
        }
        findings.push(Finding {
            file: s.file.clone(),
            line: s.line,
            rule: "det-taint",
            excerpt: format!("{} reachable from {path}", s.what),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::strip;

    #[test]
    fn index_site_detection() {
        assert!(has_index_site("let x = xs[i];"));
        assert!(has_index_site("m[&key] += 1;"));
        assert!(has_index_site("grid[r][c]"));
        assert!(has_index_site("f(a)[0]"));
        assert!(!has_index_site("fn f(xs: &[u32]) {}"));
        assert!(!has_index_site("#[derive(Debug)]"));
        assert!(!has_index_site("let a = [1, 2, 3];"));
        assert!(!has_index_site("let v = vec![0; 4];"));
        assert!(!has_index_site("Box<[u32]>"));
    }

    #[test]
    fn panic_seed_kinds_and_suppressions() {
        let src = "\
fn a(x: Option<u32>) -> u32 { x.unwrap() }
fn b(x: Option<u32>) -> u32 { x.expect(\"msg\") }
fn c() { panic!(\"boom\") }
fn d(xs: &[u32]) -> u32 { xs[0] }
fn e(xs: &[u32]) { debug_assert!(xs[0] > 0); }
fn f(x: Option<u32>) -> u32 {
    x.unwrap() // gapart-lint: allow(lib-panic) -- checked by caller
}
";
        let stripped = strip(src);
        let n = stripped.lines.len();
        let mut allows = vec![Vec::new(); n];
        allows[6] = vec!["lib-panic"];
        let seeds = panic_seeds("crates/graph/src/x.rs", &stripped, &allows);
        let kinds: Vec<(usize, &str)> = seeds.iter().map(|s| (s.line, s.what.as_str())).collect();
        assert_eq!(
            kinds,
            vec![
                (1, "unwrap()"),
                (2, "expect()"),
                (3, "panic!"),
                (4, "indexing"),
            ]
        );
    }

    #[test]
    fn det_seeds_respect_scope_and_tests() {
        let src = "\
use std::collections::HashMap;
fn order() { let m: HashMap<u32, u32> = HashMap::new(); let _ = m; }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = std::collections::HashMap::<u32, u32>::new(); }
}
";
        let stripped = strip(src);
        let allows = vec![Vec::new(); stripped.lines.len()];
        let seeds = det_seeds("crates/core/src/x.rs", &stripped, &allows);
        // Lines 1 and 2 (use + body); the test mod contributes nothing.
        assert_eq!(seeds.len(), 2);
        assert!(seeds.iter().all(|s| s.line <= 2));
        assert!(det_seeds("crates/bench/src/x.rs", &stripped, &allows).is_empty());
    }
}
