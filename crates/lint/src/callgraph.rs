//! Module-path-qualified call graph over [`crate::items`] extraction.
//!
//! Name resolution is best-effort and tiered, most-specific first:
//!
//! 1. same file **and** same module path,
//! 2. same file,
//! 3. same module path (sibling file),
//! 4. `use`-imported name (the import *decides*: if it points outside
//!    the workspace, no edge is created rather than falling through),
//! 5. unique in the workspace.
//!
//! Every tier sees only the functions the caller's crate can call: its
//! own and those of the workspace crates its manifest depends on,
//! directly or transitively ([`CrateDeps`]). A `str::parse` in
//! `gapart-graph` therefore never resolves to the lint's own
//! `Baseline::parse`.
//!
//! A call site that still resolves to several candidates (trait methods
//! with multiple impls, same-named helpers) keeps **all** edges, marked
//! [`Edge::ambiguous`] — the taint passes propagate through them but the
//! witness path renders the hop as `~>` so a reader knows the resolution
//! was plural.

use crate::items::{FileItems, FnItem};
use std::collections::{BTreeMap, BTreeSet};

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// 1-based call-site line in the caller's file.
    pub line: usize,
    /// True when this call site resolved to more than one candidate.
    pub ambiguous: bool,
}

/// The workspace call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Flattened function nodes, in (file, declaration) order.
    pub fns: Vec<FnItem>,
    /// Outgoing edges per node, sorted by (to, line).
    pub out: Vec<Vec<Edge>>,
    /// Incoming edges per node, sorted by (from, line).
    pub rev: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// The innermost function whose body span contains `file:line`.
    pub fn enclosing(&self, file: &str, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            let Some((lo, hi)) = f.body else { continue };
            if lo <= line && line <= hi {
                // Innermost wins: nested fns start later.
                if best.is_none_or(|b| self.fns[b].body.unwrap_or((0, 0)).0 <= lo) {
                    best = Some(i);
                }
            }
        }
        best
    }
}

/// Which workspace crates each crate's code can call: the crate itself
/// plus every workspace crate its manifest's `[dependencies]` reach,
/// directly or transitively. Crates are named as
/// [`file_mods`](crate::items::file_mods) names them: `graph` for
/// `crates/graph`, `gapart` for `src/`. A crate without a manifest here
/// may call into any crate, so fixtures scanned without manifests resolve
/// across the whole workspace.
#[derive(Debug, Clone, Default)]
pub struct CrateDeps {
    reach: BTreeMap<String, BTreeSet<String>>,
}

impl CrateDeps {
    /// The transitive closure of `(crate, Cargo.toml text)` pairs.
    pub fn from_manifests(manifests: &[(String, String)]) -> Self {
        let direct: BTreeMap<&str, Vec<String>> = manifests
            .iter()
            .map(|(krate, text)| (krate.as_str(), manifest_deps(text)))
            .collect();
        let mut reach = BTreeMap::new();
        for &krate in direct.keys() {
            let mut seen = BTreeSet::from([krate.to_string()]);
            let mut stack = vec![krate.to_string()];
            while let Some(c) = stack.pop() {
                for d in direct.get(c.as_str()).into_iter().flatten() {
                    if seen.insert(d.clone()) {
                        stack.push(d.clone());
                    }
                }
            }
            reach.insert(krate.to_string(), seen);
        }
        CrateDeps { reach }
    }

    /// Whether code in crate `caller` can call a function of `callee`.
    pub fn allows(&self, caller: &str, callee: &str) -> bool {
        self.reach.get(caller).is_none_or(|r| r.contains(callee))
    }
}

/// The workspace crates a manifest's `[dependencies]` table names:
/// `gapart`, and `gapart-<x>` as `<x>`. Dev-dependencies are left out,
/// since test code makes no edges.
fn manifest_deps(text: &str) -> Vec<String> {
    let mut in_deps = false;
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
        } else if in_deps {
            // `gapart-graph.workspace = true`, `gapart = { path = "." }`.
            let key = line.split(['=', '.', ' ', '\t']).next().unwrap_or_default();
            if key == "gapart" {
                out.push(key.to_string());
            } else if let Some(x) = key.strip_prefix("gapart-") {
                out.push(x.to_string());
            }
        }
    }
    out
}

/// The crate a function lives in: the first segment of its module path.
fn crate_of(f: &FnItem) -> &str {
    f.mods.first().map_or("", String::as_str)
}

/// Normalizes written path segments: resolves `Self` against the
/// caller's impl type, drops `crate`/`self`/`super`, and maps
/// `gapart_<x>` crate names to the bare `<x>` used by module paths.
fn normalize_segments(segs: &[String], caller: &FnItem) -> Vec<String> {
    let mut out = Vec::with_capacity(segs.len());
    for (i, s) in segs.iter().enumerate() {
        if i == 0 && s == "Self" {
            if let Some(t) = &caller.self_ty {
                out.push(t.clone());
            }
            continue;
        }
        if s == "crate" || s == "self" || s == "super" {
            continue;
        }
        match s.strip_prefix("gapart_") {
            Some(rest) => out.push(rest.to_string()),
            None => out.push(s.clone()),
        }
    }
    out
}

fn ends_with(qual: &[String], suffix: &[String]) -> bool {
    suffix.len() <= qual.len() && qual[qual.len() - suffix.len()..] == *suffix
}

/// Builds the call graph for a set of extracted files, resolving calls
/// only into the crates `deps` lets each caller reach.
pub fn build(files: &[FileItems], deps: &CrateDeps) -> CallGraph {
    let mut g = CallGraph::default();
    let mut file_of: Vec<usize> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for item in &f.fns {
            g.fns.push(item.clone());
            file_of.push(fi);
        }
    }
    let n = g.fns.len();
    g.out = vec![Vec::new(); n];
    g.rev = vec![Vec::new(); n];

    // Candidate index: bare name -> non-test node indices, in node order.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !f.in_test {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }
    }

    for (caller_ix, caller) in g.fns.iter().enumerate() {
        if caller.in_test {
            continue;
        }
        let uses = &files[file_of[caller_ix]].uses;
        let krate = crate_of(caller);
        // (to, line, ambiguous); deduped per callee below.
        let mut edges: Vec<(usize, usize, bool)> = Vec::new();
        for call in &caller.calls {
            let Some(name) = call.segments.last() else {
                continue;
            };
            let Some(cands) = by_name.get(name.as_str()) else {
                continue;
            };
            let cands: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| deps.allows(krate, crate_of(&g.fns[c])))
                .collect();
            let targets: Vec<usize> = if call.segments.len() > 1 && !call.method {
                resolve_qualified(&g.fns, caller, &cands, &call.segments, uses)
            } else {
                resolve_bare(&g.fns, caller, &cands, name, call.method, uses)
            };
            let ambiguous = targets.len() > 1;
            for t in targets {
                edges.push((t, call.line, ambiguous));
            }
        }
        // One edge per callee: earliest line, unambiguous preferred.
        edges.sort_by_key(|&(to, line, amb)| (to, amb, line));
        edges.dedup_by_key(|e| e.0);
        for (to, line, ambiguous) in edges {
            g.out[caller_ix].push(Edge {
                from: caller_ix,
                to,
                line,
                ambiguous,
            });
        }
    }
    for i in 0..n {
        for e in g.out[i].clone() {
            g.rev[e.to].push(e);
        }
    }
    for v in &mut g.rev {
        v.sort_by_key(|e| (e.from, e.line));
    }
    g
}

/// Resolves a qualified path call (`a::b::name(`) by suffix match on
/// fully qualified names, splicing the first segment through the file's
/// `use` imports when the direct match is empty.
fn resolve_qualified(
    fns: &[FnItem],
    caller: &FnItem,
    cands: &[usize],
    segments: &[String],
    uses: &[(String, Vec<String>)],
) -> Vec<usize> {
    let segs = normalize_segments(segments, caller);
    if segs.is_empty() {
        return Vec::new();
    }
    let direct: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| ends_with(&fns[c].qual(), &segs))
        .collect();
    if !direct.is_empty() {
        return direct;
    }
    // `use gapart_graph::fm;` + `fm::refine(` -> graph::fm::refine.
    if let Some((_, path)) = uses.iter().find(|(nm, _)| nm == &segs[0]) {
        let mut spliced = path.clone();
        spliced.extend(segs[1..].iter().cloned());
        return cands
            .iter()
            .copied()
            .filter(|&c| ends_with(&fns[c].qual(), &spliced))
            .collect();
    }
    Vec::new()
}

/// Resolves a bare-name call (`name(`) or method call (`.name(`)
/// through the specificity tiers.
fn resolve_bare(
    fns: &[FnItem],
    caller: &FnItem,
    cands: &[usize],
    name: &str,
    method: bool,
    uses: &[(String, Vec<String>)],
) -> Vec<usize> {
    let same_file_mod: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].file == caller.file && fns[c].mods == caller.mods)
        .collect();
    if !same_file_mod.is_empty() {
        return same_file_mod;
    }
    let same_file: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].file == caller.file)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let same_mod: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| fns[c].mods == caller.mods)
        .collect();
    if !same_mod.is_empty() {
        return same_mod;
    }
    if !method {
        // An import decides the resolution: if it points outside the
        // workspace the call is external and gets no edge.
        if let Some((_, path)) = uses.iter().find(|(nm, _)| nm == name) {
            return cands
                .iter()
                .copied()
                .filter(|&c| ends_with(&fns[c].qual(), path))
                .collect();
        }
    } else if STD_METHODS.contains(&name) {
        // `.expect(` / `.get(` etc. almost always mean the std method;
        // binding them to a same-named workspace fn in another crate
        // would fabricate cross-crate edges.
        return Vec::new();
    }
    // Last tier: whatever the workspace has under this name. One
    // candidate resolves cleanly; several become marked ambiguous edges
    // (trait-method fan-out lands here).
    cands.to_vec()
}

/// Ubiquitous std method names, excluded from the
/// unique-in-the-workspace tier for *method* calls (local tiers still
/// apply, so a file can define and call its own `expect`).
const STD_METHODS: &[&str] = &[
    "expect",
    "unwrap",
    "unwrap_or",
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "collect",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "abs",
    "take",
    "replace",
    "extend",
    "sort",
    "sort_by",
    "contains",
    "to_string",
    "to_owned",
    "as_ref",
    "as_mut",
    "write",
    "read",
    "cmp",
    "eq",
    "fmt",
    "resize",
    "clear",
    "first",
    "last",
    "position",
    "find",
    "count",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::extract;
    use crate::scan::strip;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        graph_with(files, &CrateDeps::default())
    }

    fn graph_with(files: &[(&str, &str)], deps: &CrateDeps) -> CallGraph {
        let extracted: Vec<FileItems> = files
            .iter()
            .map(|(rel, text)| extract(rel, &strip(text)))
            .collect();
        build(&extracted, deps)
    }

    fn ix(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("no fn {name}"))
    }

    fn edge(g: &CallGraph, from: &str, to: &str) -> Option<Edge> {
        let (f, t) = (ix(g, from), ix(g, to));
        g.out[f].iter().copied().find(|e| e.to == t)
    }

    #[test]
    fn same_file_call_resolves() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "fn leaf() {}\npub fn root() { leaf(); }\n",
        )]);
        let e = edge(&g, "root", "leaf").expect("edge");
        assert!(!e.ambiguous);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn shadowed_name_prefers_same_file_over_workspace() {
        let g = graph_of(&[
            (
                "crates/graph/src/a.rs",
                "fn helper() {}\npub fn go() { helper(); }\n",
            ),
            ("crates/core/src/b.rs", "pub fn helper() {}\n"),
        ]);
        let to = ix(&g, "go");
        assert_eq!(g.out[to].len(), 1);
        let callee = &g.fns[g.out[to][0].to];
        assert_eq!(callee.file, "crates/graph/src/a.rs");
        assert!(!g.out[to][0].ambiguous);
    }

    #[test]
    fn qualified_call_resolves_by_suffix() {
        let g = graph_of(&[
            ("crates/graph/src/fm.rs", "pub fn refine() {}\n"),
            (
                "crates/rsb/src/b.rs",
                "use gapart_graph::fm;\npub fn go() { fm::refine(); }\n",
            ),
        ]);
        let e = edge(&g, "go", "refine").expect("edge");
        assert!(!e.ambiguous);
    }

    #[test]
    fn use_imported_bare_call_resolves_across_crates() {
        let g = graph_of(&[
            ("crates/graph/src/fm.rs", "pub fn refine() {}\n"),
            (
                "crates/rsb/src/b.rs",
                "use gapart_graph::fm::refine;\npub fn go() { refine(); }\n",
            ),
        ]);
        assert!(edge(&g, "go", "refine").is_some());
    }

    #[test]
    fn import_from_outside_the_workspace_creates_no_edge() {
        // `take` is imported from std; the same-named workspace fn in an
        // unrelated crate must not capture the call.
        let g = graph_of(&[
            ("crates/graph/src/a.rs", "pub fn take() {}\n"),
            (
                "crates/core/src/b.rs",
                "use std::mem::take;\npub fn go(x: &mut u32) { take(x); }\n",
            ),
        ]);
        assert!(edge(&g, "go", "take").is_none());
    }

    #[test]
    fn unique_in_workspace_resolves_without_import() {
        let g = graph_of(&[
            ("crates/graph/src/a.rs", "pub fn only_here() {}\n"),
            ("crates/core/src/b.rs", "pub fn go() { only_here(); }\n"),
        ]);
        let e = edge(&g, "go", "only_here").expect("edge");
        assert!(!e.ambiguous);
    }

    #[test]
    fn calls_resolve_only_inside_the_dependency_closure() {
        // graph depends on nothing, core on graph, the facade on core;
        // dev-dependencies give no edges.
        let deps = CrateDeps::from_manifests(&[
            (
                "graph".into(),
                "[package]\nname = \"gapart-graph\"\n".into(),
            ),
            (
                "core".into(),
                "[dependencies]\ngapart-graph.workspace = true\nrand.workspace = true\n\
                 [dev-dependencies]\ngapart-lint = { path = \"../lint\" }\n"
                    .into(),
            ),
            (
                "gapart".into(),
                "[dependencies]\ngapart-core = { path = \"crates/core\" }\n".into(),
            ),
            ("lint".into(), "[dependencies]\n".into()),
        ]);
        let files = [
            (
                "crates/graph/src/io.rs",
                "pub fn read(s: &str) -> bool { s.parse::<u32>().is_ok() && [1].iter().all(|_| true) }\n\
                 pub fn scale() -> u32 { 2 }\n",
            ),
            ("crates/lint/src/baseline.rs", "pub fn parse() {}\n"),
            ("src/partitioners.rs", "pub fn all() {}\n"),
            (
                "crates/core/src/a.rs",
                "pub fn go() -> u32 { scale() }\npub fn lint() { parse(); }\n",
            ),
            ("src/b.rs", "pub fn top() -> u32 { scale() }\n"),
        ];
        // Without manifests, `.parse(` and `.all(` on std types reach the
        // only same-named workspace fns: the lint's and the facade's.
        let open = graph_with(&files, &CrateDeps::default());
        assert!(edge(&open, "read", "parse").is_some());
        assert!(edge(&open, "read", "all").is_some());
        assert!(edge(&open, "lint", "parse").is_some());

        let g = graph_with(&files, &deps);
        let read = ix(&g, "read");
        assert!(g.out[read].is_empty(), "{:?}", g.out[read]);
        assert!(edge(&g, "lint", "parse").is_none(), "dev-dependency");
        // A direct and a transitive dependency still resolve.
        assert!(!edge(&g, "go", "scale").expect("core -> graph").ambiguous);
        assert!(edge(&g, "top", "scale").is_some(), "gapart -> graph");
    }

    #[test]
    fn trait_method_with_multiple_impls_fans_out_ambiguous() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "pub struct A;\npub struct B;\n\
             pub trait Part { fn part(&self) -> u32; }\n\
             impl Part for A { fn part(&self) -> u32 { 1 } }\n\
             impl Part for B { fn part(&self) -> u32 { 2 } }\n\
             pub fn go(p: &dyn Part) -> u32 { p.part() }\n",
        )]);
        let go = ix(&g, "go");
        // Decl + two impls: three candidates, all ambiguous.
        assert_eq!(g.out[go].len(), 3);
        assert!(g.out[go].iter().all(|e| e.ambiguous));
    }

    #[test]
    fn self_path_resolves_to_own_impl() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "pub struct Fm;\nimpl Fm {\n  fn leaf(&self) {}\n  pub fn go(&self) { Self::leaf(self); }\n}\n",
        )]);
        assert!(edge(&g, "go", "leaf").is_some());
    }

    #[test]
    fn recursion_and_mutual_recursion_edges_exist() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "pub fn rec(n: u32) -> u32 { if n == 0 { 0 } else { rec(n - 1) } }\n\
             pub fn ping(n: u32) { if n > 0 { pong(n - 1) } }\n\
             pub fn pong(n: u32) { if n > 0 { ping(n - 1) } }\n",
        )]);
        assert!(edge(&g, "rec", "rec").is_some());
        assert!(edge(&g, "ping", "pong").is_some());
        assert!(edge(&g, "pong", "ping").is_some());
    }

    #[test]
    fn test_fns_neither_call_nor_get_called() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "pub fn lib() { helper(); }\nfn helper() {}\n\
             #[cfg(test)]\nmod tests {\n  use super::*;\n  #[test]\n  fn t() { lib(); helper(); }\n}\n",
        )]);
        let t = ix(&g, "t");
        assert!(g.out[t].is_empty());
        assert!(g.rev[ix(&g, "helper")].iter().all(|e| e.from != t));
    }

    #[test]
    fn enclosing_finds_innermost() {
        let g = graph_of(&[(
            "crates/graph/src/a.rs",
            "pub fn outer() {\n  fn inner() {\n    body();\n  }\n  inner();\n}\n",
        )]);
        let at = |line| {
            g.enclosing("crates/graph/src/a.rs", line)
                .map(|i| g.fns[i].name.clone())
        };
        assert_eq!(at(3).as_deref(), Some("inner"));
        assert_eq!(at(5).as_deref(), Some("outer"));
        assert_eq!(at(7), None);
    }
}
