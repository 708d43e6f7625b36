//! Findings engine: runs the rule matchers over stripped files, honours
//! inline suppressions, walks the workspace, and applies the baseline
//! ratchet.

use crate::baseline::Baseline;
use crate::callgraph::CrateDeps;
use crate::rules::{count_matches, in_scope, rule_by_name, RULES};
use crate::scan::{strip, StrippedFile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One finding: a rule violation at a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Trimmed source excerpt for the report.
    pub excerpt: String,
}

/// A parsed suppression directive.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Directive {
    /// `gapart-lint: allow(<rule>) -- <reason>` with a known rule and a
    /// non-empty reason.
    Allow(&'static str),
    /// Something that *tried* to be a directive but failed.
    Malformed(String),
}

/// Parses a suppression out of a comment, if the comment is one.
///
/// Only comments whose (trimmed) text *starts with* `gapart-lint:` are
/// treated as directives, so prose that merely mentions the tool is
/// ignored. The syntax is `gapart-lint: allow(<rule>) -- <reason>`; an
/// unknown rule or a missing/empty reason is malformed — a typo'd
/// suppression must fail loudly, not silently leave the finding live.
fn parse_directive(comment: &str) -> Option<Directive> {
    let text = comment.trim();
    let rest = text.strip_prefix("gapart-lint:")?.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Some(Directive::Malformed(format!(
            "expected `allow(<rule>)`, got `{text}`"
        )));
    };
    let Some((rule, tail)) = rest.split_once(')') else {
        return Some(Directive::Malformed(format!(
            "unterminated `allow(` in `{text}`"
        )));
    };
    let Some(rule) = rule_by_name(rule.trim()) else {
        return Some(Directive::Malformed(format!(
            "unknown rule `{}` in `{text}`",
            rule.trim()
        )));
    };
    let tail = tail.trim_start();
    match tail.strip_prefix("--") {
        Some(reason) if !reason.trim().is_empty() => Some(Directive::Allow(rule.name)),
        _ => Some(Directive::Malformed(format!(
            "missing `-- <reason>` in `{text}`"
        ))),
    }
}

/// Builds the per-line allow-sets for a stripped file: suppressions
/// attach to their own line (when it has code) or to the following line
/// (comment-only lines). Malformed directives come back as
/// `suppression-syntax` findings.
pub fn collect_allows(
    relpath: &str,
    file: &StrippedFile,
) -> (Vec<Vec<&'static str>>, Vec<Finding>) {
    let n = file.lines.len();
    let mut allows: Vec<Vec<&'static str>> = vec![Vec::new(); n];
    let mut findings = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.comment.trim().is_empty() {
            continue;
        }
        match parse_directive(&line.comment) {
            Some(Directive::Allow(rule)) => {
                let target = if line.code.trim().is_empty() {
                    i + 1
                } else {
                    i
                };
                if target < n {
                    allows[target].push(rule);
                }
            }
            Some(Directive::Malformed(msg)) if !line.in_test => findings.push(Finding {
                file: relpath.to_string(),
                line: i + 1,
                rule: "suppression-syntax",
                excerpt: msg,
            }),
            _ => {}
        }
    }
    (allows, findings)
}

/// The per-line substring rules over one stripped file.
fn line_rule_findings(
    relpath: &str,
    file: &StrippedFile,
    allows: &[Vec<&'static str>],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for rule in RULES {
            if rule.patterns.is_empty()
                || !in_scope(rule.name, relpath)
                || allows[i].contains(&rule.name)
            {
                continue;
            }
            // lib-panic tolerates panics spelled inside debug_assert
            // lines — debug-only checks are part of the contract.
            if rule.name == "lib-panic" && line.code.contains("debug_assert") {
                continue;
            }
            let hits: usize = rule
                .patterns
                .iter()
                .map(|p| count_matches(&line.code, p))
                .sum();
            for _ in 0..hits {
                findings.push(Finding {
                    file: relpath.to_string(),
                    line: i + 1,
                    rule: rule.name,
                    excerpt: excerpt_of(&line.raw),
                });
            }
        }
    }
    findings
}

/// Substrings that open a parallel-iterator chain (rayon-shim API).
const PAR_TRIGGERS: &[&str] = &[".par_iter", ".into_par_iter", ".par_chunks"];

/// Float reductions whose result depends on split order.
const FLOAT_REDUCE: &[&str] = &[
    ".sum::<f32",
    ".sum::<f64",
    ".fold(0.0",
    ".fold(0f32",
    ".fold(0f64",
];

/// The parallel-region rules (`par-side-effect`, `float-reduce-order`):
/// finds each parallel-iterator chain, extends the region while the
/// chain stays open (unbalanced brackets or a continuation line starting
/// with `.`), and flags shared mutation / float reductions inside it.
///
/// Closure-local state is exempt: names bound by `let mut` inside the
/// region or appearing in a closure's `|...|` parameter list may be
/// taken by `&mut` — that is the frozen-scan idiom's scratch space, not
/// a scheduling leak.
fn par_region_findings(
    relpath: &str,
    file: &StrippedFile,
    allows: &[Vec<&'static str>],
) -> Vec<Finding> {
    let n = file.lines.len();
    let mut region = vec![false; n];
    let mut i = 0;
    while i < n {
        let code = &file.lines[i].code;
        if file.lines[i].in_test || !PAR_TRIGGERS.iter().any(|t| code.contains(t)) {
            i += 1;
            continue;
        }
        // Extend: bracket balance below zero never happens at a chain
        // start; the region runs while depth > 0 or the next line
        // continues the chain with a leading `.`.
        let mut depth: i64 = 0;
        let mut j = i;
        loop {
            region[j] = true;
            for c in file.lines[j].code.chars() {
                match c {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
            }
            let next = j + 1;
            if next >= n {
                break;
            }
            let cont = file.lines[next].code.trim_start().starts_with('.');
            if depth > 0 || cont {
                j = next;
            } else {
                break;
            }
        }
        i = j + 1;
    }

    // Names exempt from the &mut-capture check: closure params and
    // region-local `let mut` bindings.
    let mut locals: Vec<String> = Vec::new();
    for (k, line) in file.lines.iter().enumerate() {
        if !region[k] {
            continue;
        }
        let code = &line.code;
        let mut rest = code.as_str();
        while let Some(pos) = rest.find("let mut ") {
            rest = &rest[pos + "let mut ".len()..];
            if let Some(name) = leading_ident(rest) {
                locals.push(name);
            }
        }
        // `|a, (b, c)| ...` — every ident between a pair of `|` counts.
        if let Some(open) = code.find('|') {
            if let Some(close_rel) = code[open + 1..].find('|') {
                let params = &code[open + 1..open + 1 + close_rel];
                let mut cur = String::new();
                for c in params.chars().chain(std::iter::once(',')) {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        cur.push(c);
                    } else if !cur.is_empty() {
                        locals.push(std::mem::take(&mut cur));
                    }
                }
            }
        }
    }

    let mut findings = Vec::new();
    for (k, line) in file.lines.iter().enumerate() {
        if !region[k] || line.in_test {
            continue;
        }
        let code = &line.code;
        if in_scope("par-side-effect", relpath) && !allows[k].contains(&"par-side-effect") {
            let locking = code.contains(".lock(") || code.contains(".fetch_");
            let mut mut_capture = false;
            let mut rest = code.as_str();
            while let Some(pos) = rest.find("&mut ") {
                rest = &rest[pos + "&mut ".len()..];
                if let Some(name) = leading_ident(rest) {
                    if !locals.contains(&name) {
                        mut_capture = true;
                    }
                }
            }
            if locking || mut_capture {
                findings.push(Finding {
                    file: relpath.to_string(),
                    line: k + 1,
                    rule: "par-side-effect",
                    excerpt: excerpt_of(&line.raw),
                });
            }
        }
        if in_scope("float-reduce-order", relpath)
            && !allows[k].contains(&"float-reduce-order")
            && FLOAT_REDUCE.iter().any(|p| code.contains(p))
        {
            findings.push(Finding {
                file: relpath.to_string(),
                line: k + 1,
                rule: "float-reduce-order",
                excerpt: excerpt_of(&line.raw),
            });
        }
    }
    findings
}

/// The identifier starting at the head of `s`, if any.
fn leading_ident(s: &str) -> Option<String> {
    let name: String = s
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Scans already-stripped source with the *shallow* (per-line +
/// parallel-region) rules. Separated from I/O so fixtures can be
/// scanned under any pretend path (the path selects the rule scopes).
/// Cross-file propagation (`panic-reach`, `det-taint`) lives in
/// [`scan_files`].
pub fn scan_stripped(relpath: &str, file: &StrippedFile) -> Vec<Finding> {
    let (allows, mut findings) = collect_allows(relpath, file);
    findings.extend(line_rule_findings(relpath, file, &allows));
    findings.extend(par_region_findings(relpath, file, &allows));
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

/// Strips and scans one source text under a pretend workspace path.
pub fn scan_source(relpath: &str, text: &str) -> Vec<Finding> {
    scan_stripped(relpath, &strip(text))
}

/// The deep scan: shallow rules per file, then item extraction, the
/// cross-file call graph (resolved within each crate's `deps`), and both
/// taint propagation passes. A `panic-reach` finding sits on the `pub
/// fn`'s declaration line and a `det-taint` finding on the seed line, so
/// suppressions there apply.
pub fn scan_files(inputs: &[(String, String)], deps: &CrateDeps) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut extracted = Vec::new();
    let mut panic_seeds = Vec::new();
    let mut det_seeds = Vec::new();
    let mut allows_by_file: BTreeMap<&str, Vec<Vec<&'static str>>> = BTreeMap::new();
    for (rel, text) in inputs {
        let stripped = strip(text);
        let (allows, mut supp) = collect_allows(rel, &stripped);
        findings.append(&mut supp);
        findings.extend(line_rule_findings(rel, &stripped, &allows));
        findings.extend(par_region_findings(rel, &stripped, &allows));
        panic_seeds.extend(crate::taint::panic_seeds(rel, &stripped, &allows));
        det_seeds.extend(crate::taint::det_seeds(rel, &stripped, &allows));
        extracted.push(crate::items::extract(rel, &stripped));
        allows_by_file.insert(rel, allows);
    }
    let graph = crate::callgraph::build(&extracted, deps);
    let allowed = |f: &Finding| {
        allows_by_file
            .get(f.file.as_str())
            .and_then(|a| a.get(f.line.wrapping_sub(1)))
            .is_some_and(|rules| rules.contains(&f.rule))
    };
    findings.extend(
        crate::taint::panic_reach(&graph, &panic_seeds)
            .into_iter()
            .filter(|f| !allowed(f)),
    );
    findings.extend(
        crate::taint::det_taint(&graph, &det_seeds)
            .into_iter()
            .filter(|f| !allowed(f)),
    );
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

fn excerpt_of(raw: &str) -> String {
    let t = raw.trim();
    if t.len() > 96 {
        let mut end = 93;
        while !t.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &t[..end])
    } else {
        t.to_string()
    }
}

/// The source trees the workspace lint covers: the facade's `src/` and
/// every `crates/<name>/src/`. `crates/compat/` (vendored API shims — the
/// external-world boundary, not our determinism surface) has no direct
/// `src/` and its nested crates are skipped explicitly. Test dirs are
/// never walked; per-rule path scopes are in [`crate::rules::in_scope`].
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), root, &mut files)?;
    let crates = root.join("crates");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    // read_dir order is platform-dependent; the lint's own output must be
    // deterministic.
    entries.sort();
    for entry in entries {
        if entry.file_name().is_some_and(|n| n == "compat") {
            continue;
        }
        let src = entry.join("src");
        if src.is_dir() {
            collect_rs(&src, root, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// The manifests of the crates [`workspace_files`] covers, as `(crate,
/// Cargo.toml text)`: the root's for `gapart` (the facade in `src/`) and
/// `crates/<name>/Cargo.toml` for `<name>`.
fn workspace_manifests(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut manifests = vec![(
        "gapart".to_string(),
        std::fs::read_to_string(root.join("Cargo.toml"))?,
    )];
    for entry in std::fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let manifest = dir.join("Cargo.toml");
        let Some(name) = dir.file_name() else {
            continue;
        };
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)?;
            manifests.push((name.to_string_lossy().into_owned(), text));
        }
    }
    Ok(manifests)
}

/// Scans every workspace source file — shallow rules plus the
/// cross-file call-graph passes — and returns all findings.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut inputs = Vec::new();
    for (rel, path) in workspace_files(root)? {
        inputs.push((rel, std::fs::read_to_string(&path)?));
    }
    let deps = CrateDeps::from_manifests(&workspace_manifests(root)?);
    Ok(scan_files(&inputs, &deps))
}

/// Outcome of comparing findings against the baseline.
#[derive(Debug, Clone, Default)]
pub struct Ratchet {
    /// `(file, rule)` groups that exceed their allowance, with the full
    /// finding list for the group (counts can't tell which one is new).
    pub over: Vec<OverBudget>,
    /// `(file, rule, found, allowed)` groups now under their allowance —
    /// the baseline is stale and can ratchet down.
    pub stale: Vec<(String, String, usize, usize)>,
    /// Total findings seen.
    pub total: usize,
    /// Findings covered by the baseline.
    pub baselined: usize,
}

/// One `(file, rule)` group over its baseline allowance.
#[derive(Debug, Clone)]
pub struct OverBudget {
    /// Workspace-relative path.
    pub file: String,
    /// Rule id.
    pub rule: String,
    /// Findings counted in this scan.
    pub found: usize,
    /// Baseline allowance.
    pub allowed: usize,
    /// Every finding in the group, for the report.
    pub findings: Vec<Finding>,
}

impl Ratchet {
    /// Whether the scan passes the ratchet.
    pub fn ok(&self) -> bool {
        self.over.is_empty()
    }
}

/// Applies the baseline ratchet to a finding list.
pub fn apply_baseline(findings: &[Finding], baseline: &Baseline) -> Ratchet {
    let mut groups: BTreeMap<(String, String), Vec<Finding>> = BTreeMap::new();
    for f in findings {
        groups
            .entry((f.file.clone(), f.rule.to_string()))
            .or_default()
            .push(f.clone());
    }
    let mut r = Ratchet {
        total: findings.len(),
        ..Default::default()
    };
    for ((file, rule), group) in &groups {
        let allowed = baseline.allowed_for(file, rule);
        let found = group.len();
        if found > allowed {
            r.over.push(OverBudget {
                file: file.clone(),
                rule: rule.clone(),
                found,
                allowed,
                findings: group.clone(),
            });
        } else {
            r.baselined += found;
            if found < allowed {
                r.stale.push((file.clone(), rule.clone(), found, allowed));
            }
        }
    }
    // Baseline entries for (file, rule) groups with zero findings are
    // stale too — the debt was paid, record the shrink.
    for (file, rules) in &baseline.allowed {
        for (rule, &allowed) in rules {
            if allowed > 0 && !groups.contains_key(&(file.clone(), rule.clone())) {
                r.stale.push((file.clone(), rule.clone(), 0, allowed));
            }
        }
    }
    r.stale.sort();
    r
}

/// Rebuilds a baseline that exactly matches `findings`.
pub fn baseline_from_findings(findings: &[Finding]) -> Baseline {
    let mut b = Baseline::default();
    for f in findings {
        *b.allowed
            .entry(f.file.clone())
            .or_default()
            .entry(f.rule.to_string())
            .or_insert(0) += 1;
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_parsing() {
        assert_eq!(
            parse_directive(" gapart-lint: allow(lib-panic) -- invariant: len > 0"),
            Some(Directive::Allow("lib-panic"))
        );
        assert_eq!(
            parse_directive(" plain prose about gapart-lint: stuff"),
            None
        );
        assert!(matches!(
            parse_directive("gapart-lint: allow(lib-panic)"),
            Some(Directive::Malformed(_))
        ));
        assert!(matches!(
            parse_directive("gapart-lint: allow(nope) -- reason"),
            Some(Directive::Malformed(_))
        ));
        assert!(matches!(
            parse_directive("gapart-lint: deny(lib-panic) -- reason"),
            Some(Directive::Malformed(_))
        ));
    }

    #[test]
    fn suppression_on_same_and_previous_line() {
        let src = "\
fn f(x: Option<u32>) -> u32 {
    // gapart-lint: allow(lib-panic) -- checked two lines up
    x.unwrap()
}
fn g(x: Option<u32>) -> u32 {
    x.unwrap() // gapart-lint: allow(lib-panic) -- caller contract
}
fn h(x: Option<u32>) -> u32 {
    x.unwrap()
}
";
        let f = scan_source("crates/graph/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (9, "lib-panic"));
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = "\
// HashMap in a comment, Instant::now too
fn f() -> &'static str {
    \"HashMap .unwrap() panic!( as u32\"
}
";
        assert!(scan_source("crates/graph/src/fm.rs", src).is_empty());
    }

    #[test]
    fn test_mods_are_exempt() {
        let src = "\
fn lib() {}
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    fn t() {
        let m: HashMap<u32, u32> = HashMap::new();
        m.get(&0).unwrap();
    }
}
";
        assert!(scan_source("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn ratchet_directions() {
        let finding = |file: &str, line| Finding {
            file: file.into(),
            line,
            rule: "lib-panic",
            excerpt: String::new(),
        };
        let two = vec![finding("a.rs", 1), finding("a.rs", 2)];
        let exact = baseline_from_findings(&two);

        let r = apply_baseline(&two, &exact);
        assert!(r.ok() && r.stale.is_empty() && r.baselined == 2);

        let three = vec![finding("a.rs", 1), finding("a.rs", 2), finding("a.rs", 3)];
        let r = apply_baseline(&three, &exact);
        assert!(!r.ok());
        assert_eq!((r.over[0].found, r.over[0].allowed), (3, 2));

        let one = vec![finding("a.rs", 1)];
        let r = apply_baseline(&one, &exact);
        assert!(r.ok());
        assert_eq!(r.stale, vec![("a.rs".into(), "lib-panic".into(), 1, 2)]);

        let r = apply_baseline(&[], &exact);
        assert!(r.ok());
        assert_eq!(r.stale, vec![("a.rs".into(), "lib-panic".into(), 0, 2)]);

        // Not in the baseline at all: a single finding fails.
        let r = apply_baseline(&one, &Baseline::default());
        assert!(!r.ok());
    }
}
