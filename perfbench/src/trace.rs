//! In-memory spans and counts for the traced run.
//!
//! A span records a layer name, its start and end (nanoseconds since the
//! tracer was made), the span that caused it and the request it belongs
//! to. Spans stay in memory while the workload runs and are written out
//! once, after the run, so tracing never waits on a disk.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: u32,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span and count recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u32,
    counts: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counts: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new request; every span opened until it
    /// closes shares its request id.
    pub fn begin_request(&mut self, name: &'static str) -> SpanId {
        self.request += 1;
        let id = self.begin(name);
        self.spans[id.0].request = self.request;
        id
    }

    /// Opens a span whose parent is the innermost open span. Spans outside
    /// every request (set-up, recovery) carry request id 0.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            request: parent.map_or(0, |p| self.spans[p].request),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `value` to the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    /// The count `name` (0 when never recorded).
    pub fn counted(&self, name: &'static str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Records one per-call value of `name`, such as a call's level count.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median per-call value of `name` (0 when never recorded).
    pub fn sampled(&self, name: &'static str) -> f64 {
        self.samples
            .get(name)
            .and_then(|v| crate::stats::median(v))
            .unwrap_or(0.0)
    }

    /// Total seconds spent in spans named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Seconds of the request spans named `root`, with the shadow spans
    /// under them taken out: a shadow span repeats a call the request
    /// already makes, so it is extra work of the traced run, not part of
    /// the request.
    pub fn request_seconds(&self, root: &str, shadows: &[&str]) -> f64 {
        self.seconds(root) - self.child_seconds(root, |name| shadows.contains(&name))
    }

    /// The share of request time (as [`Tracer::request_seconds`]) that the
    /// direct child spans of the `root` spans cover, shadows excluded.
    pub fn coverage(&self, root: &str, shadows: &[&str]) -> f64 {
        let covered = self.child_seconds(root, |name| !shadows.contains(&name));
        covered / self.request_seconds(root, shadows)
    }

    fn child_seconds(&self, root: &str, keep: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == root) && keep(s.name))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Tab-separated spans, one per line:
    /// `request parent index name start_ns end_ns` (parent `-` at a root).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("request\tparent\tindex\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{parent}\t{i}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_the_request_id() {
        let mut t = Tracer::default();
        let root = t.begin_request("req");
        t.time("layer", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("shadow", || ());
        t.end(root);
        let tsv = t.to_tsv();
        let rows: Vec<Vec<&str>> = tsv
            .lines()
            .skip(1)
            .map(|l| l.split('\t').collect())
            .collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r[0] == "1"));
        assert_eq!(rows[0][1], "-");
        assert_eq!(rows[1][1], "0");
        assert!(t.seconds("layer") >= 0.002);
        let cov = t.coverage("req", &["shadow"]);
        assert!(cov > 0.0 && cov <= 1.0, "{cov}");
    }
}
