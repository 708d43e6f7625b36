//! Order statistics and metric-name rules shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so the quartiles a run prints match the spread
/// `runs.py` computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The value at percentile `p` (0–100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let data = sorted(values);
    if data.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    Some(data[rank.clamp(1, data.len()) - 1])
}

/// Percentiles a tail latency may be reported at, in tenths of a
/// percent (integers, so the count test below is exact), highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything more than its few largest samples.
pub const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] of `count` samples beyond it; `None` when even the
/// median has fewer (one request per run has no percentile at all).
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| count * (1000 - p) >= MIN_BEYOND * 1000)
        .map(|p| p as f64 / 10.0)
}

/// The metric-name grammar: `[A-Za-z0-9_.-]+`, starting with a letter
/// or digit, at most 64 characters.
pub fn is_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([1, 3, 4, 8, 9], n=4) == [2.0, 4.0, 8.5]
        assert_eq!(quartiles(&[9.0, 1.0, 4.0, 8.0, 3.0]), Some((2.0, 4.0, 8.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&hundred, 99.0), Some(99.0));
        assert_eq!(percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(percentile(&[4.0], 99.0), Some(4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(1), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // 39 paper-dpga requests: the median, but no tail percentile.
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        // 1,000 commits leave exactly ten beyond p99.
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "io.parse_s",
            "request_ms_p50",
            "trace.overhead",
            "a-b",
            "9x",
        ] {
            assert!(is_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "-x",
            "has space",
            "slash/x",
            "é",
            &"a".repeat(65),
        ] {
            assert!(!is_metric_name(bad), "{bad}");
        }
        assert!(is_metric_name(&"a".repeat(64)));
    }
}
