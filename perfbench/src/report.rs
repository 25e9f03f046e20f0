//! Result assembly: metric values, medians, histogram quantiles, the
//! machine descriptor, and the JSON lines the benchmark prints.

use bpr_serve::LatencyHistogram;
use std::fmt::Write as _;

/// Version of the result layout printed on stdout.
pub const SCHEMA: &str = "bpr-perfbench/2";

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of `values` (mean of the middle pair for even lengths); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Width (ns) of the histogram bucket whose upper bound is `upper`:
/// values below 16 ns have unit buckets, larger ones 16 linear minor
/// buckets per power of two.
fn bucket_width(upper: u64) -> u64 {
    if upper < 16 {
        return 1;
    }
    let log2 = 63 - u64::from(upper.leading_zeros());
    let shift = log2 - 4;
    if upper >> shift > 16 {
        1 << shift
    } else {
        1 << (shift - 1)
    }
}

/// Upper bound (ns) of the bucket holding rank `r` (1-based) of
/// `hist`. `quantile(x)` uses rank ceil(x·total); (r − ½)/total hits
/// rank r exactly without floating-point rounding at the boundary.
fn upper_at_rank(hist: &LatencyHistogram, r: u64) -> u64 {
    hist.quantile((r as f64 - 0.5) / hist.total() as f64)
}

/// The bucket holding rank `rank`: its upper bound and the first and
/// last ranks it holds. Reads the histogram through its public
/// `quantile` only, finding the bucket's rank range by bisection.
fn bucket_of_rank(hist: &LatencyHistogram, rank: u64) -> (u64, u64, u64) {
    let upper = upper_at_rank(hist, rank);
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if upper_at_rank(hist, mid) == upper {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, hist.total());
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if upper_at_rank(hist, mid) == upper {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (upper, first, lo)
}

/// The `q`-quantile of `hist` in ns, interpolated linearly inside the
/// bucket that holds it (the histogram itself only reports bucket upper
/// bounds).
pub fn interpolated_quantile_ns(hist: &LatencyHistogram, q: f64) -> f64 {
    let total = hist.total();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let (upper, first, last) = bucket_of_rank(hist, rank);
    let width = bucket_width(upper) as f64;
    let position = (rank - first) as f64 + 0.5;
    upper as f64 - width + width * position / (last - first + 1) as f64
}

/// Mean of `hist` in ns, counting every sample at its bucket's midpoint
/// (within half a bucket, ≤ 3 %, of the exact mean).
pub fn histogram_mean_ns(hist: &LatencyHistogram) -> f64 {
    let total = hist.total();
    let mut sum = 0.0;
    let mut rank = 1;
    while rank <= total {
        let (upper, _, last) = bucket_of_rank(hist, rank);
        let mid = upper as f64 - bucket_width(upper) as f64 / 2.0;
        sum += mid * (last - rank + 1) as f64;
        rank = last + 1;
    }
    if total == 0 {
        0.0
    } else {
        sum / total as f64
    }
}

/// `hist` with every sample moved to its bucket's midpoint scaled by
/// `factor`: the same decisions at another machine speed (see
/// [`crate::pace`]).
pub fn scaled_histogram(hist: &LatencyHistogram, factor: f64) -> LatencyHistogram {
    let mut out = LatencyHistogram::default();
    let mut rank = 1;
    while rank <= hist.total() {
        let (upper, _, last) = bucket_of_rank(hist, rank);
        let mid = upper as f64 - bucket_width(upper) as f64 / 2.0;
        for _ in rank..=last {
            out.record((mid * factor).round() as u64);
        }
        rank = last + 1;
    }
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU model, `nproc` and kernel of the machine the result was taken
/// on, as a JSON object.
pub fn machine_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"kernel\": {}, \"arch\": {}}}",
        json_str(&cpu),
        json_str(&kernel),
        json_str(std::env::consts::ARCH)
    )
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) print as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_quantile_stays_inside_the_reported_bucket() {
        let mut h = LatencyHistogram::default();
        for ns in [1_000u64, 1_010, 1_020, 1_030, 5_000, 9_000, 9_100, 20_000] {
            h.record(ns);
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let upper = h.quantile(q) as f64;
            let v = interpolated_quantile_ns(&h, q);
            assert!(v <= upper, "q={q}: {v} above bucket upper {upper}");
            assert!(v > upper * 0.9, "q={q}: {v} far below bucket upper {upper}");
        }
    }

    #[test]
    fn histogram_mean_is_within_half_a_bucket() {
        let mut h = LatencyHistogram::default();
        let samples = [1_000u64, 1_010, 1_020, 1_030, 5_000, 9_000, 9_100, 20_000];
        for ns in samples {
            h.record(ns);
        }
        let exact = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        let est = histogram_mean_ns(&h);
        assert!((est - exact).abs() / exact < 0.03, "{est} vs {exact}");
        assert_eq!(histogram_mean_ns(&LatencyHistogram::default()), 0.0);
    }

    #[test]
    fn scaled_histogram_moves_every_sample() {
        let mut h = LatencyHistogram::default();
        for ns in [1_000u64, 1_010, 5_000, 9_000, 20_000] {
            h.record(ns);
        }
        assert_eq!(scaled_histogram(&h, 1.0).total(), h.total());
        let doubled = scaled_histogram(&h, 2.0);
        assert_eq!(doubled.total(), h.total());
        for q in [0.2, 0.6, 1.0] {
            let (a, b) = (h.quantile(q) as f64, doubled.quantile(q) as f64);
            assert!((b / a - 2.0).abs() < 0.13, "q={q}: {a} -> {b}");
        }
    }

    #[test]
    fn bucket_widths_match_the_histogram_layout() {
        assert_eq!(bucket_width(7), 1);
        // 1024 = 2^10 → minor buckets of 2^6 = 64 ns; 1088 = 17·64.
        assert_eq!(bucket_width(1088), 64);
        // 2048 = 32·64 is the last minor bucket of the 2^10 major.
        assert_eq!(bucket_width(2048), 64);
        assert_eq!(bucket_width(2176), 128);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(1.5), "1.5");
    }
}
