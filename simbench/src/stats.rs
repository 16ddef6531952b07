//! The arithmetic behind the reported numbers: rates, ratios and the
//! percentile pick.

/// Samples that must lie strictly above a reported percentile: a
/// percentile with fewer samples beyond it is one or two outliers, not
/// a tail.
pub const MIN_BEYOND: usize = 10;

/// Simulated million instructions per host second.
pub fn sim_mips(instructions: u64, host_ns: u64) -> f64 {
    assert!(host_ns > 0, "a rate needs a nonzero host time");
    instructions as f64 * 1e3 / host_ns as f64
}

/// Nearest-rank percentile of `samples` (`pct` in `1..=100`): the
/// smallest sample with at least `pct` % of the samples at or below it.
///
/// Returns `None` unless at least [`MIN_BEYOND`] samples lie beyond the
/// picked rank, so a reported tail always rests on ten samples.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    assert!((1..=100).contains(&pct), "percentile {pct} outside 1..=100");
    let n = samples.len();
    let rank = nearest_rank(n, pct);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn nearest_rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Sample count needed before `percentile(_, pct)` answers.
pub fn samples_needed(pct: usize) -> usize {
    assert!(
        (1..100).contains(&pct),
        "no sample count has a tail beyond p{pct}"
    );
    (1..)
        .find(|&n| n >= nearest_rank(n, pct) + MIN_BEYOND)
        .expect("pct < 100 always leaves room for the tail")
}

/// Median of `samples` (the mean of the middle two for an even count),
/// or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// A timing taken once per round, at the reference host speed: the
/// median over rounds of `values[r] / slowdowns[r]`.
pub fn median_at_reference(values: &[f64], slowdowns: &[f64]) -> Option<f64> {
    assert_eq!(values.len(), slowdowns.len(), "one slowdown per round");
    let scaled: Vec<f64> = values.iter().zip(slowdowns).map(|(v, s)| v / s).collect();
    median(&scaled)
}

/// `part / whole` as a float, 0 for an empty whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Peak resident set of this process, MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
