//! Order statistics for the benchmark's reported timings.

/// Percentiles the tail report may use, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice: every caller measures at
/// least one sample before asking.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of ascending `sorted` samples, with the number
/// of samples that lie strictly beyond its rank.
pub fn percentile(sorted: &[f64], pct: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    // The small epsilon keeps binary rounding of `pct` from adding a rank.
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
    (sorted[rank - 1], n - rank)
}

/// The highest candidate percentile that still has at least
/// [`MIN_BEYOND_TAIL`] samples beyond it, as `(percentile, value)`;
/// `None` when even the median has fewer.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    if sorted.is_empty() {
        return None;
    }
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let (value, beyond) = percentile(sorted, pct);
        (beyond >= MIN_BEYOND_TAIL).then_some((pct, value))
    })
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Split `values` (in arrival order) into as many consecutive windows of at
/// least `min_window` samples as fit, take percentile `pct` of each, and
/// return the median of those with every window's value. A stall that
/// lands in one window moves that window's percentile, not the median.
/// `None` when fewer than `min_window` samples were taken.
pub fn windowed_percentile(values: &[f64], min_window: usize, pct: f64) -> Option<(f64, Vec<f64>)> {
    let windows = values.len() / min_window.max(1);
    if windows == 0 {
        return None;
    }
    let width = values.len() / windows;
    let per_window: Vec<f64> = values
        .chunks(width)
        .take(windows)
        .map(|w| percentile(&sorted(w), pct).0)
        .collect();
    Some((median(&mut per_window.clone()), per_window))
}
