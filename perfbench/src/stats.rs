//! Order statistics for latency samples.
//!
//! A percentile is reported only when at least [`TAIL_MIN_BEYOND`]
//! samples lie beyond it, so `p99` needs 1,000 samples. Percentiles use
//! linear interpolation between closest ranks (the same rule as
//! `numpy.percentile`'s default).

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile (`q` in `[0, 1]`) of ascending `sorted`, linearly
/// interpolated; `NaN` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of `values` (any order); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.5)
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] beyond the
/// `q`-quantile.
pub fn tail_resolved(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.99` not being exactly 0.01.
    n as f64 * (1.0 - q) + 1e-9 >= TAIL_MIN_BEYOND as f64
}

/// The highest quantile of `n` samples that has [`TAIL_MIN_BEYOND`]
/// samples beyond it, and never below the median: the tail figure to
/// report when `n` is too small to resolve the p99.
pub fn resolved_tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - TAIL_MIN_BEYOND as f64 / n as f64).max(0.5)
}

/// Latency summary of one sample set, in the samples' unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile, withheld (`None`) below 100 samples.
    pub p90: Option<f64>,
    /// 99th percentile, withheld (`None`) below 1,000 samples.
    pub p99: Option<f64>,
    /// The [`resolved_tail_quantile`] of the samples.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(Summary {
            n,
            p50: quantile_sorted(&sorted, 0.5),
            p90: tail_resolved(n, 0.9).then(|| quantile_sorted(&sorted, 0.9)),
            p99: tail_resolved(n, 0.99).then(|| quantile_sorted(&sorted, 0.99)),
            tail: quantile_sorted(&sorted, resolved_tail_quantile(n)),
        })
    }
}

/// Most windows a run's p99 is split into.
pub const P99_WINDOWS: usize = 10;

/// The p99 of a run as the median of per-window p99s: `samples` (in
/// completion order) are cut into up to [`P99_WINDOWS`] consecutive
/// windows of equal count, each large enough to resolve its own p99.
/// A brief stall then moves one window's tail, not the run's figure.
/// Returns the value and the window count; `None` below 1,000 samples.
pub fn windowed_p99(samples: &[f64]) -> Option<(f64, usize)> {
    let per_window = (TAIL_MIN_BEYOND * 100).max(1);
    let windows = (samples.len() / per_window).min(P99_WINDOWS);
    if windows == 0 {
        return None;
    }
    let size = samples.len() / windows;
    let p99s: Vec<f64> = samples
        .chunks_exact(size)
        .take(windows)
        .filter_map(|window| Summary::of(window).and_then(|s| s.p99))
        .collect();
    (p99s.len() == windows).then(|| (median(&p99s), windows))
}

/// `total - parts`, clamped at zero: a residual time (transport,
/// coordinator overhead) derived from two separately measured runs.
/// Scheduling noise can make the parts exceed the whole; the residual
/// is then reported as zero, never negative.
pub fn residual(total: f64, parts: f64) -> f64 {
    (total - parts).max(0.0)
}
