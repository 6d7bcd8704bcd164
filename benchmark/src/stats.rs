//! Summary statistics for timings and run-to-run spreads.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed here matches one
//! computed over the same values with the standard library there.

/// Sorted copy of `values`, or `None` when any value is NaN.
fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered above"));
    Some(v)
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values)?;
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values)?;
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp raised `j`: Python extrapolates then.
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// 1-based nearest-rank position of percentile `p` among `count` samples.
/// `p` is taken to a tenth of a percent, in integers, so that e.g. p99.9
/// of 10,000 samples is rank 9,990 exactly.
fn rank(count: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * count).div_ceil(1000)
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values)?;
    if v.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    Some(v[rank(v.len(), p).clamp(1, v.len()) - 1])
}

/// Percentiles a timing may be reported at, highest first.
const REPORTABLE: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples strictly above the nearest-rank position of percentile `p`.
pub fn samples_beyond(count: usize, p: f64) -> usize {
    count.saturating_sub(rank(count, p))
}

/// The highest reportable percentile with at least ten samples beyond
/// it, or `None` below twenty samples.
pub fn top_percentile(count: usize) -> Option<f64> {
    REPORTABLE
        .into_iter()
        .find(|&p| samples_beyond(count, p) >= 10)
}

/// A timing distribution as the benchmark reports it: the median, the
/// highest percentile the sample count supports, and the count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// The median (0 for no samples).
    pub median: f64,
    /// `(percentile, value)` of [`top_percentile`], when supported.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let top = top_percentile(values.len())
            .and_then(|p| percentile(values, p).map(|value| (p, value)));
        Summary {
            count: values.len(),
            median: median(values).unwrap_or(0.0),
            top,
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p50 {:.4}", self.median)?;
        if let Some((p, v)) = self.top.filter(|&(p, _)| p > 50.0) {
            write!(f, ", p{p} {v:.4}")?;
        }
        write!(f, " (n={})", self.count)
    }
}
