//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a timing distribution: the highest percentile that still
/// has [`TAIL_BEYOND`] samples above it.
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The highest percentile of `values` with [`TAIL_BEYOND`] samples beyond
/// it. With too few samples for that, the median stands in, and its
/// percentile reads 50.
pub fn tail(values: &[f64]) -> Tail {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return Tail {
            value: median(values),
            percentile: 50.0,
            samples: n,
        };
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = n - TAIL_BEYOND - 1;
    Tail {
        value: sorted[at],
        percentile: 100.0 * (at + 1) as f64 / n as f64,
        samples: n,
    }
}
