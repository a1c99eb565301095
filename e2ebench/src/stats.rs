//! Order statistics over timing samples.

/// Median of `xs` (mean of the middle pair for an even count); NaN when
/// empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
pub struct Tail {
    pub value: f64,
    /// The percentile, by nearest rank.
    pub percentile: f64,
    /// Samples it was taken over, and how many lie beyond it.
    pub samples: usize,
    pub beyond: usize,
}

/// The tail of `xs` (sorted in place). Nearest rank `n - 10` leaves
/// exactly ten samples above it; with fewer than 22 samples that rank
/// would not be above the median, so it is held just above it.
pub fn tail(xs: &mut [f64]) -> Tail {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            samples: 0,
            beyond: 0,
        };
    }
    let rank = n.saturating_sub(TAIL_BEYOND).max(n / 2 + 1);
    Tail {
        value: xs[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
        beyond: n - rank,
    }
}
