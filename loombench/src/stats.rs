//! Order statistics over timing samples.

use std::time::Duration;

/// Tail percentiles the benchmark may report, highest first. The tail of
/// a sample set is the highest of these with at least
/// [`TAIL_MIN_BEYOND`] samples above it.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples — the same
/// rule `loom::Aggregate::Percentile` uses.
pub fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `values` (sorted in place); `NaN` when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    values[nearest_rank(p, values.len()) - 1]
}

/// Median (nearest rank); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 50.0)
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` with fewer than that many samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= TAIL_MIN_BEYOND)
}

/// A timing sample set, kept in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Adds one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Median in milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.0)
    }

    /// `(percentile, value in ms)` of the tail, see [`tail_percentile`].
    pub fn tail_ms(&self) -> Option<(f64, f64)> {
        let p = tail_percentile(self.0.len())?;
        Some((p, percentile(&mut self.0.clone(), p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_engine_rule() {
        assert_eq!(nearest_rank(50.0, 4), 2);
        assert_eq!(nearest_rank(99.99, 10_000), 9_999);
        assert_eq!(nearest_rank(100.0, 3), 3);
        assert_eq!(nearest_rank(0.0, 3), 1);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        // 99.9 % of 10 000 rounds up to rank 9 991 in floating point.
        assert_eq!(tail_percentile(10_000), Some(99.0));
        assert_eq!(tail_percentile(10_240), Some(99.9));
    }
}
