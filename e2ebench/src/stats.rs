//! Order statistics over latency samples.

/// A sorted sample set. Percentiles follow the benchmark's reporting
/// rule: `p50` is the median, and the tail percentile is the highest of
/// p99/p95/p90/p50 that still has at least ten samples beyond it.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile, `q` in [0, 1]. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = (q * (self.sorted.len() - 1) as f64).round() as usize;
        Some(self.sorted[rank.min(self.sorted.len() - 1)])
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// `(percentile, value)` for the highest percentile among 99, 95,
    /// 90 and 50 that leaves at least ten samples above it.
    pub fn tail(&self) -> Option<(u32, f64)> {
        let n = self.sorted.len();
        [99u32, 95, 90, 50]
            .into_iter()
            .find(|&p| n as f64 * (100 - p) as f64 / 100.0 >= 10.0)
            .and_then(|p| self.quantile(p as f64 / 100.0).map(|v| (p, v)))
    }
}

/// Median of a small set of measurements (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), Some(99));
        let s = Samples::new((1..=300).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), Some(95));
        let s = Samples::new((1..=15).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), None);
        let s = Samples::new((1..=25).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), Some(50));
    }

    #[test]
    fn median_of_odd_set() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
