//! Sample statistics with one honesty rule: a percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie beyond it, so a "p99" is never
//! read off a handful of points. Every summary carries its sample count.

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A growable set of measurements (any unit; the caller names it).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }

    /// Nearest-rank percentile `q` in `(0, 1)`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond its rank.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q < 1.0, "percentile must lie in (0, 1)");
        let n = self.values.len();
        // 1-based nearest rank; the epsilon keeps 0.99 · 1000 at rank 990.
        let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
        if n < rank + MIN_BEYOND {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// The median under the same rule (needs at least 20 samples).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// The median of a few repetitions of one whole measurement (set-up
    /// passes, whole simulations), where only the centre is reported.
    /// Not for per-operation latencies: use [`Samples::median`] there.
    pub fn median_of_runs(&self) -> Option<f64> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        Some(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        })
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn median_needs_ten_samples_above_it() {
        assert_eq!(ramp(19).median(), None);
        assert_eq!(ramp(20).median(), Some(10.0));
        assert_eq!(ramp(21).median(), Some(11.0));
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        assert_eq!(ramp(99).percentile(0.9), None);
        assert_eq!(ramp(100).percentile(0.9), Some(90.0));
        assert_eq!(ramp(999).percentile(0.99), None);
        assert_eq!(ramp(1000).percentile(0.99), Some(990.0));
    }

    #[test]
    fn order_of_insertion_does_not_matter() {
        let forward = ramp(200);
        let backward: Samples = (1..=200).rev().map(|v| v as f64).collect();
        assert_eq!(forward.percentile(0.9), backward.percentile(0.9));
        assert_eq!(forward.len(), 200);
    }

    #[test]
    fn median_of_runs_takes_the_centre_of_few_values() {
        let s: Samples = [3.0, 1.0, 2.0].into_iter().collect();
        assert_eq!(s.median_of_runs(), Some(2.0));
        let s: Samples = [4.0, 1.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.median_of_runs(), Some(2.5));
        assert_eq!(Samples::new().median_of_runs(), None);
    }

    #[test]
    fn sum_and_mean() {
        let s = ramp(4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(Samples::new().mean(), None);
    }
}
