//! Summary statistics used when aggregating experiment runs.
//!
//! The paper reports means over 3–5 runs with 95 % confidence intervals;
//! [`Summary`] computes exactly that (using the normal approximation, which is
//! what ns-2 post-processing scripts conventionally do for a handful of runs).

use std::fmt;

/// Accumulates samples and reports mean, standard deviation and a 95 %
/// confidence half-interval.
///
/// ```
/// use wsn_sim::stats::Summary;
///
/// let s: Summary = [0.9, 0.95, 1.0].into_iter().collect();
/// assert!((s.mean() - 0.95).abs() < 1e-12);
/// assert!(s.ci95() > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    sum: f64,
    sum_sq: f64,
    min: f64,
    max: f64,
}

/// z-value for a two-sided 95 % interval under the normal approximation.
const Z_95: f64 = 1.959964;

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.sum_sq += value * value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples added.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns `true` when no samples have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sample variance (unbiased, 0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sum_sq - self.sum * self.sum / n) / (n - 1.0);
        var.max(0.0) // guard against tiny negative values from cancellation
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of a 95 % confidence interval around the mean
    /// (normal approximation; 0 with fewer than two samples).
    pub fn ci95(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        Z_95 * self.std_dev() / (self.count as f64).sqrt()
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} ± {:.4} (n={}, min={:.4}, max={:.4})",
            self.mean(),
            self.ci95(),
            self.count,
            self.min(),
            self.max()
        )
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for v in iter {
            s.add(v);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.add(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zero() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.ci95(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn known_mean_and_variance() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample variance of this classic data set is 4.571428...
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s: Summary = [0.5].into_iter().collect();
        assert_eq!(s.mean(), 0.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn identical_samples_have_zero_ci() {
        let s: Summary = std::iter::repeat(3.3).take(10).collect();
        assert!((s.mean() - 3.3).abs() < 1e-12);
        assert!(s.ci95() < 1e-9);
    }

    #[test]
    fn ci_shrinks_with_more_samples() {
        let small: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let big: Summary = [1.0, 2.0, 3.0].iter().cycle().take(300).copied().collect();
        assert!(big.ci95() < small.ci95());
    }

    #[test]
    fn extend_and_display() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        assert_eq!(s.count(), 2);
        assert!(!format!("{s}").is_empty());
    }
}
