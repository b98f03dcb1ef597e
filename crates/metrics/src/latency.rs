//! Deterministic latency percentiles for the query service.
//!
//! The batch experiments report means with confidence intervals
//! ([`crate::Summary`]); a long-lived service is judged by its tail, so the
//! load generator reports p50/p99 instead. Percentiles here use the
//! **nearest-rank** definition — `p_q = sorted[⌈q/100 · n⌉ - 1]` — which
//! always returns an actual sample: no interpolation, so the reported number
//! is bit-identical across runs and platforms (the JSON goldens rely on
//! this).

/// Latency distribution of a sample set, summarised by its tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples the percentiles were computed over.
    pub count: usize,
    /// Median (50th percentile, nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

impl LatencyStats {
    /// Summarises `samples` (any order; NaNs are rejected by debug assert).
    /// Returns `None` for an empty sample set — a service that answered
    /// nothing has no latency, not a zero latency.
    pub fn from_samples(samples: &[f64]) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        debug_assert!(samples.iter().all(|s| !s.is_nan()), "NaN latency sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(LatencyStats {
            count: sorted.len(),
            p50: percentile_sorted(&sorted, 50.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
        })
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set:
/// the smallest sample with at least `q` percent of the set at or below it.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile rank {q} out of range"
    );
    let n = sorted.len();
    let rank = ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_have_no_stats() {
        assert_eq!(LatencyStats::from_samples(&[]), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = LatencyStats::from_samples(&[3.5]).unwrap();
        assert_eq!((s.count, s.p50, s.p99, s.max), (1, 3.5, 3.5, 3.5));
    }

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // Classic nearest-rank worked example: 5 samples.
        let sorted = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&sorted, 30.0), 20.0);
        assert_eq!(percentile_sorted(&sorted, 40.0), 20.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 35.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 50.0);
        assert_eq!(percentile_sorted(&sorted, 0.0), 15.0);
    }

    #[test]
    fn p50_never_exceeds_p99_and_order_does_not_matter() {
        let shuffled = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0];
        let mut sorted = shuffled;
        sorted.sort_by(f64::total_cmp);
        let a = LatencyStats::from_samples(&shuffled).unwrap();
        let b = LatencyStats::from_samples(&sorted).unwrap();
        assert_eq!(a, b);
        assert!(a.p50 <= a.p99 && a.p99 <= a.max);
        assert_eq!(a.p50, 5.0);
        assert_eq!(a.p99, 10.0);
    }

    #[test]
    fn percentiles_are_actual_samples() {
        let samples: Vec<f64> = (1..=97).map(|i| i as f64 + 0.25).collect();
        let stats = LatencyStats::from_samples(&samples).unwrap();
        assert!(samples.contains(&stats.p50));
        assert!(samples.contains(&stats.p99));
        assert_eq!(stats.max, 97.25);
    }
}
