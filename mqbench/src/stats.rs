//! Percentiles, medians and the output digest.

use std::fmt;

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that, one outlier moves it.
pub const MIN_BEYOND: usize = 10;

/// A percentile the samples cannot support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refused {
    pub p: f64,
    pub n: usize,
    pub beyond: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} of n={} samples beyond it, {MIN_BEYOND} needed",
            self.p, self.beyond, self.n
        )
    }
}

/// The nearest-rank `p`-th percentile of `sorted` (ascending): the value at
/// rank `ceil(p/100 · n)`.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, Refused> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(Refused { p, n, beyond });
    }
    Ok(sorted[rank - 1])
}

/// Sorts `values` ascending (all must be finite).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values
}

/// The median of a handful of repeated measurements (mean of the two middle
/// values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// 64-bit FNV-1a over the simulated outputs of one pass. Two passes, runs or
/// commits that simulate the same thing print the same digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Ok(50.0));
        assert_eq!(percentile(&s, 90.0), Ok(90.0));
        assert_eq!(percentile(&s, 0.5), Ok(1.0));
        let s = ramp(121);
        // ceil(0.9 · 121) = 109, leaving 12 samples beyond.
        assert_eq!(percentile(&s, 90.0), Ok(109.0));
        assert_eq!(percentile(&s, 50.0), Ok(61.0));
    }

    #[test]
    fn small_samples_are_refused() {
        let s = ramp(99);
        // ceil(0.9 · 99) = 90: only 9 samples beyond.
        assert_eq!(
            percentile(&s, 90.0),
            Err(Refused {
                p: 90.0,
                n: 99,
                beyond: 9
            })
        );
        assert!(percentile(&ramp(19), 50.0).is_err());
        assert_eq!(percentile(&ramp(20), 50.0), Ok(10.0));
        assert!(percentile(&[], 50.0).is_err());
        assert!(percentile(&ramp(200), 95.0).is_ok());
        assert!(percentile(&ramp(199), 95.0).is_err());
    }

    #[test]
    fn refusal_names_the_sample_count() {
        let err = percentile(&ramp(30), 90.0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "p90 refused: 3 of n=30 samples beyond it, 10 needed"
        );
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xAF63_DC4C_8601_EC8C);
        let mut e = Digest::default();
        e.bytes(b"b");
        assert_ne!(d, e);
    }
}
