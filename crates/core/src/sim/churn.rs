//! Seed-derived node churn schedules.
//!
//! Churn mode kills and joins a deterministic batch of nodes at every period
//! boundary. Each batch is a pure function of `(scenario seed, boundary)` —
//! its own RNG stream, independent of every other stream in the simulation —
//! so the schedule is identical whatever admission pattern drives the engine
//! and whichever worker runs the trial, which is what lets CI `cmp` churn
//! outputs byte-for-byte across `--jobs` counts.
//!
//! A batch kills `floor(rate × alive)` distinct live nodes (a partial
//! Fisher–Yates draw over the ascending live-slot list) and joins the same
//! number of fresh nodes at uniform positions, keeping the population stable
//! so arbitrarily long runs stay within the peak slot count. Deaths are
//! applied before joins, so joiners deterministically recycle the slots the
//! batch just freed.

use crate::error::ConfigError;
use wsn_sim::{mix_seed, SimRng};

/// Stream tag for the per-boundary churn batches.
const CHURN_STREAM: u64 = 0x5EED_0000_0000_0005;

/// Churn-mode parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Fraction of the live population killed (and re-joined) per period
    /// boundary. Must be finite and strictly positive.
    pub rate: f64,
    /// When `true`, every batch's incremental repair is checked bit-identical
    /// against a full re-election, and the patched backbone neighbour table
    /// against one built from scratch (CI uses this; large-scale benches turn
    /// it off because the reference election is the thing being avoided).
    pub verify: bool,
}

impl ChurnConfig {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `rate` is not finite, not positive, or
    /// at least 1 (a batch may not kill the entire population).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.rate.is_finite() || self.rate <= 0.0 || self.rate >= 1.0 {
            return Err(ConfigError::new(format!(
                "churn rate must be in (0, 1), got {}",
                self.rate
            )));
        }
        Ok(())
    }
}

/// One boundary's deaths, as slot indices. Join positions are drawn from the
/// same stream by the caller (via `NodeStore::spawn_uniform`) after the
/// deaths are applied.
#[derive(Debug, Clone)]
pub struct ChurnBatchPlan {
    /// The batch's RNG stream, positioned after the death draw; the caller
    /// draws join positions from it.
    pub rng: SimRng,
    /// Slots to kill, in draw order.
    pub deaths: Vec<usize>,
}

impl ChurnBatchPlan {
    /// Plans the batch for `boundary`: draws `floor(rate × alive)` distinct
    /// victims from `alive_slots` (which must be sorted ascending so the
    /// draw is independent of how the caller tracks liveness).
    pub fn generate(seed: u64, boundary: u64, rate: f64, alive_slots: &[usize]) -> Self {
        debug_assert!(
            alive_slots.windows(2).all(|w| w[0] <= w[1]),
            "alive slots must be ascending"
        );
        let mut rng = SimRng::seed_from_u64(mix_seed(seed, &[CHURN_STREAM, boundary]));
        let count = (rate * alive_slots.len() as f64).floor() as usize;
        // Partial Fisher–Yates: after i swaps, pool[..i] is a uniform
        // i-subset in uniform order.
        let mut pool = alive_slots.to_vec();
        for i in 0..count {
            let j = rng.gen_range_usize(i, pool.len());
            pool.swap(i, j);
        }
        pool.truncate(count);
        ChurnBatchPlan { rng, deaths: pool }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_rates() {
        for rate in [0.0, -0.5, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let cfg = ChurnConfig { rate, verify: true };
            assert!(cfg.validate().is_err(), "rate {rate} must be rejected");
        }
        let ok = ChurnConfig {
            rate: 0.05,
            verify: false,
        };
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn batch_is_deterministic_and_distinct() {
        let alive: Vec<usize> = (0..200).collect();
        let a = ChurnBatchPlan::generate(7, 3, 0.1, &alive);
        let b = ChurnBatchPlan::generate(7, 3, 0.1, &alive);
        assert_eq!(a.deaths, b.deaths, "same (seed, boundary) same batch");
        assert_eq!(a.deaths.len(), 20, "floor(0.1 × 200)");
        let mut sorted = a.deaths.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "victims are distinct");
        assert!(sorted.iter().all(|s| *s < 200));
        let c = ChurnBatchPlan::generate(7, 4, 0.1, &alive);
        assert_ne!(a.deaths, c.deaths, "each boundary draws its own stream");
    }

    #[test]
    fn small_populations_round_down_to_zero() {
        let alive: Vec<usize> = (0..9).collect();
        let plan = ChurnBatchPlan::generate(1, 1, 0.1, &alive);
        assert!(plan.deaths.is_empty(), "floor(0.9) = 0 deaths");
    }
}
