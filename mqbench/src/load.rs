//! The benchmark's own open-loop load generator.
//!
//! The service workloads must not change when the program changes, so the
//! arrival process is generated here from `--seed` alone, with a splitmix64
//! stream that shares no code with the simulator's random number generators.

/// Tag mixed into the seed so this stream differs from any other use of it.
const LOAD_TAG: u64 = 0x6D71_6265_6E63_6801;
/// One client in this many retires at half its lifetime.
const RETIRE_ONE_IN: u64 = 8;

/// The splitmix64 generator (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by rejection so every value is equally
    /// likely.
    pub fn below(&mut self, n: u64) -> u64 {
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }
}

/// The shape of an open-loop query load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadShape {
    /// Mean arrival rate in queries per second (Poisson process).
    pub qps: f64,
    /// Service horizon in periods; the last boundary is `periods`.
    pub periods: u64,
    /// Query period in seconds.
    pub period_s: f64,
    /// Lifetimes are uniform in `1..=max_lifetime` periods.
    pub max_lifetime: u64,
}

/// One client of the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival instant in seconds from service start.
    pub at_s: f64,
    /// Requested lifetime in periods.
    pub lifetime_periods: u64,
    /// Whether the client retires at half its lifetime.
    pub retires_early: bool,
}

impl Arrival {
    /// The boundary at which the client submits: the first one at or after
    /// its arrival.
    pub fn boundary(&self, period_s: f64) -> u64 {
        (self.at_s / period_s).ceil() as u64
    }
}

/// The arrivals of `shape` for `seed`, in time order. Arrivals stop before
/// boundary `periods - 1`, so each is admitted for at least one period.
pub fn arrivals(seed: u64, shape: &LoadShape) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed ^ LOAD_TAG);
    let horizon_s = shape.periods.saturating_sub(1) as f64 * shape.period_s;
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / shape.qps;
        if t >= horizon_s {
            return out;
        }
        let lifetime_periods = 1 + rng.below(shape.max_lifetime);
        let retires_early = rng.below(RETIRE_ONE_IN) == 0;
        out.push(Arrival {
            at_s: t,
            lifetime_periods,
            retires_early,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: LoadShape = LoadShape {
        qps: 25.0,
        periods: 120,
        period_s: 2.0,
        max_lifetime: 60,
    };

    #[test]
    fn same_seed_same_arrivals() {
        assert_eq!(arrivals(7, &SHAPE), arrivals(7, &SHAPE));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(arrivals(7, &SHAPE), arrivals(8, &SHAPE));
    }

    #[test]
    fn arrival_count_is_within_three_sigma() {
        // A Poisson count has variance equal to its mean.
        let horizon_s = (SHAPE.periods - 1) as f64 * SHAPE.period_s;
        let mean = SHAPE.qps * horizon_s;
        let count = |seed| arrivals(seed, &SHAPE).len() as f64;
        for seed in 1..=5 {
            let n = count(seed);
            assert!(
                (n - mean).abs() <= 3.0 * mean.sqrt(),
                "seed {seed}: {n} arrivals, expected {mean} ± {}",
                3.0 * mean.sqrt()
            );
        }
        // Over many seeds, a biased generator shows even when each count
        // alone is plausible.
        let seeds = 200;
        let average = (1..=seeds).map(count).sum::<f64>() / seeds as f64;
        let sigma = (mean / seeds as f64).sqrt();
        assert!(
            (average - mean).abs() <= 3.0 * sigma,
            "mean of {seeds} seeds {average}, expected {mean} ± {}",
            3.0 * sigma
        );
    }

    #[test]
    fn every_arrival_is_admitted_before_the_last_boundary() {
        for seed in 1..=20 {
            let load = arrivals(seed, &SHAPE);
            assert!(load.windows(2).all(|w| w[0].at_s <= w[1].at_s));
            for a in &load {
                assert!(a.boundary(SHAPE.period_s) < SHAPE.periods);
                assert!((1..=SHAPE.max_lifetime).contains(&a.lifetime_periods));
            }
        }
    }

    #[test]
    fn early_retirement_is_about_one_in_eight() {
        let load = arrivals(3, &SHAPE);
        let share = load.iter().filter(|a| a.retires_early).count() as f64 / load.len() as f64;
        assert!((share - 0.125).abs() < 0.03, "share {share}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&rng.next_f64())));
    }
}
