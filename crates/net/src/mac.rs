//! MAC-layer timing, backoff and contention-induced loss.
//!
//! The reproduction does not simulate 802.11 frame exchanges bit-by-bit;
//! instead each hop is charged
//!
//! * a transmission time (`frame bits / bandwidth`),
//! * a random CSMA backoff that grows with the number of concurrent
//!   transmissions in interference range, and
//! * a loss probability that also grows with that contention level.
//!
//! This is the standard abstraction used by protocol-level simulators and is
//! sufficient to reproduce the paper's key contention result: greedy
//! prefetching sets up many query trees at once, drives the contention level
//! up, and loses packets — which is exactly what Figure 5's high variance and
//! Figure 4's MQ-GP degradation show.

use wsn_geom::Point;
use wsn_sim::{Duration, SimRng, SimTime};

/// MAC parameters shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacConfig {
    /// Fixed per-frame MAC/PHY header overhead, in bytes.
    pub header_bytes: usize,
    /// Minimum random backoff before any transmission.
    pub base_backoff: Duration,
    /// Additional expected backoff per concurrent contender.
    pub backoff_per_contender: Duration,
    /// Processing delay charged per hop (route lookup, queueing).
    pub per_hop_processing: Duration,
    /// Baseline frame-loss probability with no contention.
    pub base_loss: f64,
    /// Additional loss probability per concurrent contender beyond the first.
    pub loss_per_contender: f64,
    /// Upper bound on the loss probability however bad contention gets.
    pub max_loss: f64,
    /// Interference range in metres within which transmissions contend.
    pub interference_range_m: f64,
}

impl MacConfig {
    /// Defaults tuned to the paper's evaluation: light losses when the
    /// network is quiet, heavy losses once several query-tree setups overlap.
    pub fn paper_default() -> Self {
        MacConfig {
            header_bytes: 34,
            base_backoff: Duration::from_micros(500),
            backoff_per_contender: Duration::from_millis(3),
            per_hop_processing: Duration::from_micros(300),
            base_loss: 0.005,
            loss_per_contender: 0.05,
            max_loss: 0.93,
            interference_range_m: 250.0,
        }
    }

    /// Expected backoff delay when `contenders` other transmissions are in
    /// progress nearby (deterministic part; jitter is added by the caller).
    pub fn backoff(&self, contenders: usize) -> Duration {
        self.base_backoff + self.backoff_per_contender.saturating_mul(contenders as u64)
    }

    /// Probability that a frame is lost when `contenders` other transmissions
    /// are in progress nearby.
    pub fn loss_probability(&self, contenders: usize) -> f64 {
        (self.base_loss + self.loss_per_contender * contenders as f64).min(self.max_loss)
    }

    /// Samples the per-hop MAC delay (backoff + processing + jitter) for a
    /// transmission contending with `contenders` others.
    pub fn sample_hop_delay(&self, contenders: usize, rng: &mut SimRng) -> Duration {
        let backoff = self.backoff(contenders);
        // Uniform jitter in [0, backoff] models the random slot choice.
        let jitter =
            Duration::from_secs_f64(rng.gen_range_f64(0.0, backoff.as_secs_f64().max(1e-9)));
        self.per_hop_processing + backoff + jitter
    }

    /// Samples whether a frame is lost under the given contention level.
    pub fn sample_loss(&self, contenders: usize, rng: &mut SimRng) -> bool {
        rng.gen_bool(self.loss_probability(contenders))
    }
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig::paper_default()
    }
}

/// Tracks in-flight transmissions so that the contention level around a
/// location can be queried.
///
/// Each registered transmission contributes to the contention count of any
/// later transmission whose source lies within the interference range and
/// whose airtime overlaps.
///
/// ```
/// use wsn_net::{ContentionTracker, MacConfig};
/// use wsn_geom::Point;
/// use wsn_sim::{Duration, SimTime};
///
/// let mut tracker = ContentionTracker::new(200.0);
/// let t0 = SimTime::ZERO;
/// tracker.register(Point::new(0.0, 0.0), t0, t0 + Duration::from_millis(5));
/// assert_eq!(tracker.contenders(Point::new(50.0, 0.0), t0 + Duration::from_millis(1)), 1);
/// assert_eq!(tracker.contenders(Point::new(1000.0, 0.0), t0 + Duration::from_millis(1)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ContentionTracker {
    interference_range: f64,
    active: Vec<Transmission>,
}

#[derive(Debug, Clone, Copy)]
struct Transmission {
    position: Point,
    end: SimTime,
}

impl ContentionTracker {
    /// Creates a tracker with the given interference range in metres.
    pub fn new(interference_range_m: f64) -> Self {
        ContentionTracker {
            interference_range: interference_range_m,
            active: Vec::new(),
        }
    }

    /// Registers a transmission from a node at `position` occupying
    /// the channel during `[start, end)`.
    pub fn register(&mut self, position: Point, start: SimTime, end: SimTime) {
        debug_assert!(end >= start);
        self.prune(start);
        self.active.push(Transmission { position, end });
    }

    /// Number of transmissions still in flight at `now` within interference
    /// range of `position`.
    pub fn contenders(&self, position: Point, now: SimTime) -> usize {
        let r_sq = self.interference_range * self.interference_range;
        self.active
            .iter()
            .filter(|t| t.end > now && t.position.distance_sq_to(position) <= r_sq)
            .count()
    }

    /// Discards transmissions that finished before `now`.
    pub fn prune(&mut self, now: SimTime) {
        self.active.retain(|t| t.end > now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MacConfig {
        MacConfig::paper_default()
    }

    #[test]
    fn backoff_grows_with_contention() {
        let c = cfg();
        assert!(c.backoff(0) < c.backoff(1));
        assert!(c.backoff(1) < c.backoff(10));
        assert_eq!(c.backoff(0), c.base_backoff);
    }

    #[test]
    fn loss_probability_grows_and_saturates() {
        let c = cfg();
        assert!(c.loss_probability(0) < c.loss_probability(3));
        assert!(c.loss_probability(3) < c.loss_probability(10));
        assert!(c.loss_probability(1_000) <= c.max_loss + 1e-12);
    }

    #[test]
    fn sampled_delay_at_least_deterministic_part() {
        let c = cfg();
        let mut rng = SimRng::seed_from_u64(1);
        for contenders in [0usize, 2, 8] {
            for _ in 0..100 {
                let d = c.sample_hop_delay(contenders, &mut rng);
                assert!(d >= c.per_hop_processing + c.backoff(contenders));
                assert!(d <= c.per_hop_processing + c.backoff(contenders) * 2);
            }
        }
    }

    #[test]
    fn sample_loss_matches_probability_roughly() {
        let c = MacConfig {
            base_loss: 0.0,
            loss_per_contender: 0.1,
            max_loss: 1.0,
            ..cfg()
        };
        let mut rng = SimRng::seed_from_u64(2);
        let n = 20_000;
        let losses = (0..n).filter(|_| c.sample_loss(5, &mut rng)).count();
        let observed = losses as f64 / n as f64;
        assert!((observed - 0.5).abs() < 0.02, "observed loss {observed}");
    }

    #[test]
    fn tracker_counts_only_overlapping_nearby_transmissions() {
        let mut tr = ContentionTracker::new(100.0);
        let t = |ms| SimTime::from_millis(ms);
        tr.register(Point::new(0.0, 0.0), t(0), t(10));
        tr.register(Point::new(50.0, 0.0), t(0), t(10));
        tr.register(Point::new(500.0, 0.0), t(0), t(10));
        // Two nearby transmissions still in flight at t=5.
        assert_eq!(tr.contenders(Point::new(10.0, 0.0), t(5)), 2);
        // After they end, none contend.
        assert_eq!(tr.contenders(Point::new(10.0, 0.0), t(11)), 0);
        // Far away location only sees the far transmission.
        assert_eq!(tr.contenders(Point::new(520.0, 0.0), t(5)), 1);
    }

    #[test]
    fn tracker_prunes_finished_transmissions() {
        let mut tr = ContentionTracker::new(100.0);
        for i in 0..10 {
            tr.register(
                Point::new(0.0, 0.0),
                SimTime::from_millis(i as u64),
                SimTime::from_millis(i as u64 + 1),
            );
        }
        assert_eq!(tr.active.len(), 1, "each register prunes what ended");
        tr.prune(SimTime::from_secs(1));
        assert!(tr.active.is_empty());
    }
}
