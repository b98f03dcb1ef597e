//! Deterministic fault injection: bursty per-node link loss, region
//! blackouts, and unplanned mid-period node crashes.
//!
//! The paper's only adversity is contention-dependent MAC loss ([`crate::mac`]).
//! This module adds *injected* faults so the protocol's recovery machinery
//! (install retry/backoff, tree health checks, naive-tree fallback — see
//! `mobiquery::sim::stepped`) has something to recover from, while keeping
//! every schedule a pure function of the scenario seed:
//!
//! * **Bursty link loss** — a per-node Gilbert–Elliott two-state channel
//!   (`good`/`bad`). All links into a node share its channel state, which
//!   models node-local interference (a jammed or fading receiver) at O(n)
//!   state instead of O(n²) per-link chains. The chain is parameterised by
//!   the stationary loss probability `loss` and the mean bad-state dwell
//!   `burst` (in query periods): `P(bad→good) = 1/burst` and
//!   `P(good→bad) = loss / ((1 − loss)·burst)`, which makes the stationary
//!   bad fraction exactly `loss` whenever `loss ≤ burst/(1+burst)` (beyond
//!   that the entry probability saturates at 1 and the chain spends more
//!   than `loss` of its time bad — still deterministic, just no longer
//!   calibrated).
//! * **Region blackouts** — every node inside a disk is unreachable for all
//!   boundaries in `[from, until)`. A pure predicate of the boundary index,
//!   no RNG.
//! * **Mid-period crashes** — each boundary, `⌊crash_rate·n⌋` victims are
//!   drawn by the same partial Fisher–Yates used by churn batches, but each
//!   victim also gets a fraction `frac ∈ [0, 1)` placing the crash *inside*
//!   the period rather than on its edge: deliveries scheduled before the
//!   crash instant still count, later ones are lost, and in-flight trees
//!   through the victim are poisoned. Crashed nodes reboot at the next
//!   boundary (transient crash-reboot), so the population recovers while
//!   the protocol-level damage lingers.
//!
//! # Determinism contract
//!
//! All randomness comes from the dedicated [`FAULT_STREAM`] via
//! [`wsn_sim::mix_seed`], with a fresh RNG per boundary (and per sub-stream),
//! exactly like `ChurnBatchPlan`: the schedule for boundary `b` is a pure
//! function of `(seed, b)` plus the chain state accumulated over boundaries
//! `1..b`, and [`FaultPlan::advance`] is called once per boundary from the
//! serial section of the stepped engine — so the schedule is byte-identical
//! for any `--jobs`. A plan with `loss == 0`, `crash_rate == 0` and no
//! blackout draws **zero** random numbers (`SimRng::gen_bool(0.0)` consumes
//! no draw), which is what lets a rate-0 faulted engine stay byte-identical
//! to the fault-free engine.

use std::error::Error;
use std::fmt;

use wsn_geom::Point;
use wsn_sim::{mix_seed, SimRng};

/// Dedicated seed stream for fault schedules, disjoint from the query,
/// priority, churn, lifetime and load streams.
pub const FAULT_STREAM: u64 = 0xFA17_0000_0000_0001;

/// Sub-stream for per-boundary Gilbert–Elliott link-state transitions.
const LINK_SUB: u64 = 1;
/// Sub-stream for per-boundary crash victim draws.
const CRASH_SUB: u64 = 2;
/// Sub-stream for per-(user, period) install acknowledgment draws; used by
/// the stepped engine so retries never perturb any other stream.
pub const INSTALL_SUB: u64 = 3;

/// A disk of the field that is unreachable for a half-open boundary window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blackout {
    /// Centre of the unreachable disk.
    pub center: Point,
    /// Radius of the unreachable disk in metres.
    pub radius_m: f64,
    /// First boundary (inclusive) at which the blackout holds.
    pub from: u64,
    /// First boundary (exclusive) at which the blackout has lifted.
    pub until: u64,
}

/// Fault-injection parameters. `FaultConfig::new(0.0)` is the identity:
/// it draws nothing and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Stationary per-node bad-channel probability, `0 ≤ loss < 1`.
    pub loss: f64,
    /// Mean bad-state dwell in query periods, `burst ≥ 1`.
    pub burst: f64,
    /// Fraction of slots crashed per boundary, `0 ≤ crash_rate < 1`.
    pub crash_rate: f64,
    /// Optional region blackout.
    pub blackout: Option<Blackout>,
    /// Whether the engine's recovery machinery (install retries, tree
    /// rebuilds, naive fallback) is armed. Off = single install attempt and
    /// poisoned trees are kept; the resilience sweep compares both.
    pub recovery: bool,
}

impl FaultConfig {
    /// A config with the given stationary loss, default burst length 4,
    /// no crashes, no blackout, recovery armed.
    pub fn new(loss: f64) -> Self {
        Self {
            loss,
            burst: 4.0,
            crash_rate: 0.0,
            blackout: None,
            recovery: true,
        }
    }

    /// Set the mean bad-state dwell in periods.
    pub fn with_burst(mut self, burst: f64) -> Self {
        self.burst = burst;
        self
    }

    /// Set the per-boundary crash fraction.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Add a region blackout.
    pub fn with_blackout(mut self, blackout: Blackout) -> Self {
        self.blackout = Some(blackout);
        self
    }

    /// Arm or disarm protocol recovery.
    pub fn with_recovery(mut self, on: bool) -> Self {
        self.recovery = on;
        self
    }

    /// Reject parameters outside the model's domain.
    pub fn validate(&self) -> Result<(), FaultError> {
        if !self.loss.is_finite() || !(0.0..1.0).contains(&self.loss) {
            return Err(FaultError::Loss(self.loss));
        }
        if !self.burst.is_finite() || self.burst < 1.0 {
            return Err(FaultError::Burst(self.burst));
        }
        if !self.crash_rate.is_finite() || !(0.0..1.0).contains(&self.crash_rate) {
            return Err(FaultError::CrashRate(self.crash_rate));
        }
        if let Some(b) = &self.blackout {
            if !b.radius_m.is_finite() || b.radius_m <= 0.0 || b.from >= b.until {
                return Err(FaultError::Blackout {
                    radius_m: b.radius_m,
                    from: b.from,
                    until: b.until,
                });
            }
        }
        Ok(())
    }

    /// `P(good → bad)` per boundary. May exceed 1 for extreme `loss`/`burst`
    /// combinations; `SimRng::gen_bool` saturates there.
    fn good_to_bad(&self) -> f64 {
        if self.loss <= 0.0 {
            0.0
        } else {
            self.loss / ((1.0 - self.loss) * self.burst)
        }
    }

    /// `P(bad → good)` per boundary.
    fn bad_to_good(&self) -> f64 {
        1.0 / self.burst
    }
}

/// Why a [`FaultConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultError {
    /// `loss` outside `[0, 1)` or not finite.
    Loss(f64),
    /// `burst` below 1 or not finite.
    Burst(f64),
    /// `crash_rate` outside `[0, 1)` or not finite.
    CrashRate(f64),
    /// Blackout with a degenerate disk or an empty boundary window.
    Blackout {
        /// The rejected radius.
        radius_m: f64,
        /// Start boundary of the rejected window.
        from: u64,
        /// End boundary of the rejected window.
        until: u64,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Loss(v) => write!(f, "fault loss must be finite and in [0, 1), got {v}"),
            Self::Burst(v) => write!(f, "fault burst must be finite and >= 1, got {v}"),
            Self::CrashRate(v) => {
                write!(f, "fault crash rate must be finite and in [0, 1), got {v}")
            }
            Self::Blackout {
                radius_m,
                from,
                until,
            } => write!(
                f,
                "blackout needs a positive finite radius and a nonempty window, \
                 got radius {radius_m} over [{from}, {until})"
            ),
        }
    }
}

impl Error for FaultError {}

/// One node crash: `slot` goes down at fraction `frac` of the way through
/// the period and reboots at the next boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crash {
    /// Store slot of the victim.
    pub slot: usize,
    /// Where inside the period the crash strikes, in `[0, 1)`.
    pub frac: f64,
}

/// The faults in force around one boundary, as produced by
/// [`FaultPlan::advance`]: this boundary's crash victims plus whether the
/// configured blackout window covers it. Link states live on the plan
/// (query them via [`FaultPlan::link_bad`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultBatchPlan {
    /// Crash victims, ascending by slot.
    pub crashes: Vec<Crash>,
    /// True when the blackout window covers this boundary.
    pub blackout: bool,
}

/// Seeded fault schedule over a fixed slot universe. Owns the per-node
/// Gilbert–Elliott states; [`FaultPlan::advance`] steps them one boundary.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    seed: u64,
    link_bad: Vec<bool>,
}

impl FaultPlan {
    /// Build a plan over `slots` node slots. Rejects invalid configs.
    pub fn new(config: FaultConfig, seed: u64, slots: usize) -> Result<Self, FaultError> {
        config.validate()?;
        Ok(Self {
            config,
            seed,
            link_bad: vec![false; slots],
        })
    }

    /// The validated config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Advance every node's channel state across one boundary and draw this
    /// boundary's crash victims. Call once per boundary, in ascending order,
    /// from serial code: the per-boundary sub-stream RNGs make the result a
    /// pure function of `(seed, boundary)` and the prior state, independent
    /// of worker count.
    pub fn advance(&mut self, boundary: u64) -> FaultBatchPlan {
        let p_gb = self.config.good_to_bad();
        let p_bg = self.config.bad_to_good();
        let mut rng =
            SimRng::seed_from_u64(mix_seed(self.seed, &[FAULT_STREAM, LINK_SUB, boundary]));
        for state in self.link_bad.iter_mut() {
            *state = if *state {
                !rng.gen_bool(p_bg)
            } else {
                rng.gen_bool(p_gb)
            };
        }
        FaultBatchPlan {
            crashes: self.draw_crashes(boundary),
            blackout: self.blackout_active(boundary),
        }
    }

    /// Is `slot`'s channel in the bad state after the latest [`advance`]?
    ///
    /// [`advance`]: FaultPlan::advance
    pub fn link_bad(&self, slot: usize) -> bool {
        self.link_bad[slot]
    }

    /// Number of slots currently in the bad channel state.
    pub fn bad_count(&self) -> usize {
        self.link_bad.iter().filter(|b| **b).count()
    }

    /// Does the configured blackout cover `boundary`?
    pub fn blackout_active(&self, boundary: u64) -> bool {
        self.config
            .blackout
            .as_ref()
            .is_some_and(|b| boundary >= b.from && boundary < b.until)
    }

    /// Is `pos` inside an active blackout disk at `boundary`?
    pub fn blacked_out(&self, boundary: u64, pos: Point) -> bool {
        match &self.config.blackout {
            Some(b) if boundary >= b.from && boundary < b.until => {
                pos.distance_to(b.center) <= b.radius_m
            }
            _ => false,
        }
    }

    /// Partial Fisher–Yates over all slots (the churn-batch idiom), then a
    /// mid-period fraction per victim. Crashing an already-dead slot is a
    /// harmless no-op, which keeps the draw sequence independent of churn.
    fn draw_crashes(&self, boundary: u64) -> Vec<Crash> {
        let n = self.link_bad.len();
        let count = (self.config.crash_rate * n as f64).floor() as usize;
        if count == 0 {
            return Vec::new();
        }
        let mut rng =
            SimRng::seed_from_u64(mix_seed(self.seed, &[FAULT_STREAM, CRASH_SUB, boundary]));
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = rng.gen_range_usize(i, pool.len());
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool.sort_unstable();
        pool.into_iter()
            .map(|slot| Crash {
                slot,
                frac: rng.gen_f64(),
            })
            .collect()
    }

    /// The seed stream value an engine should fold per-(user, period) install
    /// acknowledgment draws from, so retries never perturb another stream.
    pub fn install_seed(&self, user: u32, period: u64) -> u64 {
        mix_seed(
            self.seed,
            &[FAULT_STREAM, INSTALL_SUB, u64::from(user), period],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(seed: u64, config: FaultConfig, slots: usize, upto: u64) -> Vec<FaultBatchPlan> {
        let mut plan = FaultPlan::new(config, seed, slots).expect("valid config");
        (1..=upto).map(|b| plan.advance(b)).collect()
    }

    #[test]
    fn validate_rejects_out_of_domain_parameters() {
        for loss in [-0.1, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            assert!(FaultConfig::new(loss).validate().is_err(), "loss {loss}");
        }
        for burst in [0.0, 0.5, f64::NAN] {
            let c = FaultConfig::new(0.1).with_burst(burst);
            assert!(c.validate().is_err(), "burst {burst}");
        }
        for rate in [-0.01, 1.0, f64::NAN] {
            let c = FaultConfig::new(0.1).with_crash_rate(rate);
            assert!(c.validate().is_err(), "crash rate {rate}");
        }
        let bad_disk = FaultConfig::new(0.1).with_blackout(Blackout {
            center: Point::new(0.0, 0.0),
            radius_m: 0.0,
            from: 1,
            until: 5,
        });
        assert!(bad_disk.validate().is_err());
        let empty_window = FaultConfig::new(0.1).with_blackout(Blackout {
            center: Point::new(0.0, 0.0),
            radius_m: 10.0,
            from: 5,
            until: 5,
        });
        assert!(empty_window.validate().is_err());
        assert!(FaultConfig::new(0.0).validate().is_ok());
        assert!(FaultConfig::new(0.999).with_burst(1.0).validate().is_ok());
    }

    #[test]
    fn rate_zero_plan_is_inert() {
        let config = FaultConfig::new(0.0);
        let mut plan = FaultPlan::new(config, 42, 500).expect("valid");
        for b in 1..=50 {
            let batch = plan.advance(b);
            assert!(batch.crashes.is_empty());
            assert!(!batch.blackout);
            assert_eq!(plan.bad_count(), 0);
        }
    }

    #[test]
    fn identical_seeds_yield_identical_schedules() {
        let config = FaultConfig::new(0.3).with_burst(3.0).with_crash_rate(0.02);
        let a = batches(7, config, 400, 30);
        let b = batches(7, config, 400, 30);
        assert_eq!(a, b);
        let c = batches(8, config, 400, 30);
        assert_ne!(a, c, "a different seed must reshuffle the schedule");
    }

    #[test]
    fn link_states_track_the_stationary_loss() {
        let config = FaultConfig::new(0.3).with_burst(4.0);
        let mut plan = FaultPlan::new(config, 11, 2000).expect("valid");
        // Skip a mixing prefix, then average the bad fraction.
        let mut total = 0usize;
        let mut samples = 0usize;
        for b in 1..=200 {
            plan.advance(b);
            if b > 40 {
                total += plan.bad_count();
                samples += 2000;
            }
        }
        let fraction = total as f64 / samples as f64;
        assert!(
            (fraction - 0.3).abs() < 0.05,
            "stationary bad fraction {fraction} should sit near the configured 0.3"
        );
    }

    #[test]
    fn crash_batches_are_sorted_sized_and_mid_period() {
        let config = FaultConfig::new(0.0).with_crash_rate(0.01);
        let mut plan = FaultPlan::new(config, 99, 1000).expect("valid");
        for b in 1..=20 {
            let batch = plan.advance(b);
            assert_eq!(batch.crashes.len(), 10, "floor(0.01 * 1000)");
            for pair in batch.crashes.windows(2) {
                assert!(pair[0].slot < pair[1].slot, "ascending unique slots");
            }
            for crash in &batch.crashes {
                assert!((0.0..1.0).contains(&crash.frac), "crash strikes mid-period");
            }
        }
    }

    #[test]
    fn blackout_window_is_half_open_and_spatial() {
        let config = FaultConfig::new(0.0).with_blackout(Blackout {
            center: Point::new(100.0, 100.0),
            radius_m: 50.0,
            from: 3,
            until: 6,
        });
        let plan = FaultPlan::new(config, 1, 10).expect("valid");
        assert!(!plan.blackout_active(2));
        assert!(plan.blackout_active(3));
        assert!(plan.blackout_active(5));
        assert!(!plan.blackout_active(6));
        let inside = Point::new(120.0, 100.0);
        let outside = Point::new(200.0, 200.0);
        assert!(plan.blacked_out(4, inside));
        assert!(!plan.blacked_out(4, outside));
        assert!(!plan.blacked_out(2, inside), "window not yet open");
    }

    #[test]
    fn install_seed_is_per_user_per_period() {
        let plan = FaultPlan::new(FaultConfig::new(0.2), 5, 10).expect("valid");
        assert_ne!(plan.install_seed(0, 1), plan.install_seed(0, 2));
        assert_ne!(plan.install_seed(0, 1), plan.install_seed(1, 1));
        assert_eq!(plan.install_seed(3, 7), plan.install_seed(3, 7));
    }
}
