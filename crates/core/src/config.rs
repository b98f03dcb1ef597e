//! Scenario configuration for protocol simulations.
//!
//! A [`Scenario`] bundles every knob of the evaluation in Section 6.1:
//! deployment, radio, duty cycle, query parameters, user motion, the motion-
//! profile source and the prefetching scheme. Builders keep experiment code
//! readable (`Scenario::paper_default().with_sleep_period_secs(15.0)...`).

use crate::analysis::AnalysisParams;
use crate::error::ConfigError;
use crate::prefetch::{PrefetchScheme, PrefetchTiming};
use crate::query::{MessageSizes, QuerySpec};
use wsn_geom::{Point, Rect};
use wsn_mobility::{GpsModel, MotionConfig, ProfileSource};
use wsn_net::{MacConfig, RadioConfig, SleepSchedule};
use wsn_power::ccp::CcpConfig;
use wsn_sim::Duration;

/// Re-export of the prefetching scheme under the name used throughout the
/// experiment harness ("which scheme is this run using?").
pub type Scheme = PrefetchScheme;

/// A complete simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of sensor nodes deployed uniformly at random.
    pub node_count: usize,
    /// Deployment region (a square of side `region_side`).
    pub region_side_m: f64,
    /// Radio parameters (range, bandwidth, power profile).
    pub radio: RadioConfig,
    /// MAC parameters (backoff, contention-loss model).
    pub mac: MacConfig,
    /// CCP parameters (sensing range, coverage degree).
    pub ccp: CcpConfig,
    /// Duty-cycle sleep period for non-backbone nodes, in seconds.
    pub sleep_period_s: f64,
    /// Active window of the power-save schedule, in seconds.
    pub active_window_s: f64,
    /// The query issued by the user.
    pub query: QuerySpec,
    /// Anycast acceptance radius `Rp`: the prefetch message is accepted by the
    /// first backbone node within this distance of the pickup point.
    pub pickup_radius_m: f64,
    /// Message sizes for MAC timing.
    pub messages: MessageSizes,
    /// Ground-truth user motion parameters.
    pub motion: MotionConfig,
    /// How motion profiles are produced (oracle, planner, predictor).
    pub profile_source: ProfileSource,
    /// The prefetching scheme under test.
    pub scheme: Scheme,
    /// Fidelity threshold for the success-ratio metric.
    pub fidelity_threshold: f64,
    /// Maximum number of MAC-level retransmissions for control messages
    /// (prefetch and setup frames).
    pub max_retries: u32,
    /// Capacity of one power-save active window: the number of buffered
    /// frames that can be handed to sleeping nodes network-wide during a
    /// single 100 ms window (the 802.11 PSM ATIM/beacon bottleneck). Offered
    /// load beyond this is deferred to later windows, which is what makes
    /// greedy prefetching's concentrated tree setup expensive.
    pub psm_window_capacity: u32,
    /// RNG seed; every run with the same scenario is bit-for-bit reproducible.
    pub seed: u64,
}

impl Scenario {
    /// The paper's evaluation settings (Section 6.1): 200 nodes in a
    /// 450 m × 450 m region, 100 ms active window, 150 m query radius, 105 m
    /// communication range, 50 m sensing range, a query every 2 s with a 1 s
    /// freshness bound, 2 Mb/s radios, walking user, oracle motion profile,
    /// just-in-time prefetching, 9 s sleep period.
    pub fn paper_default() -> Self {
        Scenario {
            node_count: 200,
            region_side_m: 450.0,
            radio: RadioConfig::paper_default(),
            mac: MacConfig::paper_default(),
            ccp: CcpConfig::paper_default(),
            sleep_period_s: 9.0,
            active_window_s: 0.1,
            query: QuerySpec::paper_default(),
            pickup_radius_m: 50.0,
            messages: MessageSizes::default(),
            motion: MotionConfig::paper_default(),
            profile_source: ProfileSource::Oracle,
            scheme: Scheme::JustInTime,
            fidelity_threshold: 0.95,
            max_retries: 3,
            psm_window_capacity: 700,
            seed: 1,
        }
    }

    /// Sets the number of nodes.
    pub fn with_node_count(mut self, n: usize) -> Self {
        self.node_count = n;
        self
    }

    /// Sets the square region's side length (metres) for both the deployment
    /// and the user's motion, and scales the starting corner accordingly.
    pub fn with_region_side(mut self, side_m: f64) -> Self {
        self.region_side_m = side_m;
        self.motion.region = Rect::square(side_m);
        self.motion.start = Point::new(side_m * 0.05, side_m * 0.05);
        self
    }

    /// Sets the duty-cycle sleep period in seconds.
    pub fn with_sleep_period_secs(mut self, secs: f64) -> Self {
        self.sleep_period_s = secs;
        self
    }

    /// Sets the user's speed range in m/s.
    pub fn with_speed_range(mut self, min: f64, max: f64) -> Self {
        self.motion.speed_min = min;
        self.motion.speed_max = max;
        self
    }

    /// Sets the interval between user motion changes, in seconds.
    pub fn with_motion_change_interval(mut self, secs: f64) -> Self {
        self.motion.change_interval = secs;
        self
    }

    /// Sets the simulation / query lifetime in seconds (both the motion
    /// duration and the query lifetime).
    pub fn with_duration_secs(mut self, secs: f64) -> Self {
        self.motion.duration = secs;
        self.query.lifetime = Duration::from_secs_f64(secs);
        self
    }

    /// Sets the prefetching scheme.
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the motion-profile source.
    pub fn with_profile_source(mut self, source: ProfileSource) -> Self {
        self.profile_source = source;
        self
    }

    /// Uses a planner profile source with the given advance time `Ta` (s).
    pub fn with_planner_advance(mut self, advance_secs: f64) -> Self {
        self.profile_source = ProfileSource::Planner { advance_secs };
        self
    }

    /// Uses a history-based predictor profile source with the given GPS
    /// sampling period (s) and maximum location error (m).
    pub fn with_predictor(mut self, sampling_period_secs: f64, gps_error_m: f64) -> Self {
        self.profile_source = ProfileSource::Predictor {
            sampling_period_secs,
            gps: GpsModel::new(gps_error_m),
        };
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The deployment region as a rectangle.
    pub fn region(&self) -> Rect {
        Rect::square(self.region_side_m)
    }

    /// The power-save schedule duty-cycled nodes follow.
    pub fn sleep_schedule(&self) -> SleepSchedule {
        SleepSchedule::new(
            Duration::from_secs_f64(self.sleep_period_s),
            Duration::from_secs_f64(self.active_window_s),
        )
    }

    /// The prefetch-timing parameters (Equation 10 inputs).
    pub fn prefetch_timing(&self) -> PrefetchTiming {
        PrefetchTiming {
            period: self.query.period,
            freshness: self.query.freshness,
            sleep_period: Duration::from_secs_f64(self.sleep_period_s),
        }
    }

    /// The analysis parameters corresponding to this scenario, for comparing
    /// simulated behaviour against the Section 5 bounds. The prefetch speed
    /// is estimated from the radio bandwidth, message size and an assumed
    /// 5-hop collector spacing, mirroring the paper's own estimate.
    pub fn analysis_params(&self) -> AnalysisParams {
        let mean_speed = (self.motion.speed_min + self.motion.speed_max) / 2.0;
        let effective_bw = self.radio.bandwidth_bps * 0.13; // MAC/routing overhead derating
        AnalysisParams {
            period_s: self.query.period.as_secs_f64(),
            freshness_s: self.query.freshness.as_secs_f64(),
            sleep_s: self.sleep_period_s,
            lifetime_s: self.query.lifetime.as_secs_f64(),
            user_speed_mps: mean_speed,
            prefetch_speed_mps: crate::analysis::prefetch_speed_mps(
                100.0,
                5,
                self.messages.prefetch_bytes,
                effective_bw,
            ),
            query_radius_m: self.query.radius_m,
            comm_range_m: self.radio.comm_range_m,
        }
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first invalid field found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.node_count == 0 {
            return Err(ConfigError::new("the deployment needs at least one node"));
        }
        if !(self.region_side_m.is_finite() && self.region_side_m > 0.0) {
            return Err(ConfigError::new("the region side must be positive"));
        }
        if !(self.sleep_period_s.is_finite() && self.sleep_period_s > 0.0) {
            return Err(ConfigError::new("the sleep period must be positive"));
        }
        if !(self.active_window_s > 0.0 && self.active_window_s <= self.sleep_period_s) {
            return Err(ConfigError::new(
                "the active window must be positive and no longer than the sleep period",
            ));
        }
        if !(self.pickup_radius_m.is_finite() && self.pickup_radius_m > 0.0) {
            return Err(ConfigError::new(
                "the pickup (anycast) radius must be positive",
            ));
        }
        if !(0.0..=1.0).contains(&self.fidelity_threshold) {
            return Err(ConfigError::new(
                "the fidelity threshold must lie in [0, 1]",
            ));
        }
        if !(self.motion.duration.is_finite() && self.motion.duration > 0.0) {
            return Err(ConfigError::new("the simulation duration must be positive"));
        }
        if !(self.ccp.sensing_range_m.is_finite() && self.ccp.sensing_range_m > 0.0) {
            return Err(ConfigError::new("the CCP sensing range must be positive"));
        }
        if !(self.ccp.sample_spacing_m.is_finite() && self.ccp.sample_spacing_m > 0.0) {
            return Err(ConfigError::new("the CCP sample spacing must be positive"));
        }
        self.query.validate()?;
        Ok(())
    }
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_section_6_1() {
        let s = Scenario::paper_default();
        assert!(s.validate().is_ok());
        assert_eq!(s.node_count, 200);
        assert_eq!(s.region_side_m, 450.0);
        assert_eq!(s.query.radius_m, 150.0);
        assert_eq!(s.radio.comm_range_m, 105.0);
        assert_eq!(s.ccp.sensing_range_m, 50.0);
        assert_eq!(s.query.period, Duration::from_secs(2));
        assert_eq!(s.query.freshness, Duration::from_secs(1));
        assert_eq!(s.active_window_s, 0.1);
        assert_eq!(s.radio.bandwidth_bps, 2_000_000.0);
    }

    #[test]
    fn builders_adjust_linked_fields() {
        let s = Scenario::paper_default()
            .with_region_side(300.0)
            .with_duration_secs(100.0)
            .with_speed_range(6.0, 10.0)
            .with_sleep_period_secs(15.0)
            .with_scheme(Scheme::Greedy)
            .with_seed(99);
        assert_eq!(s.motion.region, Rect::square(300.0));
        assert_eq!(s.motion.duration, 100.0);
        assert_eq!(s.query.lifetime, Duration::from_secs(100));
        assert_eq!(s.motion.speed_min, 6.0);
        assert_eq!(s.sleep_period_s, 15.0);
        assert_eq!(s.scheme, Scheme::Greedy);
        assert_eq!(s.seed, 99);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn invalid_scenarios_are_rejected() {
        assert!(Scenario::paper_default()
            .with_node_count(0)
            .validate()
            .is_err());
        let mut s = Scenario::paper_default();
        s.active_window_s = 20.0;
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.fidelity_threshold = 1.5;
        assert!(s.validate().is_err());
        let mut s = Scenario::paper_default();
        s.pickup_radius_m = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn profile_source_builders() {
        let planner = Scenario::paper_default().with_planner_advance(-8.0);
        assert_eq!(
            planner.profile_source,
            ProfileSource::Planner { advance_secs: -8.0 }
        );
        let predictor = Scenario::paper_default().with_predictor(8.0, 10.0);
        match predictor.profile_source {
            ProfileSource::Predictor {
                sampling_period_secs,
                gps,
            } => {
                assert_eq!(sampling_period_secs, 8.0);
                assert_eq!(gps.max_error_m, 10.0);
            }
            other => panic!("unexpected source {other:?}"),
        }
    }

    #[test]
    fn derived_helpers_are_consistent() {
        let s = Scenario::paper_default().with_sleep_period_secs(15.0);
        assert_eq!(s.sleep_schedule().period(), Duration::from_secs(15));
        let t = s.prefetch_timing();
        assert_eq!(t.sleep_period, Duration::from_secs(15));
        let a = s.analysis_params();
        assert_eq!(a.sleep_s, 15.0);
        assert!(a.prefetch_speed_mps > a.user_speed_mps);
    }
}
