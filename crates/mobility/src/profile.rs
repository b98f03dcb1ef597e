//! Motion profiles: the predicted future path handed to the network.
//!
//! A motion profile `P` carries three timing parameters (Section 4.1.2):
//! `ts` — when it takes effect, `Tv` — its validity interval, and `tg` — when
//! it was generated. The *advance time* `Ta = ts − tg` is positive when the
//! profile comes from a motion planner (known before the user takes the
//! path) and negative when it comes from a history-based predictor (only
//! available one sampling period after the motion change it describes).

use crate::path::MotionPath;
use wsn_geom::{Point, Vector};
use wsn_sim::{Duration, SimTime};

/// A predicted user path with its timing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionProfile {
    /// When the profile was generated / becomes available to the proxy (`tg`).
    pub generated_at: SimTime,
    /// When the profile takes effect (`ts`): the predicted path describes the
    /// user's motion from this instant on.
    pub effective_from: SimTime,
    /// Validity interval (`Tv`): the profile describes motion during
    /// `[effective_from, effective_from + validity]`.
    pub validity: Duration,
    /// The predicted path. Queries outside the validity interval dead-reckon
    /// along the nearest leg.
    pub path: MotionPath,
}

impl MotionProfile {
    /// Creates a profile from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the predicted path is empty.
    pub fn new(
        generated_at: SimTime,
        effective_from: SimTime,
        validity: Duration,
        path: MotionPath,
    ) -> Self {
        assert!(!path.is_empty(), "a motion profile needs a non-empty path");
        MotionProfile {
            generated_at,
            effective_from,
            validity,
            path,
        }
    }

    /// A straight-line profile: from `start` at `velocity`, effective from
    /// `effective_from` for `validity`, generated at `generated_at`.
    pub fn straight_line(
        generated_at: SimTime,
        effective_from: SimTime,
        validity: Duration,
        start: Point,
        velocity: Vector,
    ) -> Self {
        MotionProfile::new(
            generated_at,
            effective_from,
            validity,
            MotionPath::single_leg(effective_from, validity, start, velocity),
        )
    }

    /// The advance time `Ta = ts − tg` in seconds: positive when the profile
    /// was available before it takes effect (planner), negative when it only
    /// became available afterwards (history-based predictor).
    pub fn advance_time_secs(&self) -> f64 {
        self.effective_from.as_secs_f64() - self.generated_at.as_secs_f64()
    }

    /// When the profile stops being valid (`ts + Tv`).
    pub fn expires_at(&self) -> SimTime {
        self.effective_from + self.validity
    }

    /// The predicted user position at time `t` (dead-reckoning outside the
    /// validity interval).
    pub fn predicted_position(&self, t: SimTime) -> Point {
        self.path.position_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ta_secs: f64) -> MotionProfile {
        let effective = SimTime::from_secs(100);
        let generated = SimTime::from_secs_f64(100.0 - ta_secs);
        MotionProfile::straight_line(
            generated,
            effective,
            Duration::from_secs(50),
            Point::new(10.0, 10.0),
            Vector::new(4.0, 0.0),
        )
    }

    #[test]
    fn advance_time_sign_matches_source_kind() {
        // Planner: generated before it takes effect.
        assert!((profile(6.0).advance_time_secs() - 6.0).abs() < 1e-9);
        // Predictor: generated after the motion change.
        assert!((profile(-8.0).advance_time_secs() + 8.0).abs() < 1e-9);
        // Immediate.
        assert_eq!(profile(0.0).advance_time_secs(), 0.0);
    }

    #[test]
    fn validity_window() {
        assert_eq!(profile(0.0).expires_at(), SimTime::from_secs(150));
    }

    #[test]
    fn prediction_moves_along_the_line() {
        let p = profile(0.0);
        assert_eq!(
            p.predicted_position(SimTime::from_secs(100)),
            Point::new(10.0, 10.0)
        );
        assert_eq!(
            p.predicted_position(SimTime::from_secs(110)),
            Point::new(50.0, 10.0)
        );
        // Dead-reckons past the validity interval.
        assert_eq!(
            p.predicted_position(SimTime::from_secs(160)),
            Point::new(250.0, 10.0)
        );
    }

    #[test]
    #[should_panic]
    fn empty_path_panics() {
        let _ = MotionProfile::new(
            SimTime::ZERO,
            SimTime::ZERO,
            Duration::from_secs(1),
            MotionPath::default(),
        );
    }
}
