//! Piecewise-constant-velocity paths.

use wsn_geom::{Point, Vector};
use wsn_sim::{Duration, SimTime};

/// One leg of a path: starting at `start` at `start_time`, moving with
/// constant `velocity` for `duration`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionLeg {
    /// When the leg begins.
    pub start_time: SimTime,
    /// How long the leg lasts.
    pub duration: Duration,
    /// Position at the start of the leg.
    pub start: Point,
    /// Constant velocity during the leg (m/s).
    pub velocity: Vector,
}

impl MotionLeg {
    /// The instant the leg ends.
    pub fn end_time(&self) -> SimTime {
        self.start_time + self.duration
    }

    /// The position at the end of the leg.
    pub fn end(&self) -> Point {
        self.start
            .advance(self.velocity, self.duration.as_secs_f64())
    }

    /// Position at absolute time `t`, extrapolating outside the leg.
    pub fn position_at(&self, t: SimTime) -> Point {
        let dt = t.as_secs_f64() - self.start_time.as_secs_f64();
        self.start.advance(self.velocity, dt)
    }
}

/// A contiguous sequence of [`MotionLeg`]s describing where something is at
/// any time in `[start_time, end_time]`.
///
/// Queries before the first leg return the starting position; queries after
/// the last leg extrapolate along the final leg's velocity (dead reckoning),
/// which is exactly how a motion profile is used after its validity interval
/// when no fresher profile has arrived.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MotionPath {
    legs: Vec<MotionLeg>,
}

impl MotionPath {
    /// Creates a path from legs.
    ///
    /// # Panics
    ///
    /// Panics if the legs are not contiguous in time (each leg must start
    /// when the previous one ends) or not sorted by start time.
    pub fn new(legs: Vec<MotionLeg>) -> Self {
        for pair in legs.windows(2) {
            assert_eq!(
                pair[0].end_time(),
                pair[1].start_time,
                "path legs must be contiguous in time"
            );
        }
        MotionPath { legs }
    }

    /// A path that stays at `point` forever starting at `time`.
    pub fn stationary(point: Point, time: SimTime) -> Self {
        MotionPath {
            legs: vec![MotionLeg {
                start_time: time,
                duration: Duration::ZERO,
                start: point,
                velocity: Vector::ZERO,
            }],
        }
    }

    /// A single straight leg.
    pub fn single_leg(
        start_time: SimTime,
        duration: Duration,
        start: Point,
        velocity: Vector,
    ) -> Self {
        MotionPath {
            legs: vec![MotionLeg {
                start_time,
                duration,
                start,
                velocity,
            }],
        }
    }

    /// The legs of this path.
    pub fn legs(&self) -> &[MotionLeg] {
        &self.legs
    }

    /// Returns `true` when the path has no legs.
    pub fn is_empty(&self) -> bool {
        self.legs.is_empty()
    }

    /// When the path starts (time of the first leg); `SimTime::ZERO` when empty.
    pub fn start_time(&self) -> SimTime {
        self.legs
            .first()
            .map(|l| l.start_time)
            .unwrap_or(SimTime::ZERO)
    }

    /// When the last leg ends; `SimTime::ZERO` when empty.
    pub fn end_time(&self) -> SimTime {
        self.legs
            .last()
            .map(|l| l.end_time())
            .unwrap_or(SimTime::ZERO)
    }

    /// Position at time `t` (clamped to the start before the path begins,
    /// extrapolated along the last leg after it ends).
    ///
    /// # Panics
    ///
    /// Panics if the path is empty.
    pub fn position_at(&self, t: SimTime) -> Point {
        assert!(!self.legs.is_empty(), "cannot query an empty path");
        if t <= self.start_time() {
            return self.legs[0].start;
        }
        match self.leg_at(t) {
            Some(leg) => leg.position_at(t),
            None => self.legs.last().expect("nonempty").position_at(t),
        }
    }

    fn leg_at(&self, t: SimTime) -> Option<&MotionLeg> {
        self.legs
            .iter()
            .find(|l| t >= l.start_time && t <= l.end_time())
    }

    /// Appends a leg.
    ///
    /// # Panics
    ///
    /// Panics if the new leg does not start exactly when the path currently ends
    /// (unless the path is empty).
    pub fn push(&mut self, leg: MotionLeg) {
        if let Some(last) = self.legs.last() {
            assert_eq!(last.end_time(), leg.start_time, "legs must be contiguous");
        }
        self.legs.push(leg);
    }

    /// Total distance travelled along the path.
    pub fn total_distance(&self) -> f64 {
        self.legs
            .iter()
            .map(|l| l.velocity.length() * l.duration.as_secs_f64())
            .sum()
    }

    /// The sub-path covering `[from, to]`, with legs clipped to that window.
    ///
    /// Returns a stationary path at the position of `from` when the window is
    /// empty or does not overlap any leg.
    pub fn slice(&self, from: SimTime, to: SimTime) -> MotionPath {
        if self.legs.is_empty() || to <= from {
            return MotionPath::stationary(
                if self.legs.is_empty() {
                    Point::ORIGIN
                } else {
                    self.position_at(from)
                },
                from,
            );
        }
        let mut legs = Vec::new();
        for leg in &self.legs {
            let leg_start = leg.start_time.max(from);
            let leg_end = leg.end_time().min(to);
            if leg_start >= leg_end {
                continue;
            }
            legs.push(MotionLeg {
                start_time: leg_start,
                duration: leg_end - leg_start,
                start: leg.position_at(leg_start),
                velocity: leg.velocity,
            });
        }
        if legs.is_empty() {
            MotionPath::stationary(self.position_at(from), from)
        } else {
            MotionPath { legs }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_leg_path() -> MotionPath {
        // East at 2 m/s for 10 s, then north at 1 m/s for 20 s.
        MotionPath::new(vec![
            MotionLeg {
                start_time: SimTime::ZERO,
                duration: Duration::from_secs(10),
                start: Point::new(0.0, 0.0),
                velocity: Vector::new(2.0, 0.0),
            },
            MotionLeg {
                start_time: SimTime::from_secs(10),
                duration: Duration::from_secs(20),
                start: Point::new(20.0, 0.0),
                velocity: Vector::new(0.0, 1.0),
            },
        ])
    }

    #[test]
    fn position_within_legs() {
        let p = two_leg_path();
        assert_eq!(p.position_at(SimTime::from_secs(5)), Point::new(10.0, 0.0));
        assert_eq!(p.position_at(SimTime::from_secs(10)), Point::new(20.0, 0.0));
        assert_eq!(
            p.position_at(SimTime::from_secs(20)),
            Point::new(20.0, 10.0)
        );
    }

    #[test]
    fn position_clamps_before_and_extrapolates_after() {
        let p = two_leg_path();
        assert_eq!(p.position_at(SimTime::ZERO), Point::new(0.0, 0.0));
        // After the end (30 s) dead-reckon along the last leg.
        assert_eq!(
            p.position_at(SimTime::from_secs(40)),
            Point::new(20.0, 30.0)
        );
    }

    #[test]
    fn total_distance_sums_legs() {
        let p = two_leg_path();
        assert!((p.total_distance() - 40.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn non_contiguous_legs_panic() {
        let _ = MotionPath::new(vec![
            MotionLeg {
                start_time: SimTime::ZERO,
                duration: Duration::from_secs(10),
                start: Point::ORIGIN,
                velocity: Vector::ZERO,
            },
            MotionLeg {
                start_time: SimTime::from_secs(11),
                duration: Duration::from_secs(5),
                start: Point::ORIGIN,
                velocity: Vector::ZERO,
            },
        ]);
    }

    #[test]
    fn stationary_path_never_moves() {
        let p = MotionPath::stationary(Point::new(3.0, 4.0), SimTime::from_secs(2));
        assert_eq!(p.position_at(SimTime::ZERO), Point::new(3.0, 4.0));
        assert_eq!(p.position_at(SimTime::from_secs(100)), Point::new(3.0, 4.0));
    }

    #[test]
    fn slice_covers_window() {
        let p = two_leg_path();
        let s = p.slice(SimTime::from_secs(5), SimTime::from_secs(15));
        assert_eq!(s.start_time(), SimTime::from_secs(5));
        assert_eq!(s.end_time(), SimTime::from_secs(15));
        assert_eq!(
            s.position_at(SimTime::from_secs(5)),
            p.position_at(SimTime::from_secs(5))
        );
        assert_eq!(
            s.position_at(SimTime::from_secs(15)),
            p.position_at(SimTime::from_secs(15))
        );
        assert_eq!(s.legs().len(), 2);
    }

    #[test]
    fn slice_outside_path_is_stationary() {
        let p = two_leg_path();
        let s = p.slice(SimTime::from_secs(100), SimTime::from_secs(100));
        assert_eq!(
            s.position_at(SimTime::from_secs(100)),
            p.position_at(SimTime::from_secs(100))
        );
    }

    #[test]
    fn push_extends_path() {
        let mut p = two_leg_path();
        p.push(MotionLeg {
            start_time: SimTime::from_secs(30),
            duration: Duration::from_secs(10),
            start: Point::new(20.0, 20.0),
            velocity: Vector::new(-1.0, 0.0),
        });
        assert_eq!(p.end_time(), SimTime::from_secs(40));
        assert_eq!(
            p.position_at(SimTime::from_secs(40)),
            Point::new(10.0, 20.0)
        );
    }
}
