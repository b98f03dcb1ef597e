//! Ground-truth motion of the mobile user.
//!
//! Section 6 of the paper: the user starts from a corner of the 450 m × 450 m
//! region and moves in a random direction with a speed drawn from a range,
//! changing direction and speed every `change_interval` seconds. We keep the
//! user inside the region by mirror-reflecting the trajectory at the
//! boundary; every reflection counts as an (unexpected) motion change, just
//! like the scheduled ones, because it invalidates the current straight-line
//! motion profile.

use crate::path::{MotionLeg, MotionPath};
use wsn_geom::{Point, Rect, Vector};
use wsn_sim::{Duration, SimRng, SimTime};

/// Parameters of the user's random motion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionConfig {
    /// Deployment region the user stays inside.
    pub region: Rect,
    /// Starting position (the paper starts the user at a corner).
    pub start: Point,
    /// Minimum speed in m/s.
    pub speed_min: f64,
    /// Maximum speed in m/s.
    pub speed_max: f64,
    /// Interval between scheduled direction/speed changes, in seconds.
    pub change_interval: f64,
    /// Total duration of the motion, in seconds.
    pub duration: f64,
}

impl MotionConfig {
    /// The paper's Section 6.2 defaults: 450 m square region, walking speed
    /// (3–5 m/s), direction change every 50 s, 400 s of motion, starting near
    /// a corner.
    pub fn paper_default() -> Self {
        MotionConfig {
            region: Rect::square(450.0),
            start: Point::new(20.0, 20.0),
            speed_min: 3.0,
            speed_max: 5.0,
            change_interval: 50.0,
            duration: 400.0,
        }
    }

    /// Same as [`MotionConfig::paper_default`] but with a different speed range.
    pub fn with_speed_range(mut self, min: f64, max: f64) -> Self {
        self.speed_min = min;
        self.speed_max = max;
        self
    }
}

impl Default for MotionConfig {
    fn default() -> Self {
        MotionConfig::paper_default()
    }
}

/// One motion change: the instant the user adopts a new constant velocity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionEvent {
    /// When the change happens.
    pub time: SimTime,
    /// Where the user is at that instant.
    pub position: Point,
    /// The new velocity adopted at that instant.
    pub velocity: Vector,
}

/// The complete ground-truth trajectory of the user for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct UserMotion {
    path: MotionPath,
    events: Vec<MotionEvent>,
    config: MotionConfig,
}

impl UserMotion {
    /// Generates a random trajectory according to `config`, reproducibly from
    /// `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the speed range or durations are not positive and finite, or
    /// if the starting point lies outside the region.
    pub fn generate(config: &MotionConfig, rng: &mut SimRng) -> Self {
        assert!(
            config.speed_min > 0.0 && config.speed_max >= config.speed_min,
            "invalid speed range [{}, {}]",
            config.speed_min,
            config.speed_max
        );
        assert!(
            config.change_interval > 0.0,
            "change interval must be positive"
        );
        assert!(config.duration > 0.0, "duration must be positive");
        assert!(
            config.region.contains(config.start),
            "user must start inside the region"
        );

        let mut legs: Vec<MotionLeg> = Vec::new();
        let mut events: Vec<MotionEvent> = Vec::new();
        let mut now = SimTime::ZERO;
        let end = SimTime::from_secs_f64(config.duration);
        let mut position = config.start;

        while now < end {
            // Scheduled change: new random direction and speed.
            let speed = rng.gen_range_f64(config.speed_min, config.speed_max);
            let mut velocity = Vector::from_speed_angle(speed, rng.gen_angle());
            events.push(MotionEvent {
                time: now,
                position,
                velocity,
            });
            let segment_end = (now + Duration::from_secs_f64(config.change_interval)).min(end);

            // Walk the segment, splitting it at boundary reflections.
            while now < segment_end {
                let remaining = (segment_end - now).as_secs_f64();
                let (leg_secs, reflected_velocity) =
                    time_to_boundary(position, velocity, config.region, remaining);
                let leg_duration = Duration::from_secs_f64(leg_secs);
                legs.push(MotionLeg {
                    start_time: now,
                    duration: leg_duration,
                    start: position,
                    velocity,
                });
                // Advance by the *rounded* duration so stored event positions
                // agree exactly with `MotionPath::position_at` at event times.
                position = position.advance(velocity, leg_duration.as_secs_f64());
                // Numerical safety: keep strictly inside the region.
                position = config.region.clamp(position);
                now += leg_duration;
                if let Some(v) = reflected_velocity {
                    velocity = v;
                    if now < segment_end {
                        events.push(MotionEvent {
                            time: now,
                            position,
                            velocity,
                        });
                    }
                }
            }
        }

        UserMotion {
            path: MotionPath::new(legs),
            events,
            config: *config,
        }
    }

    /// The user's position at time `t`.
    pub fn position_at(&self, t: SimTime) -> Point {
        self.path.position_at(t)
    }

    /// The full trajectory as a path.
    pub fn path(&self) -> &MotionPath {
        &self.path
    }

    /// Every motion change (scheduled or reflection), in time order.
    pub fn events(&self) -> &[MotionEvent] {
        &self.events
    }

    /// The configuration the trajectory was generated from.
    pub fn config(&self) -> &MotionConfig {
        &self.config
    }

    /// When the trajectory ends.
    pub fn end_time(&self) -> SimTime {
        SimTime::from_secs_f64(self.config.duration)
    }

    /// Mean speed over the whole trajectory, in m/s.
    pub fn mean_speed(&self) -> f64 {
        let d = self.path.total_distance();
        let t = self.config.duration;
        if t > 0.0 {
            d / t
        } else {
            0.0
        }
    }
}

/// Returns how long the user can travel from `position` at `velocity` before
/// either `max_secs` elapses or the region boundary is hit, together with the
/// post-reflection velocity if the boundary was hit.
fn time_to_boundary(
    position: Point,
    velocity: Vector,
    region: Rect,
    max_secs: f64,
) -> (f64, Option<Vector>) {
    let mut t_hit = max_secs;
    let mut flip_x = false;
    let mut flip_y = false;

    if velocity.x > 1e-12 {
        let t = (region.max_x - position.x) / velocity.x;
        if t < t_hit {
            t_hit = t;
            flip_x = true;
            flip_y = false;
        }
    } else if velocity.x < -1e-12 {
        let t = (region.min_x - position.x) / velocity.x;
        if t < t_hit {
            t_hit = t;
            flip_x = true;
            flip_y = false;
        }
    }
    if velocity.y > 1e-12 {
        let t = (region.max_y - position.y) / velocity.y;
        if t < t_hit {
            t_hit = t;
            flip_y = true;
            flip_x = false;
        } else if (t - t_hit).abs() < 1e-12 && flip_x {
            flip_y = true; // corner hit
        }
    } else if velocity.y < -1e-12 {
        let t = (region.min_y - position.y) / velocity.y;
        if t < t_hit {
            t_hit = t;
            flip_y = true;
            flip_x = false;
        } else if (t - t_hit).abs() < 1e-12 && flip_x {
            flip_y = true;
        }
    }

    let t_hit = t_hit.max(0.0);
    if t_hit >= max_secs {
        (max_secs, None)
    } else {
        let mut v = velocity;
        if flip_x {
            v = Vector::new(-v.x, v.y);
        }
        if flip_y {
            v = Vector::new(v.x, -v.y);
        }
        (t_hit, Some(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(seed: u64, cfg: MotionConfig) -> UserMotion {
        let mut rng = SimRng::seed_from_u64(seed);
        UserMotion::generate(&cfg, &mut rng)
    }

    #[test]
    fn user_stays_inside_the_region() {
        for seed in 0..5 {
            let cfg = MotionConfig::paper_default().with_speed_range(16.0, 20.0);
            let m = generate(seed, cfg);
            for step in 0..=400 {
                let p = m.position_at(SimTime::from_secs(step));
                assert!(
                    cfg.region.contains(p),
                    "seed {seed}: user left the region at t={step}s: {p}"
                );
            }
        }
    }

    #[test]
    fn speed_stays_within_requested_range() {
        let cfg = MotionConfig::paper_default().with_speed_range(6.0, 10.0);
        let m = generate(3, cfg);
        for leg in m.path().legs() {
            let speed = leg.velocity.length();
            assert!(
                (6.0 - 1e-9..=10.0 + 1e-9).contains(&speed),
                "leg speed {speed} outside range"
            );
        }
        let mean = m.mean_speed();
        assert!((6.0 - 1e-6..=10.0 + 1e-6).contains(&mean));
    }

    #[test]
    fn scheduled_changes_happen_at_change_interval() {
        let m = generate(4, MotionConfig::paper_default());
        // Events at 0, 50, 100, ... must all be present (reflections add more).
        for k in 0..8 {
            let t = SimTime::from_secs(k * 50);
            assert!(
                m.events().iter().any(|e| e.time == t),
                "missing scheduled motion change at {t}"
            );
        }
    }

    #[test]
    fn events_are_time_ordered_and_on_path() {
        let m = generate(5, MotionConfig::paper_default());
        for pair in m.events().windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        for e in m.events() {
            let p = m.position_at(e.time);
            // Event positions may differ from the path by the boundary clamp
            // (sub-millimetre); anything larger indicates a real bug.
            assert!(
                p.distance_to(e.position) < 1e-3,
                "event/path mismatch: {p} vs {}",
                e.position
            );
        }
    }

    #[test]
    fn trajectory_is_reproducible_per_seed() {
        let a = generate(9, MotionConfig::paper_default());
        let b = generate(9, MotionConfig::paper_default());
        assert_eq!(a, b);
        let c = generate(10, MotionConfig::paper_default());
        assert_ne!(
            a.position_at(SimTime::from_secs(100)),
            c.position_at(SimTime::from_secs(100))
        );
    }

    #[test]
    fn path_covers_whole_duration() {
        let cfg = MotionConfig {
            duration: 500.0,
            ..MotionConfig::paper_default()
        };
        let m = generate(11, cfg);
        assert_eq!(m.path().end_time(), SimTime::from_secs(500));
        assert_eq!(m.end_time(), SimTime::from_secs(500));
    }

    #[test]
    #[should_panic]
    fn invalid_speed_range_panics() {
        let cfg = MotionConfig {
            speed_min: 5.0,
            speed_max: 3.0,
            ..MotionConfig::paper_default()
        };
        let _ = generate(1, cfg);
    }

    #[test]
    #[should_panic]
    fn start_outside_region_panics() {
        let cfg = MotionConfig {
            start: Point::new(-10.0, 0.0),
            ..MotionConfig::paper_default()
        };
        let _ = generate(1, cfg);
    }

    #[test]
    fn fast_user_reflects_often_but_keeps_moving() {
        let cfg = MotionConfig::paper_default().with_speed_range(16.0, 20.0);
        let m = generate(12, cfg);
        // A vehicle covering ~7 km in a 450 m box must bounce a lot.
        assert!(m.events().len() > 8);
        assert!(m.path().total_distance() > 6000.0);
    }
}
