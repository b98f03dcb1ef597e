//! Power-save (duty-cycle) sleep schedules.
//!
//! The paper assumes IEEE 802.11 PSM-style operation: clocks are synchronised
//! and every duty-cycled node is awake for an `active_window` (100 ms in the
//! evaluation) at the start of every `sleep_period` (3–15 s), sleeping the
//! rest of the time. Backbone nodes buffer traffic destined to a sleeping
//! neighbour and deliver it during the neighbour's next active window — that
//! buffering delay (up to a full sleep period) is precisely why prefetching is
//! needed, so this module is the heart of the reproduction's temporal model.

use std::fmt;
use wsn_sim::{Duration, SimTime};

/// A periodic wake/sleep schedule (synchronised beacon-interval model).
///
/// The node is awake during `[k·period + offset, k·period + offset + active_window)`
/// for every integer `k ≥ 0`, and asleep otherwise.
///
/// ```
/// use wsn_net::SleepSchedule;
/// use wsn_sim::{Duration, SimTime};
///
/// // 100 ms active window every 15 s — the paper's lowest duty cycle.
/// let s = SleepSchedule::new(Duration::from_secs(15), Duration::from_millis(100));
/// assert!(s.is_awake(SimTime::from_millis(50)));
/// assert!(!s.is_awake(SimTime::from_secs(5)));
/// assert_eq!(s.next_wake(SimTime::from_secs(5)), SimTime::from_secs(15));
/// assert!((s.duty_cycle() - 0.1 / 15.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SleepSchedule {
    period: Duration,
    active_window: Duration,
    offset: Duration,
}

impl SleepSchedule {
    /// Creates a schedule with the given sleep period and active window and a
    /// zero phase offset (all nodes synchronised, as the paper assumes).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or the active window exceeds the period.
    pub fn new(period: Duration, active_window: Duration) -> Self {
        Self::with_offset(period, active_window, Duration::ZERO)
    }

    /// Creates a schedule with an explicit phase offset, for experiments with
    /// unsynchronised duty cycles.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, the active window exceeds the period, or
    /// the offset is not smaller than the period.
    pub fn with_offset(period: Duration, active_window: Duration, offset: Duration) -> Self {
        assert!(!period.is_zero(), "sleep period must be positive");
        assert!(
            active_window <= period,
            "active window ({active_window}) must not exceed the sleep period ({period})"
        );
        assert!(offset < period, "offset must be smaller than the period");
        SleepSchedule {
            period,
            active_window,
            offset,
        }
    }

    /// The paper's evaluation schedule: `sleep_period_secs` seconds per cycle
    /// with a 100 ms active window.
    pub fn paper_default(sleep_period_secs: f64) -> Self {
        SleepSchedule::new(
            Duration::from_secs_f64(sleep_period_secs),
            Duration::from_millis(100),
        )
    }

    /// Full cycle length (the "sleep period" in the paper's terminology).
    pub fn period(&self) -> Duration {
        self.period
    }

    /// Length of the awake window at the start of every cycle.
    pub fn active_window(&self) -> Duration {
        self.active_window
    }

    /// Fraction of time the node is awake, in `[0, 1]`.
    pub fn duty_cycle(&self) -> f64 {
        self.active_window.as_secs_f64() / self.period.as_secs_f64()
    }

    /// Position of `t` within the cycle, in `[0, period)`.
    fn phase(&self, t: SimTime) -> Duration {
        let p = self.period.as_micros();
        let shifted = t.as_micros() + p - (self.offset.as_micros() % p);
        Duration::from_micros(shifted % p)
    }

    /// Returns `true` when the node's radio is on at time `t` according to the
    /// periodic schedule (ignoring any protocol-requested wake overrides).
    pub fn is_awake(&self, t: SimTime) -> bool {
        self.phase(t) < self.active_window
    }

    /// The start of the first active window at or after `t`.
    ///
    /// If `t` falls inside an active window, `t` itself is returned.
    pub fn next_awake_instant(&self, t: SimTime) -> SimTime {
        if self.is_awake(t) {
            t
        } else {
            self.next_wake(t)
        }
    }

    /// The start of the next active window strictly after the current phase
    /// position (i.e. the next wake-up edge at or after `t`, excluding an
    /// active window already in progress).
    pub fn next_wake(&self, t: SimTime) -> SimTime {
        let phase = self.phase(t);
        let remaining = self.period - phase;
        if phase == Duration::ZERO {
            t
        } else {
            t + remaining
        }
    }

    /// The end of the active window that contains `t`, if `t` is inside one.
    pub fn active_window_end(&self, t: SimTime) -> Option<SimTime> {
        if self.is_awake(t) {
            let phase = self.phase(t);
            Some(t + (self.active_window - phase))
        } else {
            None
        }
    }
}

impl fmt::Display for SleepSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sleep({} awake / {} cycle, {:.2}% duty)",
            self.active_window,
            self.period,
            self.duty_cycle() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_15s() -> SleepSchedule {
        SleepSchedule::paper_default(15.0)
    }

    #[test]
    fn duty_cycle_matches_paper_example() {
        // 150 ms / 15 s = 1% in the intro's MICA2 example; our evaluation
        // default is 100 ms / 15 s ≈ 0.67%.
        let s = SleepSchedule::new(Duration::from_secs(15), Duration::from_millis(150));
        assert!((s.duty_cycle() - 0.01).abs() < 1e-9);
        assert!((paper_15s().duty_cycle() - 0.1 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn awake_only_during_active_window() {
        let s = paper_15s();
        assert!(s.is_awake(SimTime::ZERO));
        assert!(s.is_awake(SimTime::from_millis(99)));
        assert!(!s.is_awake(SimTime::from_millis(100)));
        assert!(!s.is_awake(SimTime::from_secs(14)));
        assert!(s.is_awake(SimTime::from_secs(15)));
        assert!(s.is_awake(SimTime::from_millis(15_050)));
    }

    #[test]
    fn next_wake_is_next_cycle_start() {
        let s = paper_15s();
        assert_eq!(s.next_wake(SimTime::from_secs(5)), SimTime::from_secs(15));
        assert_eq!(
            s.next_wake(SimTime::from_millis(100)),
            SimTime::from_secs(15)
        );
        assert_eq!(s.next_wake(SimTime::from_secs(15)), SimTime::from_secs(15));
        assert_eq!(
            s.next_wake(SimTime::from_millis(15_001)),
            SimTime::from_secs(30)
        );
    }

    #[test]
    fn next_awake_instant_inside_window_is_now() {
        let s = paper_15s();
        assert_eq!(
            s.next_awake_instant(SimTime::from_millis(50)),
            SimTime::from_millis(50)
        );
        assert_eq!(
            s.next_awake_instant(SimTime::from_secs(7)),
            SimTime::from_secs(15)
        );
    }

    #[test]
    fn active_window_end_only_when_awake() {
        let s = paper_15s();
        assert_eq!(
            s.active_window_end(SimTime::from_millis(30)),
            Some(SimTime::from_millis(100))
        );
        assert_eq!(s.active_window_end(SimTime::from_secs(3)), None);
    }

    #[test]
    fn offset_shifts_the_window() {
        let s = SleepSchedule::with_offset(
            Duration::from_secs(10),
            Duration::from_millis(100),
            Duration::from_secs(2),
        );
        assert!(!s.is_awake(SimTime::ZERO));
        assert!(s.is_awake(SimTime::from_secs(2)));
        assert!(s.is_awake(SimTime::from_millis(2_050)));
        assert!(!s.is_awake(SimTime::from_millis(2_100)));
        assert_eq!(s.next_wake(SimTime::from_secs(3)), SimTime::from_secs(12));
    }

    #[test]
    #[should_panic]
    fn active_window_longer_than_period_panics() {
        let _ = SleepSchedule::new(Duration::from_secs(1), Duration::from_secs(2));
    }

    #[test]
    #[should_panic]
    fn zero_period_panics() {
        let _ = SleepSchedule::new(Duration::ZERO, Duration::ZERO);
    }

    #[test]
    fn display_mentions_duty_cycle() {
        let s = paper_15s();
        assert!(format!("{s}").contains('%'));
    }
}
