//! Property-based tests for the event queue, the RNG and the clock.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wsn_sim::{Duration, EventQueue, SimRng, SimTime};

/// The event queue's contract, written as plainly as possible: pending
/// events keyed by `(time, seq)`, so the next event is `pop_first`; times
/// before the clock clamp to it, and popping advances it.
#[derive(Debug, Default)]
struct ModelQueue {
    pending: BTreeMap<(SimTime, u64), u64>,
    now: SimTime,
    next_seq: u64,
    /// High-water mark of `pending.len()`.
    peak: usize,
    /// Events popped so far.
    pops: u64,
}

impl ModelQueue {
    fn schedule_at(&mut self, time: SimTime, event: u64) {
        self.pending
            .insert((time.max(self.now), self.next_seq), event);
        self.next_seq += 1;
        self.peak = self.peak.max(self.pending.len());
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let ((time, seq), event) = self.pending.pop_first()?;
        self.now = time;
        self.pops += 1;
        Some((time, seq, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(time, _)| time)
    }
}

proptest! {
    /// The calendar queue behaves exactly like [`ModelQueue`] across random
    /// interleavings of schedules and pops: the same events in the same
    /// order at the same clock, with the same pending count, next time and
    /// high-water mark after every step. The mix covers heavy ties (FIFO
    /// stability, in the wheel and in the overflow heap), times the clock
    /// has already passed (the clamp), relative schedules and far-future
    /// outliers (more than a wheel revolution ahead).
    #[test]
    fn event_queue_matches_the_model(ops in proptest::collection::vec(any::<u64>(), 1..400)) {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = ModelQueue::default();
        for (i, &op) in ops.iter().enumerate() {
            let payload = i as u64;
            match op % 6 {
                // Dense band on a 50 µs grid: many exact ties, and once the
                // clock has entered the band, many times already past.
                0 | 1 => {
                    let t = SimTime::from_micros((op >> 3) % 2_000 * 50);
                    queue.schedule_at(t, payload);
                    model.schedule_at(t, payload);
                }
                // Exact tie at a fixed instant: FIFO order must hold.
                2 => {
                    let t = SimTime::from_secs(7);
                    queue.schedule_at(t, payload);
                    model.schedule_at(t, payload);
                }
                // Relative to the clock, as the simulation schedules.
                3 => {
                    let delay = Duration::from_micros((op >> 3) % 50_000);
                    queue.schedule_in(delay, payload);
                    model.schedule_at(model.now.saturating_add(delay), payload);
                }
                // Far future: beyond one revolution of the wheel.
                4 => {
                    let t = SimTime::from_secs(1_000 + (op >> 3) % 1_000_000_000);
                    queue.schedule_at(t, payload);
                    model.schedule_at(t, payload);
                }
                _ => {
                    let got = queue.pop().map(|ev| (ev.time, ev.seq, ev.event));
                    prop_assert_eq!(got, model.pop(), "op {} popped something else", i);
                }
            }
            prop_assert_eq!(queue.now(), model.now);
            prop_assert_eq!(queue.peek_time(), model.peek_time());
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
            prop_assert_eq!(queue.peak_len(), model.peak);
            prop_assert!(
                queue.overflow_pops() <= model.pops,
                "{} overflow pops out of {} pops", queue.overflow_pops(), model.pops
            );
        }
        // Drain both: the tails must be identical too.
        loop {
            let got = queue.pop().map(|ev| (ev.time, ev.seq, ev.event));
            let want = model.pop();
            prop_assert_eq!(got, want, "the drain popped something else");
            prop_assert_eq!(queue.now(), model.now);
            prop_assert_eq!(queue.len(), model.pending.len());
            prop_assert!(queue.overflow_pops() <= model.pops);
            if want.is_none() {
                break;
            }
        }
        prop_assert_eq!(queue.peak_len(), model.peak);
    }

    /// The RNG produces identical streams for identical seeds and stays in range.
    #[test]
    fn rng_reproducible_and_in_range(seed in any::<u64>(), lo in -1000.0f64..0.0, span in 0.001f64..1000.0) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = a.gen_range_f64(lo, lo + span);
            let y = b.gen_range_f64(lo, lo + span);
            prop_assert_eq!(x, y);
            prop_assert!(x >= lo && x < lo + span);
        }
    }

    /// Durations converted through seconds round-trip within a microsecond.
    #[test]
    fn duration_roundtrip(secs in 0.0f64..100_000.0) {
        let d = Duration::from_secs_f64(secs);
        prop_assert!((d.as_secs_f64() - secs).abs() < 1e-5);
    }
}
