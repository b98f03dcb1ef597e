//! The pending-event queue: a calendar queue (timing wheel), the textbook
//! discrete-event scheduler. Pop order is the total order `(time, seq)`,
//! i.e. time order with FIFO tie-breaking; insert and pop are O(1)
//! amortized over bucketed time bands, and the queue is **allocation-free
//! in steady state** (buckets retain their capacity, the bucket array only
//! ever grows).

use crate::time::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event scheduled for execution, as stored in the queue.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone sequence number used to break ties deterministically
    /// (FIFO among events scheduled for the same instant).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Initial width of one calendar "day", as a power-of-two shift of
/// microseconds: 2^14 µs ≈ 16.4 ms. Every growth re-estimates the shift from
/// the pending-event spread (see [`EventQueue::grow`]), the calendar queue's
/// classic width adaptation.
const INITIAL_SHIFT: u32 = 14;

/// Initial bucket count (power of two, required by the mask arithmetic).
const INITIAL_BUCKETS: usize = 16;

/// Grow the bucket array when the queue holds more than this many events per
/// bucket on average. Growth doubles the array, so the amortized cost per
/// insert is O(1) and a bounded steady-state population never grows again.
const MAX_LOAD: usize = 4;

/// A priority queue of future events, ordered by time then insertion order,
/// implemented as a calendar queue (timing wheel).
///
/// The queue tracks the current simulation time: events may only be scheduled
/// at or after "now", which catches causality bugs in protocol code early.
/// That same invariant is what lets `pop` start its bucket scan at the day
/// containing "now" with no separate cursor state.
///
/// ```
/// use wsn_sim::{Duration, EventQueue, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_in(Duration::from_secs(2), "later");
/// q.schedule_at(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().event, "sooner");
/// assert_eq!(q.pop().unwrap().event, "later");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// `buckets[day & mask]` holds every pending event of that day (events
    /// whole revolutions apart share a bucket and are told apart by their
    /// timestamps). Buckets are unsorted; selection is by `(time, seq)`
    /// comparison, so `swap_remove` is safe and no per-pop sort is needed.
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Events scheduled beyond the wheel's horizon (one full revolution from
    /// now). Far-future outliers would otherwise pollute every bucket scan
    /// and stretch the width estimate; parking them in a side-heap keeps the
    /// wheel dense. They pop straight from the heap when their time comes —
    /// both structures honour the same `(time, seq)` total order, so the
    /// overall pop order is the min of the two fronts. Like the buckets, the
    /// heap keeps its capacity: no steady-state allocation.
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Pending event count across wheel and overflow.
    len: usize,
    /// Pending events in the wheel alone (`find_next` early-outs on zero).
    wheel_len: usize,
    /// Location of the minimum *wheel* event: `(time, seq, bucket, slot)`.
    /// `Some` iff `wheel_len > 0`; maintained eagerly so `peek_time` is O(1)
    /// and each event is scanned for exactly once, on the pop that removes
    /// its predecessor. The true front is the min of this and the overflow
    /// heap's peek.
    next: Option<(SimTime, u64, usize, usize)>,
    /// Current day width as a power-of-two shift of microseconds
    /// (`day = micros >> shift`); re-estimated at every growth.
    shift: u32,
    now: SimTime,
    next_seq: u64,
    /// Most events pending at once (a high-water mark).
    peak_len: usize,
    /// Pops served by the overflow heap rather than the wheel.
    overflow_pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..INITIAL_BUCKETS).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            len: 0,
            wheel_len: 0,
            next: None,
            shift: INITIAL_SHIFT,
            now: SimTime::ZERO,
            next_seq: 0,
            peak_len: 0,
            overflow_pops: 0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The most events that were ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// How many pops were served by the overflow heap: events scheduled
    /// beyond the wheel's horizon (one revolution from "now") at the time.
    pub fn overflow_pops(&self) -> u64 {
        self.overflow_pops
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// Times in the past are clamped to "now": protocol code frequently
    /// computes ideal send instants (e.g. the just-in-time prefetch bound)
    /// that have already passed, in which case the action happens immediately.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        if self.wheel_len + 1 > self.buckets.len() * MAX_LOAD {
            self.grow();
        }
        if time.as_micros() >= self.horizon() {
            self.overflow.push(ScheduledEvent { time, seq, event });
            return;
        }
        let bucket = self.bucket_of(time);
        self.buckets[bucket].push(ScheduledEvent { time, seq, event });
        self.wheel_len += 1;
        // A fresh event can only displace the cached minimum, never move it:
        // pushes append and nothing else shifts, so cached slots stay valid.
        let slot = self.buckets[bucket].len() - 1;
        match self.next {
            Some((t, s, _, _)) if (t, s) <= (time, seq) => {}
            _ => self.next = Some((time, seq, bucket, slot)),
        }
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now.saturating_add(delay), event);
    }

    /// Time of the next pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let wheel = self.next.map(|(t, s, ..)| (t, s));
        let far = self.overflow.peek().map(|ev| (ev.time, ev.seq));
        match (wheel, far) {
            (Some(a), Some(b)) => Some(a.min(b).0),
            (Some(a), None) => Some(a.0),
            (None, Some(b)) => Some(b.0),
            (None, None) => None,
        }
    }

    /// Removes and returns the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let take_overflow = match (self.next, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((t, s, _, _)), Some(far)) => (far.time, far.seq) < (t, s),
        };
        self.len -= 1;
        if take_overflow {
            // The wheel's cached minimum is untouched: no slot moved.
            self.overflow_pops += 1;
            let event = self.overflow.pop().expect("peeked above");
            debug_assert!(event.time >= self.now, "event queue time went backwards");
            self.now = event.time;
            return Some(event);
        }
        let (time, _seq, bucket, slot) = self.next.expect("checked above");
        debug_assert!(time >= self.now, "event queue time went backwards");
        let event = self.buckets[bucket].swap_remove(slot);
        self.wheel_len -= 1;
        self.now = time;
        self.next = self.find_next();
        Some(event)
    }

    fn bucket_of(&self, time: SimTime) -> usize {
        let day = time.as_micros() >> self.shift;
        (day & (self.buckets.len() as u64 - 1)) as usize
    }

    /// First instant beyond the wheel: one full revolution from the day
    /// containing "now". Events at or past it go to the overflow heap.
    fn horizon(&self) -> u64 {
        ((self.now.as_micros() >> self.shift) + self.buckets.len() as u64) << self.shift
    }

    /// Doubles the bucket array, re-estimates the day width and
    /// redistributes every pending event. The array never shrinks: a
    /// steady-state population sized once stays allocation-free forever
    /// after (growth is the only allocating path, and the only one that
    /// changes the width).
    fn grow(&mut self) {
        let new_count = self.buckets.len() * 2;
        // Width estimation: choose the power-of-two day width that puts the
        // 75th-percentile pending event inside one wheel revolution. A dense
        // band then spreads across the whole array (each pop scans a few
        // events), while far-future outliers — which would wreck a max-based
        // estimate by stretching the width until everything near now shares
        // one day — stay outside the revolution and simply wrap.
        let now = self.now.as_micros();
        let mut deltas: Vec<u64> = self
            .buckets
            .iter()
            .flatten()
            .map(|ev| ev.time.as_micros() - now)
            .collect();
        if !deltas.is_empty() {
            let at = deltas.len() * 3 / 4;
            let (_, q75, _) = deltas.select_nth_unstable(at);
            let width = (q75.saturating_mul(2) / new_count as u64).max(1);
            self.shift = width.ilog2();
        }
        let new_buckets: Vec<Vec<ScheduledEvent<E>>> = (0..new_count).map(|_| Vec::new()).collect();
        let mask = new_count as u64 - 1;
        let horizon = ((now >> self.shift) + new_count as u64) << self.shift;
        let old = std::mem::replace(&mut self.buckets, new_buckets);
        for bucket in old {
            for ev in bucket {
                // The tighter width may push events past the new horizon —
                // they move to the overflow heap rather than wrapping.
                if ev.time.as_micros() >= horizon {
                    self.overflow.push(ev);
                    self.wheel_len -= 1;
                    continue;
                }
                let day = ev.time.as_micros() >> self.shift;
                self.buckets[(day & mask) as usize].push(ev);
            }
        }
        // Slots moved; re-locate the cached minimum (its identity is stable,
        // redistribution changes positions only).
        self.next = self.find_next();
    }

    /// Locates the minimum `(time, seq)` pending event.
    ///
    /// Walks calendar days starting at the day containing `now` (every
    /// pending event is at or after `now`, so earlier days are provably
    /// empty). The first day holding an event holds the minimum. One full
    /// revolution visits every bucket exactly once, so if no event lies
    /// within a revolution the walk has already seen the global minimum and
    /// returns it directly — far-future outliers cost one O(n) sweep, not an
    /// unbounded spin around the wheel.
    fn find_next(&self) -> Option<(SimTime, u64, usize, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let nbuckets = self.buckets.len();
        let mask = nbuckets as u64 - 1;
        let start_day = self.now.as_micros() >> self.shift;
        let mut global: Option<(SimTime, u64, usize, usize)> = None;
        for offset in 0..nbuckets as u64 {
            let day = start_day + offset;
            let bucket = (day & mask) as usize;
            let events = &self.buckets[bucket];
            if events.is_empty() {
                continue;
            }
            // Every pending event is >= now, so an event in this bucket with
            // time below the day's end boundary is *of* this day (an earlier
            // day mapping to the same bucket would lie a whole revolution
            // before `start_day`). One precomputed bound replaces a per-event
            // shift-and-compare.
            let day_end = (day + 1) << self.shift;
            let mut same_day: Option<(SimTime, u64, usize)> = None;
            for (slot, ev) in events.iter().enumerate() {
                if ev.time.as_micros() < day_end {
                    if same_day.map_or(true, |(t, s, _)| (ev.time, ev.seq) < (t, s)) {
                        same_day = Some((ev.time, ev.seq, slot));
                    }
                } else if global.map_or(true, |(t, s, _, _)| (ev.time, ev.seq) < (t, s)) {
                    global = Some((ev.time, ev.seq, bucket, slot));
                }
            }
            if let Some((time, seq, slot)) = same_day {
                return Some((time, seq, bucket, slot));
            }
        }
        global
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "first");
        q.pop();
        // Scheduling in the past is clamped to the current time rather than
        // violating causality.
        q.schedule_at(SimTime::from_secs(1), "late");
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10));
        assert_eq!(e.event, "late");
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_in(Duration::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn peak_len_and_overflow_pops_count_what_happened() {
        let mut q = EventQueue::new();
        for i in 0..3 {
            q.schedule_at(SimTime::from_millis(i), i);
        }
        q.pop();
        q.schedule_at(SimTime::from_millis(5), 5);
        assert_eq!(q.peak_len(), 3, "never more than three pending at once");
        // Far past one revolution of the 16-day wheel (~0.26 s): overflow.
        q.schedule_at(SimTime::from_secs(1_000), 1_000);
        assert_eq!(q.peak_len(), 4);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, [1, 2, 5, 1_000]);
        assert_eq!(q.overflow_pops(), 1);
    }

    #[test]
    fn growth_preserves_order_and_pending_events() {
        // Push far past the initial capacity so the wheel doubles several
        // times mid-stream, then check nothing was lost or reordered.
        let mut q = EventQueue::new();
        let mut expect: Vec<u64> = Vec::new();
        for i in 0..1000u64 {
            let t = (i * 7919) % 4096; // deterministic scatter, many ties
            q.schedule_at(SimTime::from_millis(t), t);
            expect.push(t);
        }
        expect.sort(); // stable: equal times keep insertion order
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn far_future_events_pop_after_a_sparse_gap() {
        // Events separated by much more than one wheel revolution exercise
        // the global-minimum fallback in find_next.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1_000_000), "far");
        q.schedule_at(SimTime::from_secs(1), "near");
        q.schedule_at(SimTime::from_secs(500_000_000), "farther");
        assert_eq!(q.pop().unwrap().event, "near");
        assert_eq!(q.pop().unwrap().event, "far");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(500_000_000)));
        assert_eq!(q.pop().unwrap().event, "farther");
        assert!(q.pop().is_none());
    }
}
