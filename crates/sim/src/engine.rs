//! The simulation engine: repeatedly pops the next event and hands it to the
//! world together with the queue so the world can schedule follow-up events.

use crate::event::EventQueue;
use crate::time::SimTime;

/// The behaviour under simulation.
///
/// A `World` owns all simulated state (nodes, channel, user, protocol state)
/// and reacts to events by mutating that state and scheduling further events
/// on the queue it is handed.
pub trait World {
    /// The event type driving this world.
    type Event;

    /// Handles a single event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a call to [`Engine::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue was exhausted before the horizon was reached.
    QueueExhausted,
    /// The time horizon was reached; later events remain pending.
    HorizonReached,
    /// The configured event budget was exhausted (safety valve against
    /// accidental event storms in protocol code).
    EventBudgetExhausted,
}

/// A discrete-event simulation engine driving a [`World`].
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    processed: u64,
    event_budget: u64,
}

impl<W: World> Engine<W> {
    /// Default maximum number of events processed per engine (100 million),
    /// a generous safety valve against runaway event storms.
    pub const DEFAULT_EVENT_BUDGET: u64 = 100_000_000;

    /// Creates an engine around `world` with an empty event queue.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            processed: 0,
            event_budget: Self::DEFAULT_EVENT_BUDGET,
        }
    }

    /// Sets the maximum total number of events this engine will process.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Immutable access to the event queue.
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Mutable access to the event queue (used to seed initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Runs until the queue is empty, the event budget is exhausted, or the
    /// next event would fire strictly after `horizon`.
    ///
    /// Events scheduled exactly at `horizon` are processed.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        loop {
            if self.processed >= self.event_budget {
                return RunOutcome::EventBudgetExhausted;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::QueueExhausted,
                Some(t) if t > horizon => return RunOutcome::HorizonReached,
                Some(_) => {
                    // Unwrap is fine: peek just succeeded and we hold &mut self.
                    let scheduled = self.queue.pop().expect("peeked event vanished");
                    self.processed += 1;
                    self.world
                        .handle(scheduled.time, scheduled.event, &mut self.queue);
                }
            }
        }
    }

    /// Runs until the queue is exhausted (or the event budget is hit).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[derive(Debug, Default)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    #[derive(Debug, Clone)]
    enum Ev {
        Mark(u32),
        Chain(u32),
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
            match event {
                Ev::Mark(id) => self.seen.push((now, id)),
                Ev::Chain(n) => {
                    self.seen.push((now, n));
                    if n > 0 {
                        queue.schedule_in(Duration::from_secs(1), Ev::Chain(n - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn processes_events_in_order() {
        let mut engine = Engine::new(Recorder::default());
        engine
            .queue_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        engine
            .queue_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        let outcome = engine.run_to_completion();
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        assert_eq!(
            engine.world().seen,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut engine = Engine::new(Recorder::default());
        engine
            .queue_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        engine
            .queue_mut()
            .schedule_at(SimTime::from_secs(5), Ev::Mark(5));
        let outcome = engine.run_until(SimTime::from_secs(3));
        assert_eq!(outcome, RunOutcome::HorizonReached);
        assert_eq!(engine.world().seen.len(), 1);
        assert_eq!(engine.queue().len(), 1);
        // Events exactly at the horizon are processed.
        let outcome = engine.run_until(SimTime::from_secs(5));
        assert_eq!(outcome, RunOutcome::QueueExhausted);
        assert_eq!(engine.world().seen.len(), 2);
    }

    #[test]
    fn chained_events_cascade() {
        let mut engine = Engine::new(Recorder::default());
        engine.queue_mut().schedule_at(SimTime::ZERO, Ev::Chain(4));
        engine.run_to_completion();
        assert_eq!(engine.world().seen.len(), 5);
        assert_eq!(engine.now(), SimTime::from_secs(4));
        assert_eq!(engine.events_processed(), 5);
    }

    #[test]
    fn event_budget_is_a_safety_valve() {
        let mut engine = Engine::new(Recorder::default()).with_event_budget(3);
        engine
            .queue_mut()
            .schedule_at(SimTime::ZERO, Ev::Chain(100));
        let outcome = engine.run_to_completion();
        assert_eq!(outcome, RunOutcome::EventBudgetExhausted);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn into_world_returns_final_state() {
        let mut engine = Engine::new(Recorder::default());
        engine.queue_mut().schedule_at(SimTime::ZERO, Ev::Mark(9));
        engine.run_to_completion();
        let world = engine.into_world();
        assert_eq!(world.seen, vec![(SimTime::ZERO, 9)]);
    }
}
