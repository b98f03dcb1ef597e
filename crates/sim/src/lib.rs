//! # wsn-sim
//!
//! A small, deterministic discrete-event simulation (DES) engine used as the
//! substrate for the MobiQuery reproduction.
//!
//! The paper evaluates MobiQuery in ns-2; this crate provides the equivalent
//! machinery we need from such a simulator:
//!
//! * a virtual clock with microsecond resolution ([`SimTime`], [`Duration`]),
//! * a pending-event queue with deterministic tie-breaking ([`EventQueue`]),
//! * a generic engine driving a user-supplied [`World`] ([`Engine`]),
//! * a seedable, fast pseudo-random number generator ([`SimRng`]) so that
//!   every experiment is exactly reproducible from its seed,
//! * light-weight summary statistics ([`stats`]).
//!
//! The engine is intentionally single-threaded: wireless protocol simulations
//! of this scale (hundreds of nodes, hundreds of simulated seconds) are
//! dominated by event ordering rather than raw compute, and determinism is
//! worth far more than parallelism for reproducing published figures.
//! Parallelism happens one level up instead: independent runs fan out across
//! worker threads through the [`pool`] module, which preserves input order so
//! results are identical whatever the worker count.
//!
//! ```
//! use wsn_sim::{Duration, Engine, EventQueue, SimTime, World};
//!
//! struct Counter { fired: u32 }
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Tick { Once, Repeat(u32) }
//!
//! impl World for Counter {
//!     type Event = Tick;
//!     fn handle(&mut self, _now: SimTime, event: Tick, queue: &mut EventQueue<Tick>) {
//!         self.fired += 1;
//!         if let Tick::Repeat(n) = event {
//!             if n > 0 {
//!                 queue.schedule_in(Duration::from_secs_f64(1.0), Tick::Repeat(n - 1));
//!             }
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.queue_mut().schedule_at(SimTime::ZERO, Tick::Once);
//! engine.queue_mut().schedule_at(SimTime::ZERO, Tick::Repeat(3));
//! engine.run_until(SimTime::from_secs_f64(10.0));
//! assert_eq!(engine.world().fired, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod event;
pub mod pool;
mod rng;
pub mod stats;
mod time;

pub use engine::{Engine, RunOutcome, World};
pub use event::{EventQueue, ScheduledEvent};
pub use rng::{mix_seed, SimRng};
pub use time::{Duration, SimTime};
