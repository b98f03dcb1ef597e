//! # wsn-sim
//!
//! The deterministic discrete-event simulation (DES) substrate of the
//! MobiQuery reproduction.
//!
//! The paper evaluates MobiQuery in ns-2; this crate provides the equivalent
//! machinery we need from such a simulator:
//!
//! * a virtual clock with microsecond resolution ([`SimTime`], [`Duration`]),
//! * a pending-event queue with deterministic tie-breaking ([`EventQueue`]),
//! * a seedable, fast pseudo-random number generator ([`SimRng`]) so that
//!   every experiment is exactly reproducible from its seed,
//! * light-weight summary statistics ([`stats`]).
//!
//! A simulation owns its queue and runs its own loop: it pops the next event
//! and handles it, scheduling follow-ups on the same queue. That loop is
//! intentionally single-threaded: wireless protocol simulations of this
//! scale (hundreds of nodes, hundreds of simulated seconds) are dominated by
//! event ordering rather than raw compute, and determinism is worth far more
//! than parallelism for reproducing published figures. Parallelism happens
//! one level up instead: independent runs fan out across worker threads
//! through the [`pool`] module, which preserves input order so results are
//! identical whatever the worker count.
//!
//! ```
//! use wsn_sim::{Duration, EventQueue, SimTime};
//!
//! enum Tick {
//!     Once,
//!     Repeat(u32),
//! }
//!
//! let mut queue = EventQueue::new();
//! queue.schedule_at(SimTime::ZERO, Tick::Once);
//! queue.schedule_at(SimTime::ZERO, Tick::Repeat(3));
//! let horizon = SimTime::from_secs_f64(10.0);
//! let mut fired = 0;
//! while queue.peek_time().is_some_and(|t| t <= horizon) {
//!     let Some(scheduled) = queue.pop() else { break };
//!     fired += 1;
//!     if let Tick::Repeat(n @ 1..) = scheduled.event {
//!         queue.schedule_in(Duration::from_secs_f64(1.0), Tick::Repeat(n - 1));
//!     }
//! }
//! assert_eq!(fired, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod pool;
mod rng;
pub mod stats;
mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use rng::{mix_seed, SimRng};
pub use time::{Duration, SimTime};
