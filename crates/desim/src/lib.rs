//! # routesync-desim — discrete-event simulation engine
//!
//! A small, deterministic discrete-event simulation core used by every other
//! crate in the `routesync` workspace.
//!
//! Design goals (in the spirit of event-driven network stacks such as
//! smoltcp): simplicity, robustness, exhaustive documentation, and **no
//! cleverness at the type level**. The engine is synchronous and
//! single-threaded; parallelism in the workspace happens *across* independent
//! simulation runs, never inside one.
//!
//! ## Determinism
//!
//! Two properties make every simulation in this workspace reproducible
//! byte-for-byte:
//!
//! 1. [`SimTime`] is an integer number of nanoseconds. The Periodic Messages
//!    model of Floyd & Jacobson defines a *cluster* as a set of routers that
//!    reset their timers at the **same instant**; integer time makes "same
//!    instant" a well-defined equality instead of a floating-point tolerance.
//! 2. Events scheduled for the same instant pop in FIFO order of scheduling
//!    (a monotone sequence number, owned by the [`Engine`], breaks ties),
//!    for every scheduler implementation. A model may reserve a sequence
//!    number and schedule the event later ([`Engine::reserve_seq`]); it
//!    then pops exactly where it would have popped if scheduled at once.
//!
//! ## Schedulers
//!
//! Two pending-event-set implementations are provided behind the
//! [`Scheduler`] trait:
//!
//! * [`BinaryHeapScheduler`] — a plain binary heap, `O(log n)` per
//!   operation, the default.
//! * [`CalendarQueue`] — Brown's calendar queue, amortized `O(1)` for the
//!   heavily periodic workloads produced by routing timers. Kept as an
//!   ablation target (`routesync-bench/benches/scheduler.rs`).
//!
//! ## Example
//!
//! ```
//! use routesync_desim::{Duration, Engine, SimTime};
//!
//! // Count ticks of a periodic timer.
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Tick }
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_secs(1), Ev::Tick);
//! let mut ticks = 0u32;
//! while let Some((t, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Tick => {
//!             ticks += 1;
//!             if ticks < 10 {
//!                 engine.schedule(t + Duration::from_secs(1), Ev::Tick);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(ticks, 10);
//! assert_eq!(engine.now(), SimTime::from_secs(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod engine;
pub mod heap;
pub mod scheduler;
pub mod time;
pub mod token;

pub use calendar::CalendarQueue;
pub use engine::Engine;
pub use heap::BinaryHeapScheduler;
pub use scheduler::Scheduler;
pub use time::{Duration, SimTime};
pub use token::TokenGen;
