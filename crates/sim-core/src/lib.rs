//! # sim-core — deterministic discrete-event simulation foundation
//!
//! The substrate every other crate in this workspace builds on:
//!
//! * [`time`] — simulated time in cycles of the paper's 200 MHz CPU;
//! * [`engine`] — a generic, deterministic discrete-event engine
//!   (FIFO-ordered timestamp ties ⇒ bit-identical replays);
//! * [`queue`] — the engine's pending-event queue: a 4-ary min-heap of
//!   small index entries over a slab arena of event payloads;
//! * [`mem`] — the host-side memory-region copy-cost model calibrated to the
//!   paper's measured 45 / 14 / 80 MB/s bandwidths;
//! * [`stats`] — summaries, latency sketches, time-weighted statistics;
//! * [`rng`] — seedable RNG with independent per-purpose streams;
//! * [`trace`] — bounded categorized trace ring;
//! * [`report`] — table/CSV rendering shared by the figure harnesses.

#![warn(missing_docs)]

pub mod engine;
pub mod mem;
pub mod queue;
pub mod report;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::{Engine, Model, RunOutcome, Scheduler};
pub use mem::Region;
pub use rng::DetRng;
pub use stats::{Summary, TimeWeighted};
pub use time::{Cycles, SimTime, CPU_HZ, CYCLES_PER_US};
pub use trace::{Category, Record, Trace};
