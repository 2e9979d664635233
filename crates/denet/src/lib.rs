#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! `denet` — a small, deterministic discrete-event simulation engine.
//!
//! Carey and Livny's original study was implemented in DeNet, a Modula-2-based
//! simulation language. This crate provides the equivalent core facilities in
//! Rust:
//!
//! * an exact integer [`SimTime`] clock and [`EventCalendar`] with
//!   deterministic FIFO tie-breaking,
//! * named, reproducible random streams ([`SimRng`]) with the distributions
//!   the model needs (exponential, uniform, Bernoulli, distinct sampling),
//! * output-analysis collectors ([`Tally`], [`LogHistogram`], [`BusyTracker`],
//!   [`BatchMeans`]) with warmup-reset support,
//! * the containers the models share: [`FxHashMap`] and the [`Lists`]
//!   arena of many short lists.
//!
//! The engine is intentionally minimal: model components (CPUs, disks, the
//! transaction manager, ...) live in the `ddbm-*` crates and drive the
//! calendar directly, which keeps the hot event loop free of dynamic dispatch.

pub mod calendar;
pub mod fxhash;
pub mod lists;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod witness;

pub use calendar::{EventCalendar, Fired, SlotId};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use lists::{List, Lists};
pub use rng::SimRng;
pub use stats::{BatchMeans, BusyTracker, LogHistogram, Tally};
pub use time::{SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
pub use trace::TraceRing;
pub use witness::WitnessLog;
