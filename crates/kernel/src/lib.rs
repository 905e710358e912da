//! Discrete-event simulation kernel for the dSSD reproduction.
//!
//! This crate provides the domain-independent substrate shared by every
//! simulator in the workspace:
//!
//! * [`SimTime`] / [`SimSpan`] — nanosecond-resolution simulated time.
//! * [`EventQueue`] — a deterministic future-event list with stable
//!   (insertion-order) tie-breaking, so identical inputs always replay the
//!   exact same schedule; [`FifoLanes`] hold constant-delay events outside
//!   it and merge with it by [`EventKey`].
//! * [`Rng`] — a small, seedable xoshiro256\*\* pseudo-random generator with
//!   Gaussian sampling, so simulation results never depend on an external
//!   RNG crate's version behaviour.
//! * [`stats`] — streaming histograms with exact percentiles, windowed
//!   bandwidth meters, busy-time utilization integrators and online means.
//! * [`BandwidthServer`] — a FIFO bandwidth resource used to model the
//!   system bus, DRAM, flash channel buses and the dedicated GC bus of the
//!   paper's `dSSD_b` configuration.
//! * [`Slab`] — a generational slab arena giving O(1), allocation-free,
//!   deterministic id↔state maps for hot-path entities.
//! * [`FxHashMap`] — a deterministic, fast-hashing map for keyed lookups
//!   that cannot use dense ids.
//! * [`parallel`] — a std-only scoped-thread fan-out for embarrassingly
//!   parallel sweeps, with results in deterministic input order.
//! * [`check`] — a std-only property-test harness over seeded [`Rng`]
//!   cases that names the failing case's seed.
//!
//! # Example
//!
//! ```
//! use dssd_kernel::{EventQueue, SimTime, SimSpan};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimSpan::from_us(5), "second");
//! q.push(SimTime::ZERO + SimSpan::from_us(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_ns(1_000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod event;
pub mod hash;
pub mod parallel;
mod rng;
mod server;
mod slab;
pub mod stats;
mod time;

pub use check::check;
pub use event::{EventKey, EventQueue, FifoLanes, Orders, ARRIVAL_RANK, DEFAULT_RANK};
pub use hash::{FxHashMap, FxHasher};
pub use rng::Rng;
pub use server::{BandwidthServer, Transfer};
pub use slab::{Slab, SlabKey};
pub use time::{SimSpan, SimTime};
