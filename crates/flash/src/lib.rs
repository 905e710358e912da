//! NAND flash memory model for the dSSD reproduction.
//!
//! This crate models the "back-end" of the SSD: the physical organization
//! of flash (channels × ways × dies × planes × blocks × pages), the
//! ONFI-flavoured operation set (read / program / erase, with multi-plane
//! array timing), per-die busy-state machines, per-channel flash-bus transfer
//! costs, and a per-block wear model with Gaussian program/erase limits —
//! the block-level process-variation model the paper adopts from WAS
//! (E = 5578, σ = 826.9 P/E cycles).
//!
//! Timing presets follow Table 1 of the paper:
//!
//! * **ULL** (ultra-low-latency): read 5 µs, program 50 µs, erase 1 ms,
//!   4 KB pages, 8 planes.
//! * **TLC**: read 60–95 µs, program 200–500 µs, erase 2 ms, 16 KB pages.
//!
//! # Example
//!
//! ```
//! use dssd_flash::{FlashGeometry, FlashTiming, DieGrid, PageAddr};
//! use dssd_kernel::SimTime;
//!
//! let geo = FlashGeometry::table1_ull();
//! let timing = FlashTiming::ull();
//! let mut dies = DieGrid::new(&geo);
//!
//! let addr = PageAddr { channel: 0, way: 0, die: 0, plane: 0, block: 0, page: 0 };
//! let (start, done) = dies.occupy(geo.die_index(addr.die_addr()), SimTime::ZERO,
//!                                 timing.program_latency_mid());
//! assert_eq!(start, SimTime::ZERO);
//! assert!(done > start);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod geometry;
mod state;
mod timing;
mod wear;

pub use geometry::{BlockAddr, DieAddr, FlashGeometry, PageAddr, PlaneAddr};
pub use state::DieGrid;
pub use timing::{FlashOpKind, FlashTiming, LatencyRange};
pub use wear::{EraseOutcome, WearModel};
