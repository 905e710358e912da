//! Flash translation layer (FTL) for the dSSD reproduction.
//!
//! The FTL is the firmware layer the paper keeps *unmodified* across all
//! architectures (its one concession is knowing that copyback exists and
//! that a GC destination may be any flash location). This crate provides:
//!
//! * a page-level logical-to-physical [`MappingTable`] with per-block
//!   valid-page accounting;
//! * the [`SuperblockLayout`]: same block id grouped across every
//!   channel/way/die/plane (the paper's *static* superblock);
//! * a die-interleaved, plane-packing page [`allocator`](Ftl::write_pages)
//!   that reproduces the paper's low-bandwidth (4 KB → 1 plane) and
//!   high-bandwidth (32 KB → 8-plane multi-plane) scenarios;
//! * greedy victim selection and GC round construction with multi-plane
//!   copy groups ([`GcRound`], [`CopyGroup`]);
//! * the GC scheduling [`GcPolicy`] variants compared in the paper:
//!   parallel GC (PaGC, the baseline), semi-preemptive GC, and
//!   TinyTail-style partial GC;
//! * the WAS-style wear-aware regrouping helper ([`was`]).
//!
//! Timing lives in `dssd-ssd`: this crate makes *decisions* (addresses,
//! victims, copy sets); the event-driven world turns them into bus and
//! die occupancy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
mod ftl;
mod gc;
mod mapping;
pub mod meta;
mod superblock;
pub mod was;

pub use alloc::AllocGroup;
pub use ftl::{Ftl, FtlConfig, FtlStats};
pub use gc::{CopyGroup, GcPolicy, GcRound, MAX_PLANES};
pub use mapping::{Lpn, MappingTable, Ppn};
pub use meta::{
    MetaConfig, MetaIo, MetaState, MetaStats, RecoveryOutcome, CHECKPOINT_ENTRY_BYTES,
    META_NO_TICKET, META_UNMAPPED,
};
pub use superblock::SuperblockLayout;
