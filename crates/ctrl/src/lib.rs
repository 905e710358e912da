//! Decoupled flash controller (C_D) building blocks.
//!
//! The paper's decoupled controller (Fig 4) extends a conventional flash
//! controller with:
//!
//! * an integrated **ECC engine**, so pages read for garbage collection
//!   are checked/corrected *at the controller* instead of crossing the
//!   system bus to a shared front-end engine ([`EccEngine`]);
//! * a **decoupled buffer (dBUF)** that stages flash-to-flash pages
//!   without touching the page buffers used by host I/O ([`BufferPool`]);
//! * a **network interface + router** onto the fNoC (the network itself
//!   lives in `dssd-noc`);
//! * the dynamic-superblock hardware of Sec 5: the **recycle block table
//!   (RBT)** holding re-usable sub-blocks of dead superblocks and the
//!   **superblock remapping table (SRT)** holding sub-block remappings
//!   ([`RecycleBlockTable`], [`SuperblockRemapTable`]).
//!
//! The paper's command queue tracks each copyback through its `R` (read
//! done), `RE` (ECC done), `N` (in network) and `W` (write issued)
//! stages. Here those stages are the copy job's own chain of events in
//! the simulator, so the controller keeps no command state of its own.
//!
//! The crate also reproduces the paper's Sec 6.5 area-overhead arithmetic
//! in [`overhead`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod buffer;
mod controller;
mod ecc;
pub mod overhead;
mod tables;

pub use buffer::BufferPool;
pub use controller::DecoupledController;
pub use ecc::{EccConfig, EccEngine, EccVerdict};
pub use tables::{RecycleBlockTable, SubBlockId, SuperblockRemapTable, TableFull};
