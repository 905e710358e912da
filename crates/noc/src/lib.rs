//! Flit-level network-on-chip simulator (the paper's Booksim substitute).
//!
//! The paper attaches a router to every decoupled flash controller and
//! interconnects them with a *flash-controller network-on-chip* (fNoC):
//! a 1-D mesh with dimension-order routing (Table 1), compared against a
//! ring and a crossbar at equal bisection bandwidth (Fig 13).
//!
//! This crate implements that network at flit granularity:
//!
//! * packets are segmented into flits (header + page payload),
//! * routers have finite input buffers with **credit-based flow control**,
//! * switching is **wormhole** (an output is locked to one packet from
//!   head to tail flit),
//! * each link serializes flits at a configurable channel bandwidth and
//!   adds a per-hop router latency,
//! * arbitration is round-robin across input ports,
//! * a **contention-free express path** (default on, see
//!   [`NocConfig::with_express`]) fast-forwards packets whose route is
//!   provably interference-free, replacing their per-flit event traffic
//!   with one delivery event, and demotes them to flit-level simulation
//!   when contention appears later. It is meant to be bit-identical to
//!   the flit-level engine; see [`NocConfig::express`] for the two
//!   figure points where it is not.
//!
//! The network is event-driven but never owns the event loop. It holds
//! its own pending flit events, on three constant-delay lanes stamped
//! from the embedder's insertion counter ([`dssd_kernel::Orders`]); the
//! embedder compares [`Network::next_key`] with its own queue's head and
//! lets [`Network::run`] handle flit events while they come first, so
//! the two merge exactly as one queue holding both would pop. What the
//! embedder must act on — deliveries, hop records, and the express
//! deliveries it schedules on its own queue — comes back in a [`Step`].
//! The [`drive`] helper is the smallest such embedder.
//!
//! # Example
//!
//! ```
//! use dssd_noc::{drive, Network, NocConfig, Packet, TopologyKind};
//! use dssd_kernel::SimTime;
//!
//! let cfg = NocConfig::new(TopologyKind::Mesh1D, 8);
//! let mut net = Network::new(cfg);
//! let delivered = drive(&mut net, vec![
//!     (SimTime::ZERO, Packet::new(0, 0, 7, 4096)),
//! ]);
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].packet.dst, 7);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod network;
mod packet;
mod stats;
mod topology;
pub mod traffic;

pub use network::{
    drive, drive_counted, Delivered, ExpressDiag, HopRecord, Network, NocEvent, Step,
};
pub use packet::{Flit, FlitKind, Packet, PacketId};
pub use stats::NocStats;
pub use topology::{NocConfig, Topology, TopologyKind};
