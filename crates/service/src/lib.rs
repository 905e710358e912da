//! Live block-device front-end for the dSSD simulator.
//!
//! Everything between a multi-tenant host and the simulated drive:
//! io_uring/NVMe-style submission rings ([`ring`]),
//! per-tenant namespaces and the scripted arrival spec ([`spec`]),
//! token-bucket rate limiting with weighted-round-robin arbitration
//! ([`qos`]), the virtual-time pacer that drives the steppable
//! simulator ([`service`]), and the per-tenant outcome report
//! ([`report`]).
//!
//! The front-end's defining property is *pacing without perturbing*: a
//! live [`serve`] run fed an arrival schedule produces a simulator
//! state and [`RunReport`](dssd_ssd::RunReport) bit-identical to
//! handing [`SsdSim::run_trace`](dssd_ssd::SsdSim::run_trace) the same
//! schedule up front — QoS can delay *when* commands reach the device,
//! but the front-end's existence alone changes nothing.

pub mod qos;
pub mod report;
pub mod ring;
pub mod service;
pub mod spec;

pub use qos::{TokenBucket, WrrArbiter};
pub use report::{ServiceReport, TenantReport};
pub use ring::{RingFull, Sqe, SubmissionQueue};
pub use service::serve;
pub use spec::{Namespace, ServiceSpec, SpecError, Submission, TenantSpec};
