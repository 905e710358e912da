//! The integrated event-driven SSD simulator — the dSSD reproduction's
//! SimpleSSD-standalone substitute.
//!
//! [`SsdSim`] binds every substrate together: host interface (closed-loop
//! queue-depth-64 synthetic streams or open-loop trace replay), the FTL,
//! the system bus and DRAM bandwidth servers, per-channel flash buses and
//! ECC engines, the die grid, and — for the decoupled architectures — the
//! dedicated GC bus or the flit-level fNoC.
//!
//! The five architectures of Table 2 are selected by [`Architecture`]:
//!
//! | Config | GC copy path |
//! |---|---|
//! | `Baseline` | flash → ECC → **system bus** → DRAM → **system bus** → flash |
//! | `BW` | same path, 1.25× system-bus bandwidth |
//! | `dSSD` | flash → ECC@controller → **system bus** (one crossing, controller-to-controller) → flash |
//! | `dSSD_b` | flash → ECC@controller → **dedicated bus** → flash |
//! | `dSSD_f` | flash → ECC@controller → dBUF → **fNoC packets** → dBUF → flash |
//!
//! Same-channel copies in all dSSD variants never leave the controller.
//!
//! # Example
//!
//! ```no_run
//! use dssd_ssd::{Architecture, SsdConfig, SsdSim};
//! use dssd_workload::{AccessPattern, SyntheticWorkload};
//! use dssd_kernel::SimSpan;
//!
//! let config = SsdConfig::scaled_ull(Architecture::DssdFnoc);
//! let mut sim = SsdSim::new(config);
//! sim.prefill();
//! let workload = SyntheticWorkload::writes(AccessPattern::Random, 8);
//! let report = sim.run_closed_loop(workload, SimSpan::from_ms(50));
//! println!("I/O bandwidth: {:.2} GB/s", report.io_bandwidth_gbps());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
mod config;
mod faults;
mod metrics;
mod pending;
mod sim;
mod snapshot;

pub use config::{
    Architecture, DurabilityConfig, DynamicSbConfig, PowerLossConfig, SsdConfig, WasScanConfig,
};
pub use faults::{FaultConfig, FaultInjector, ReadFault};
pub use metrics::{FaultCounters, RecoveryReport, RunReport, StageBreakdown, StageKind};
pub use cache::WriteCache;
pub use sim::{Completion, RunState, SsdSim, EPOCH_COLUMNS};
pub use snapshot::{RunPlan, SimSnapshot};

// Re-exported so embedders can read durability-model stats without a
// separate dependency on the FTL crate.
pub use dssd_ftl::{MetaStats, RecoveryOutcome};

// Re-exported so embedders can configure tracing without a separate
// dependency on the telemetry crate.
pub use dssd_telemetry::{TraceConfig, Tracer};
