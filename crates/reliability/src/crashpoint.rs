//! Crashpoint sweep: power loss at every k-th event, recovery verified
//! at each point.
//!
//! The sweep steps one *mother* simulation per seed through its workload
//! and, every `stride` handled events, pauses it and asks
//! [`SsdSim::crash_audit`] what a power loss at that event would mount.
//! The audit only borrows the sim, so nothing is copied and the mother
//! continues unperturbed; it reports exactly what an armed power loss at
//! the same event reports. Each mount must satisfy both crash-consistency
//! invariants — no acknowledged write lost, no trimmed data resurrected —
//! so an N-point sweep costs one full run plus N mounts instead of N
//! runs.

use dssd_kernel::{SimSpan, SimTime};
use dssd_ssd::{PowerLossConfig, SsdConfig, SsdSim};
use dssd_workload::SyntheticWorkload;

/// Crashpoint sweep parameters.
#[derive(Debug, Clone)]
pub struct CrashpointConfig {
    /// Simulator configuration; `durability` must be enabled. Any
    /// configured power-loss injection is stripped (the sweep injects
    /// its own losses) and `seed` is overridden per sweep seed.
    pub base: SsdConfig,
    /// The closed-loop workload each mother run executes.
    pub workload: SyntheticWorkload,
    /// Mother-run horizon.
    pub duration: SimSpan,
    /// Crash every `stride`-th handled event.
    pub stride: u64,
    /// One mother run (and its crashpoints) per seed.
    pub seeds: Vec<u64>,
}

/// One crashpoint whose recovery broke an invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashpointViolation {
    /// The sweep seed of the offending run.
    pub seed: u64,
    /// Events handled when the loss was injected.
    pub events: u64,
    /// Simulated instant of the loss.
    pub at: SimTime,
    /// Acknowledged writes the recovered mapping lost.
    pub lost_acked_writes: u64,
    /// Trimmed LPNs that came back mapped.
    pub resurrected_trims: u64,
}

/// Aggregate outcome of a crashpoint sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashpointReport {
    /// Crashpoints injected across all seeds.
    pub points: u64,
    /// Seeds swept.
    pub seeds: Vec<u64>,
    /// Every invariant-violating point (empty on a passing sweep).
    pub violations: Vec<CrashpointViolation>,
    /// Torn (in-flight, never durable) page programs across all points.
    pub torn_pages: u64,
    /// Host requests in flight at the loss, across all points.
    pub requests_torn: u64,
    /// Sum of per-point mount flash reads (checkpoint + journal + OOB).
    pub pages_read: u64,
    /// Worst-case analytic mount latency.
    pub max_recovery: SimSpan,
    /// Summed mount latency (divide by `points` for the mean).
    pub total_recovery: SimSpan,
}

impl CrashpointReport {
    /// True when every point recovered with both invariants intact.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Mean analytic mount latency across all points.
    #[must_use]
    pub fn mean_recovery(&self) -> SimSpan {
        if self.points == 0 {
            return SimSpan::ZERO;
        }
        SimSpan::from_ns(self.total_recovery.as_ns() / self.points)
    }
}

/// Runs the sweep.
///
/// # Panics
///
/// Panics if `config.base.durability` is `None` (there is nothing to
/// recover from without the metadata model) or `stride` is zero.
#[must_use]
pub fn sweep(config: &CrashpointConfig) -> CrashpointReport {
    assert!(
        config.base.durability.is_some(),
        "crashpoint sweep requires the durability model"
    );
    assert!(config.stride > 0, "stride must be non-zero");
    let mut report = CrashpointReport { seeds: config.seeds.clone(), ..Default::default() };
    for &seed in &config.seeds {
        let mut cfg = config.base.clone();
        cfg.seed = seed;
        cfg.power_loss = PowerLossConfig::none();
        let mut mother = SsdSim::new(cfg);
        mother.prefill();
        mother.begin_closed_loop(config.workload.clone(), config.duration);
        loop {
            if mother.run_events(config.stride) != dssd_ssd::RunState::Paused {
                break;
            }
            let rec = mother.crash_audit();
            report.points += 1;
            report.torn_pages += rec.torn_pages;
            report.requests_torn += rec.requests_torn;
            report.pages_read +=
                rec.checkpoint_pages + rec.journal_pages_replayed + rec.oob_pages_scanned;
            report.max_recovery = report.max_recovery.max(rec.recovery_time);
            report.total_recovery += rec.recovery_time;
            if !rec.invariants_hold() {
                report.violations.push(CrashpointViolation {
                    seed,
                    events: mother.events_handled(),
                    at: rec.power_loss_at,
                    lost_acked_writes: rec.lost_acked_writes,
                    resurrected_trims: rec.resurrected_trims,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_ssd::{Architecture, DurabilityConfig};
    use dssd_workload::AccessPattern;

    fn config(seeds: Vec<u64>, stride: u64) -> CrashpointConfig {
        let mut base = SsdConfig::test_tiny(Architecture::DssdFnoc);
        base.durability = Some(DurabilityConfig::default());
        CrashpointConfig {
            base,
            workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
            duration: SimSpan::from_ms(2),
            stride,
            seeds,
        }
    }

    #[test]
    fn sweep_finds_no_violations() {
        let report = sweep(&config(vec![1, 2], 500));
        assert!(report.points > 0);
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert!(report.max_recovery > SimSpan::ZERO);
        assert!(report.mean_recovery() <= report.max_recovery);
        assert!(report.pages_read > 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = sweep(&config(vec![7], 700));
        assert!(a.points > 0);
        assert_eq!(a, sweep(&config(vec![7], 700)));
    }

    #[test]
    #[should_panic(expected = "requires the durability model")]
    fn sweep_rejects_missing_durability() {
        let mut c = config(vec![1], 100);
        c.base.durability = None;
        let _ = sweep(&c);
    }
}
