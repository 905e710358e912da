//! Run-level measurements: bandwidth timelines, latency histograms,
//! utilization splits and per-stage latency breakdowns.

use dssd_kernel::stats::{BandwidthMeter, Histogram, OnlineMean, UtilizationMeter};
use dssd_kernel::{SimSpan, SimTime};

/// The latency components of the Fig 9 breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Flash array (die) wait + operation time.
    FlashChip,
    /// Flash channel bus wait + transfer.
    FlashBus,
    /// System bus wait + transfer.
    SystemBus,
    /// DRAM wait + access.
    Dram,
    /// ECC pipeline wait + decode.
    Ecc,
    /// fNoC (or dedicated GC bus) transit.
    Noc,
}

impl StageKind {
    /// All stages, in display order.
    #[must_use]
    pub fn all() -> [StageKind; 6] {
        [
            StageKind::FlashChip,
            StageKind::FlashBus,
            StageKind::SystemBus,
            StageKind::Dram,
            StageKind::Ecc,
            StageKind::Noc,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StageKind::FlashChip => "flash chip",
            StageKind::FlashBus => "flash bus",
            StageKind::SystemBus => "system bus",
            StageKind::Dram => "dram",
            StageKind::Ecc => "ecc",
            StageKind::Noc => "fnoc",
        }
    }

    /// Dense index in [`StageKind::all`] order (shared with the telemetry
    /// crate's `Stage::index`, so per-stage arrays line up across crates).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            StageKind::FlashChip => 0,
            StageKind::FlashBus => 1,
            StageKind::SystemBus => 2,
            StageKind::Dram => 3,
            StageKind::Ecc => 4,
            StageKind::Noc => 5,
        }
    }
}

/// Mean time spent per pipeline stage (wait + service), accumulated over
/// completed operations.
///
/// Each request and copy job sums its own stage time as its stages run
/// (a fixed per-stage total, no list of spans) and hands the totals to
/// [`StageBreakdown::record`] when it completes.
#[derive(Debug, Clone, Default)]
pub struct StageBreakdown {
    means: [OnlineMean; 6],
}

impl StageBreakdown {
    /// Records one operation's microseconds per stage, indexed by
    /// [`StageKind::index`].
    pub fn record(&mut self, us_per_stage: &[f64; 6]) {
        for (mean, &us) in self.means.iter_mut().zip(us_per_stage) {
            mean.record(us);
        }
    }

    /// Mean microseconds spent in `stage` per operation.
    #[must_use]
    pub fn mean_us(&self, stage: StageKind) -> f64 {
        self.means[stage.index()].mean()
    }

    /// Mean total microseconds per operation.
    #[must_use]
    pub fn total_us(&self) -> f64 {
        StageKind::all().iter().map(|&s| self.mean_us(s)).sum()
    }

    /// Operations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.means[0].count()
    }
}

/// One request's or copy job's time per stage, summed as its stages run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageTotals {
    /// Microseconds per stage. Each stage's spans are added in the order
    /// they ran, so a mean over these is bit-identical to summing the
    /// operation's list of spans at completion.
    pub(crate) us: [f64; 6],
    /// The same time as spans, for the tracer.
    pub(crate) spans: [SimSpan; 6],
}

impl StageTotals {
    /// Adds `span` of `stage` time.
    #[inline]
    pub(crate) fn add(&mut self, stage: StageKind, span: SimSpan) {
        self.us[stage.index()] += span.as_us_f64();
        self.spans[stage.index()] += span;
    }
}

/// Counts of injected faults and the recovery actions they triggered.
///
/// All zeros unless fault injection is enabled (see
/// [`FaultConfig`](crate::FaultConfig)). `PartialEq` so determinism tests
/// can compare whole counter sets across same-seed runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Read-retry attempts issued after a failed decode.
    pub read_retries: u64,
    /// Extra sense latency added by read retries (sum over all retries).
    pub retry_latency: SimSpan,
    /// Read groups recovered by a retry (decoded as `Corrected`).
    pub reads_recovered: u64,
    /// Read groups declared uncorrectable after exhausting the retry
    /// budget (or hitting a hard media failure that outlived it).
    pub uncorrectable_reads: u64,
    /// Program operations that reported a program failure.
    pub program_failures: u64,
    /// Erase operations that failed at GC time.
    pub erase_failures: u64,
    /// Erase blocks marked bad by a fault (distinct blocks; each feeds
    /// either an SRT/RBT remap or a superblock retirement).
    pub blocks_retired: u64,
    /// Superblocks retired online because a bad block could not be
    /// remapped (relocation GC round + removal from the allocator pools).
    pub superblocks_retired: u64,
    /// fNoC packets delayed by an injected link degradation.
    pub noc_faults: u64,
    /// Host requests completed with a failure (data loss surfaced to the
    /// host: retries exhausted or program attempts exhausted).
    pub requests_failed: u64,
}

impl FaultCounters {
    /// Sum of injected-fault events (excluding recovery-action counters),
    /// used by the telemetry epoch probe as a single fault-rate column.
    #[must_use]
    pub fn injected_total(&self) -> u64 {
        self.program_failures + self.erase_failures + self.uncorrectable_reads
            + self.noc_faults
    }
}

/// What a simulated post-power-loss mount observed: scan/replay costs,
/// the analytic mount latency, and the crash-consistency invariant
/// verdicts (both violation counters must be zero on a correct FTL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The instant power was cut.
    pub power_loss_at: SimTime,
    /// Analytic mount latency (checkpoint load + journal replay + OOB
    /// scan, channel-parallel page reads).
    pub recovery_time: SimSpan,
    /// Flash pages read to load the newest durable checkpoint.
    pub checkpoint_pages: u64,
    /// Durable journal pages replayed.
    pub journal_pages_replayed: u64,
    /// Journal ops examined during replay.
    pub journal_entries_replayed: u64,
    /// OOB records scanned in the open (post-journal-tip) region.
    pub oob_pages_scanned: u64,
    /// In-flight programs torn by the crash.
    pub torn_pages: u64,
    /// Invariant violations: acknowledged writes lost by recovery.
    pub lost_acked_writes: u64,
    /// Invariant violations: trimmed LPNs resurrected with stale data.
    pub resurrected_trims: u64,
    /// Host requests in flight (never acknowledged) when power failed.
    pub requests_torn: u64,
}

impl RecoveryReport {
    /// True when both crash-consistency invariants held.
    #[must_use]
    pub fn invariants_hold(&self) -> bool {
        self.lost_acked_writes == 0 && self.resurrected_trims == 0
    }
}

/// Everything measured during one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Host I/O bytes completed, 1 ms bins (Fig 2's y-axis).
    pub io_bw: BandwidthMeter,
    /// GC bytes copied, 1 ms bins.
    pub gc_bw: BandwidthMeter,
    /// End-to-end host request latency.
    pub io_latency: Histogram,
    /// Read-request latency.
    pub read_latency: Histogram,
    /// Write-request latency.
    pub write_latency: Histogram,
    /// System-bus busy time attributed to host I/O, 1 ms bins.
    pub sysbus_io_util: UtilizationMeter,
    /// System-bus busy time attributed to GC, 1 ms bins.
    pub sysbus_gc_util: UtilizationMeter,
    /// Per-stage latency of host I/O page groups (Fig 9a).
    pub io_breakdown: StageBreakdown,
    /// Per-stage latency of copyback groups (Fig 9b).
    pub copyback_breakdown: StageBreakdown,
    /// Host requests completed.
    pub requests_completed: u64,
    /// GC page copies completed.
    pub gc_pages_copied: u64,
    /// GC rounds completed.
    pub gc_rounds: u64,
    /// First instant GC was triggered, if ever.
    pub first_gc_at: Option<SimTime>,
    /// Superblocks retired as bad (online dynamic-superblock mode).
    pub bad_superblocks: u32,
    /// Worn sub-blocks silently repaired through the SRT/RBT.
    pub dynamic_remaps: u64,
    /// When the device ran out of erased superblocks (wear-out end of
    /// life), if it did.
    pub end_of_life: Option<SimTime>,
    /// Injected-fault and recovery-action counts.
    pub faults: FaultCounters,
    /// Kernel events delivered by the run's event loop — divide by
    /// wall-clock time for the simulator's events/sec throughput.
    pub events_delivered: u64,
    /// Rolling hash over `(time, source channel)` of every GC copy
    /// issued: two runs produce the same digest exactly when their GC
    /// scheduling traces are identical.
    pub gc_issue_digest: u64,
    /// Wall-clock end of the measured window.
    pub elapsed: SimSpan,
    /// Power-loss mount outcome (`None` unless power was cut).
    pub recovery: Option<RecoveryReport>,
}

impl RunReport {
    pub(crate) fn new(window: SimSpan) -> Self {
        RunReport {
            io_bw: BandwidthMeter::new(window),
            gc_bw: BandwidthMeter::new(window),
            io_latency: Histogram::new(),
            read_latency: Histogram::new(),
            write_latency: Histogram::new(),
            sysbus_io_util: UtilizationMeter::new(window),
            sysbus_gc_util: UtilizationMeter::new(window),
            io_breakdown: StageBreakdown::default(),
            copyback_breakdown: StageBreakdown::default(),
            requests_completed: 0,
            gc_pages_copied: 0,
            gc_rounds: 0,
            first_gc_at: None,
            bad_superblocks: 0,
            dynamic_remaps: 0,
            end_of_life: None,
            faults: FaultCounters::default(),
            events_delivered: 0,
            gc_issue_digest: 0,
            elapsed: SimSpan::ZERO,
            recovery: None,
        }
    }

    /// Mean host I/O bandwidth over the run, in GB/s.
    #[must_use]
    pub fn io_bandwidth_gbps(&self) -> f64 {
        self.io_bw.mean_rate(self.elapsed) / 1e9
    }

    /// Mean GC copy bandwidth over the run, in GB/s — the "GC
    /// performance" metric of Figs 7, 8, 12 and 13.
    #[must_use]
    pub fn gc_bandwidth_gbps(&self) -> f64 {
        self.gc_bw.mean_rate(self.elapsed) / 1e9
    }

    /// The `p`-quantile of host request latency.
    pub fn latency_percentile(&mut self, p: f64) -> SimSpan {
        self.io_latency.percentile(p)
    }

    /// Mean host request latency.
    #[must_use]
    pub fn mean_latency(&self) -> SimSpan {
        self.io_latency.mean()
    }

    /// Mean system-bus utilization attributed to host I/O.
    #[must_use]
    pub fn sysbus_io_utilization(&self) -> f64 {
        self.sysbus_io_util.mean(self.elapsed)
    }

    /// Mean system-bus utilization attributed to GC.
    #[must_use]
    pub fn sysbus_gc_utilization(&self) -> f64 {
        self.sysbus_gc_util.mean(self.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(spans: &[(StageKind, u64)]) -> StageTotals {
        let mut t = StageTotals::default();
        for &(stage, us) in spans {
            t.add(stage, SimSpan::from_us(us));
        }
        t
    }

    #[test]
    fn breakdown_accumulates_means() {
        let mut b = StageBreakdown::default();
        b.record(&totals(&[(StageKind::FlashChip, 50), (StageKind::SystemBus, 10)]).us);
        b.record(&totals(&[(StageKind::FlashChip, 100), (StageKind::SystemBus, 0)]).us);
        assert_eq!(b.count(), 2);
        assert!((b.mean_us(StageKind::FlashChip) - 75.0).abs() < 1e-9);
        assert!((b.mean_us(StageKind::SystemBus) - 5.0).abs() < 1e-9);
        assert!((b.mean_us(StageKind::Noc)).abs() < 1e-9);
        assert!((b.total_us() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_merges_duplicate_stage_entries() {
        let t = totals(&[(StageKind::FlashBus, 3), (StageKind::FlashBus, 4)]);
        assert_eq!(t.spans[StageKind::FlashBus.index()], SimSpan::from_us(7));
        let mut b = StageBreakdown::default();
        b.record(&t.us);
        assert!((b.mean_us(StageKind::FlashBus) - 7.0).abs() < 1e-9);
    }

    #[test]
    fn report_rates() {
        let mut r = RunReport::new(SimSpan::from_ms(1));
        r.io_bw.record(SimTime::from_us(10), 8_000_000);
        r.elapsed = SimSpan::from_ms(1);
        assert!((r.io_bandwidth_gbps() - 8.0).abs() < 1e-9);
        assert_eq!(r.gc_bandwidth_gbps(), 0.0);
    }

    #[test]
    fn stage_labels_cover_all() {
        for s in StageKind::all() {
            assert!(!s.label().is_empty());
        }
    }
}
