//! Observation, which never schedules an event or draws a random number:
//! the span funnel every stage's time goes through (latency breakdowns
//! and trace slices), the epoch time-series probe, and the stderr
//! progress meter.

use dssd_kernel::{SimSpan, SimTime, SlabKey};
use dssd_telemetry::{Class, EpochSeries, Stage, TraceConfig, Tracer, Track};

use super::{SsdSim, CLASS_GC, CLASS_IO};
use crate::metrics::{StageKind, StageTotals};

/// Stderr heartbeat state for [`SsdSim::set_progress`]: reports sim-time,
/// events processed and the recent events/sec rate about once per second
/// of wall time. Checking the wall clock is itself throttled so the hot
/// loop only pays an increment-and-compare per event.
#[derive(Debug)]
pub(super) struct ProgressMeter {
    last: std::time::Instant,
    last_events: u64,
    ticks: u32,
}

impl ProgressMeter {
    /// Events between wall-clock checks.
    const CHECK_EVERY: u32 = 1 << 16;

    pub(super) fn new() -> Self {
        ProgressMeter { last: std::time::Instant::now(), last_events: 0, ticks: 0 }
    }

    pub(super) fn tick(&mut self, sim_now: SimTime, events: impl FnOnce() -> u64) {
        self.ticks += 1;
        if self.ticks < Self::CHECK_EVERY {
            return;
        }
        self.ticks = 0;
        let now = std::time::Instant::now();
        let wall = now - self.last;
        if wall < std::time::Duration::from_secs(1) {
            return;
        }
        let events = events();
        let rate = (events - self.last_events) as f64 / wall.as_secs_f64();
        eprintln!(
            "[progress] sim {:>10.3} ms | {:>12} events | {:>7.2} M events/s",
            sim_now.as_ns() as f64 / 1e6,
            events,
            rate / 1e6,
        );
        self.last = now;
        self.last_events = events;
    }
}

/// Fixed-interval sampling state for the telemetry epoch time-series.
#[derive(Debug, Clone)]
pub(super) struct EpochProbe {
    every: SimSpan,
    pub(super) next: SimTime,
    series: EpochSeries,
    prev: EpochPrev,
}

/// Cumulative-counter snapshot from the previous epoch, for rate deltas.
#[derive(Debug, Default, Clone, Copy)]
struct EpochPrev {
    io_bytes: u64,
    gc_bytes: u64,
    completed: u64,
    gc_pages: u64,
    sysbus_io_busy_ns: u64,
    sysbus_gc_busy_ns: u64,
    ecc_busy_ns: u64,
    credit_stalls: u64,
    faults: u64,
}

/// Column schema of the epoch time-series (first column is the epoch end
/// time in milliseconds; `*_gbps`, `*_util` and `*_per_s` are epoch rates,
/// the rest are instantaneous depths/counts at the epoch boundary).
pub const EPOCH_COLUMNS: [&str; 18] = [
    "t_ms",
    "outstanding",
    "ctrl_queue_depth",
    "dbuf_in_use",
    "free_superblocks",
    "gc_active",
    "gc_pending_groups",
    "gc_jobs_inflight",
    "noc_in_flight",
    "io_gbps",
    "gc_gbps",
    "sysbus_io_util",
    "sysbus_gc_util",
    "ecc_util",
    "credit_stalls_per_s",
    "completed_per_s",
    "gc_pages_per_s",
    "faults_per_s",
];

impl SsdSim {
    /// Enables the stderr progress heartbeat (sim-time, events processed,
    /// events/sec, about once per wall-clock second). Observational only:
    /// it writes nothing to stdout and cannot perturb the simulation.
    pub fn set_progress(&mut self, on: bool) {
        self.progress = on;
    }

    /// Enables span tracing (and epoch sampling when `cfg.epoch` is set).
    /// Call before running. The tracer is strictly observational — it
    /// never schedules events or draws random numbers — so enabling it
    /// leaves the [`RunReport`](crate::RunReport) bit-identical to an
    /// untraced run.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.tracer = Tracer::enabled(cfg);
        if let Some(n) = self.noc.as_deref_mut() {
            n.set_record_hops(true);
        }
        self.epoch = cfg.epoch.map(|every| EpochProbe {
            every,
            next: SimTime::ZERO + every,
            series: EpochSeries::new(EPOCH_COLUMNS.to_vec()),
            prev: EpochPrev::default(),
        });
    }

    /// The span tracer (disabled unless [`SsdSim::enable_tracing`] ran).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable span tracer, so an embedding front-end can emit its own
    /// observational spans (e.g. per-tenant lanes) into the same trace.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The collected epoch time-series, if epoch sampling is enabled.
    #[must_use]
    pub fn epoch_series(&self) -> Option<&EpochSeries> {
        self.epoch.as_ref().map(|e| &e.series)
    }

    /// The span funnel: attributes `span` of `stage` time, starting at
    /// `start`, to host request (`Class::Io`) or copy job (`Class::Gc`)
    /// `id` — in its per-stage totals and, when tracing, as a timeline
    /// slice on `track` — so a slice and its breakdown entry always agree.
    #[inline]
    pub(super) fn span(
        &mut self,
        class: Class,
        id: SlabKey,
        stage: StageKind,
        track: Track,
        start: SimTime,
        span: SimSpan,
    ) {
        let totals = match class {
            Class::Io => self.requests.get_mut(id).map(|r| &mut r.stages),
            Class::Gc => self.jobs.get_mut(id).map(|j| &mut j.stages),
        };
        let Some(totals) = totals else { return };
        totals.add(stage, span);
        let stage = Stage::ALL[stage.index()];
        self.tracer.span(class, id.to_bits(), track, stage, start, span);
    }

    /// Closes the funnel for a finished request or copy job: its
    /// per-stage totals enter the report's breakdown and, when tracing,
    /// end its trace lane.
    pub(super) fn close_spans(
        &mut self,
        class: Class,
        id: SlabKey,
        name: &'static str,
        failed: bool,
        totals: &StageTotals,
    ) {
        match class {
            Class::Io => self.report.io_breakdown.record(&totals.us),
            Class::Gc => self.report.copyback_breakdown.record(&totals.us),
        }
        self.tracer.end(class, id.to_bits(), name, self.now, failed, &totals.spans);
    }

    /// Samples every epoch boundary at or before `t` (cold path — only
    /// reached when epoch sampling is enabled).
    pub(super) fn sample_epochs_until(&mut self, t: SimTime) {
        while let Some(next) = self.epoch.as_ref().map(|e| e.next) {
            if next > t || next > self.horizon {
                break;
            }
            self.sample_epoch(next);
        }
    }

    /// Collects one epoch row at boundary `at`. Read-only with respect to
    /// simulation state: it only inspects queues, meters and counters.
    fn sample_epoch(&mut self, at: SimTime) {
        let Some(mut probe) = self.epoch.take() else { return };
        let dt = probe.every.as_secs_f64();
        let epoch_ns = probe.every.as_ns() as f64;
        let prev = probe.prev;

        let io_bytes = self.report.io_bw.total_bytes();
        let gc_bytes = self.report.gc_bw.total_bytes();
        let completed = self.report.requests_completed;
        let gc_pages = self.report.gc_pages_copied;
        let sysbus_io_busy_ns = self.report.sysbus_io_util.total_busy().as_ns();
        let sysbus_gc_busy_ns = self.report.sysbus_gc_util.total_busy().as_ns();
        let ecc_busy_ns: u64 = self
            .controllers
            .iter()
            .map(|c| (c.ecc().class_busy(CLASS_IO) + c.ecc().class_busy(CLASS_GC)).as_ns())
            .sum();
        let credit_stalls = self.noc.as_deref().map_or(0, |n| n.stats().credit_stalls);
        let faults = self.report.faults.injected_total();

        probe.series.push_row(vec![
            at.as_ns() as f64 / 1e6,
            self.outstanding as f64,
            self.controllers.iter().map(|c| c.queue().len()).sum::<usize>() as f64,
            self.controllers.iter().map(|c| c.dbuf().in_use()).sum::<usize>() as f64,
            self.ftl.free_superblocks() as f64,
            f64::from(u8::from(self.gc.is_some())),
            self.gc.as_ref().map_or(0, |g| g.pending.len()) as f64,
            self.jobs.len() as f64,
            self.noc.as_deref().map_or(0, |n| n.in_flight()) as f64,
            (io_bytes - prev.io_bytes) as f64 / dt / 1e9,
            (gc_bytes - prev.gc_bytes) as f64 / dt / 1e9,
            (sysbus_io_busy_ns - prev.sysbus_io_busy_ns) as f64 / epoch_ns,
            (sysbus_gc_busy_ns - prev.sysbus_gc_busy_ns) as f64 / epoch_ns,
            (ecc_busy_ns - prev.ecc_busy_ns) as f64
                / (epoch_ns * self.controllers.len().max(1) as f64),
            (credit_stalls - prev.credit_stalls) as f64 / dt,
            (completed - prev.completed) as f64 / dt,
            (gc_pages - prev.gc_pages) as f64 / dt,
            (faults - prev.faults) as f64 / dt,
        ]);
        probe.prev = EpochPrev {
            io_bytes,
            gc_bytes,
            completed,
            gc_pages,
            sysbus_io_busy_ns,
            sysbus_gc_busy_ns,
            ecc_busy_ns,
            credit_stalls,
            faults,
        };
        probe.next = at + probe.every;
        self.epoch = Some(probe);
    }
}
