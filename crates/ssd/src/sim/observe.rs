//! Observation, which never schedules an event or draws a random number:
//! the span funnel every stage's time goes through (latency breakdowns
//! and trace slices), the epoch time-series probe, and the stderr
//! progress meter.

use dssd_kernel::{SimSpan, SimTime, SlabKey};
use dssd_telemetry::{Class, EpochSeries, Stage, TraceConfig, Tracer, Track};

use super::SsdSim;
use crate::metrics::{StageKind, StageTotals};

/// What a span is attributed to: the stage totals of a host request
/// (`Class::Io`) or copy job (`Class::Gc`), if it is still in flight, and
/// its class and key, which name its trace lane.
pub(super) type SpanOwner<'a> = (Option<&'a mut StageTotals>, Class, SlabKey);

/// The observation seam: the tracer, the epoch probe and the progress
/// switch. Strictly observational: nothing here schedules an event or
/// draws a random number, so turning any of it on cannot perturb the
/// simulation.
#[derive(Debug, Default)]
pub(super) struct Observe {
    /// Span tracer (disabled unless [`SsdSim::enable_tracing`] is
    /// called). Every seam emits its own instants into it.
    pub(super) tracer: Tracer,
    /// Epoch time-series probe; piggybacks on the event loop (no queue
    /// events of its own) so `events_delivered` stays bit-identical.
    epoch: Option<EpochProbe>,
    /// Emit a wall-clock-throttled heartbeat to stderr while the event
    /// loop runs (`--progress`).
    progress: bool,
}

impl Observe {
    /// The span funnel: attributes `span` of `stage` time, starting at
    /// `start`, to `owner` — in its per-stage totals and, when tracing,
    /// as a timeline slice on `track` — so a slice and its breakdown
    /// entry always agree. A span whose owner is gone is dropped.
    #[inline]
    pub(super) fn span(
        &mut self,
        owner: SpanOwner<'_>,
        stage: StageKind,
        track: Track,
        start: SimTime,
        span: SimSpan,
    ) {
        let (Some(totals), class, id) = owner else { return };
        totals.add(stage, span);
        self.tracer.span(class, id.to_bits(), track, Stage::ALL[stage.index()], start, span);
    }

    /// The next epoch boundary, while epoch sampling is on.
    pub(super) fn next_epoch(&self) -> Option<SimTime> {
        self.epoch.as_ref().map(|e| e.next)
    }

    /// A fresh progress meter, if the heartbeat is on.
    pub(super) fn progress_meter(&self) -> Option<ProgressMeter> {
        self.progress.then(ProgressMeter::new)
    }
}

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
struct EpochProbe {
    every: SimSpan,
    next: SimTime,
    series: EpochSeries,
    prev: EpochCounters,
}

/// The cumulative counters an epoch row turns into rates, as snapshot at
/// one boundary; the previous boundary's snapshot gives the deltas.
#[derive(Debug, Default, Clone, Copy)]
struct EpochCounters {
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
pub const EPOCH_COLUMNS: [&str; 17] = [
    "t_ms",
    "outstanding",
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
        self.observe.progress = on;
    }

    /// Enables span tracing (and epoch sampling when `cfg.epoch` is set).
    /// Call before running. The tracer is strictly observational — it
    /// never schedules events or draws random numbers — so enabling it
    /// leaves the [`RunReport`](crate::RunReport) bit-identical to an
    /// untraced run.
    pub fn enable_tracing(&mut self, cfg: TraceConfig) {
        self.observe.tracer = Tracer::enabled(cfg);
        if self.noc().is_some() {
            self.with_noc(|noc, _, _, _| noc.set_record_hops(true));
        }
        self.observe.epoch = cfg.epoch.map(|every| EpochProbe {
            every,
            next: SimTime::ZERO + every,
            series: EpochSeries::new(EPOCH_COLUMNS.to_vec()),
            prev: EpochCounters::default(),
        });
    }

    /// The span tracer (disabled unless [`SsdSim::enable_tracing`] ran).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.observe.tracer
    }

    /// Mutable span tracer, so an embedding front-end can emit its own
    /// observational spans (e.g. per-tenant lanes) into the same trace.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.observe.tracer
    }

    /// The collected epoch time-series, if epoch sampling is enabled.
    #[must_use]
    pub fn epoch_series(&self) -> Option<&EpochSeries> {
        self.observe.epoch.as_ref().map(|e| &e.series)
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
        self.observe.tracer.end(class, id.to_bits(), name, self.now, failed, &totals.spans);
    }

    /// Samples every epoch boundary at or before `t` (cold path — only
    /// reached when epoch sampling is enabled).
    pub(super) fn sample_epochs_until(&mut self, t: SimTime) {
        while let Some(next) = self.observe.next_epoch() {
            if next > t || next > self.horizon() {
                break;
            }
            self.sample_epoch(next);
        }
    }

    /// Collects one epoch row at boundary `at`. Read-only with respect to
    /// simulation state: it only inspects queues, meters and counters.
    fn sample_epoch(&mut self, at: SimTime) {
        let controllers = &self.res.controllers;
        let now = EpochCounters {
            io_bytes: self.report.io_bw.total_bytes(),
            gc_bytes: self.report.gc_bw.total_bytes(),
            completed: self.report.requests_completed,
            gc_pages: self.report.gc_pages_copied,
            sysbus_io_busy_ns: self.report.sysbus_io_util.total_busy().as_ns(),
            sysbus_gc_busy_ns: self.report.sysbus_gc_util.total_busy().as_ns(),
            ecc_busy_ns: controllers.iter().map(|c| c.ecc().busy_total().as_ns()).sum(),
            credit_stalls: self.noc().map_or(0, |n| n.stats().credit_stalls),
            faults: self.report.faults.injected_total(),
        };
        let [gc_active, gc_pending, gc_jobs] = self.gc.epoch_columns();
        let depths = [
            self.host.outstanding() as f64,
            controllers.iter().map(|c| c.dbuf().in_use()).sum::<usize>() as f64,
            self.ftl.free_superblocks() as f64,
            gc_active,
            gc_pending,
            gc_jobs,
            self.noc().map_or(0, |n| n.in_flight()) as f64,
        ];
        let probe = self.observe.epoch.as_mut().expect("sampled with a probe");
        probe.record(at, depths, now, controllers.len().max(1) as f64);
    }
}

impl EpochProbe {
    /// Pushes the row of boundary `at`: the instantaneous `depths`, then
    /// each cumulative counter's rate since the previous boundary.
    fn record(&mut self, at: SimTime, depths: [f64; 7], now: EpochCounters, channels: f64) {
        let (dt, epoch_ns, prev) = (self.every.as_secs_f64(), self.every.as_ns() as f64, self.prev);
        let mut row = vec![at.as_ns() as f64 / 1e6];
        row.extend(depths);
        row.extend([
            (now.io_bytes - prev.io_bytes) as f64 / dt / 1e9,
            (now.gc_bytes - prev.gc_bytes) as f64 / dt / 1e9,
            (now.sysbus_io_busy_ns - prev.sysbus_io_busy_ns) as f64 / epoch_ns,
            (now.sysbus_gc_busy_ns - prev.sysbus_gc_busy_ns) as f64 / epoch_ns,
            (now.ecc_busy_ns - prev.ecc_busy_ns) as f64 / (epoch_ns * channels),
            (now.credit_stalls - prev.credit_stalls) as f64 / dt,
            (now.completed - prev.completed) as f64 / dt,
            (now.gc_pages - prev.gc_pages) as f64 / dt,
            (now.faults - prev.faults) as f64 / dt,
        ]);
        self.series.push_row(row);
        self.prev = now;
        self.next = at + self.every;
    }
}
