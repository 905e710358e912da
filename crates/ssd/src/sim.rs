//! The event-driven SSD world, split along the paper's hardware seams.
//!
//! [`SsdSim`] owns every component and one flat event enum drives every
//! pipeline. This module keeps the struct and its construction, the
//! stepping API and the one event loop, the dispatch of each event to
//! the component that handles it, power loss with its crash audit and
//! the durability model's metadata traffic, and the state digest. Each
//! component is a submodule that declares the state it owns and
//! handles its own events:
//!
//! | module | seam (Sec 4, Fig 4) |
//! |---|---|
//! | `host` | host front-end: admission, the read and write legs, the DRAM write cache and its flush, TinyTail's RAIN parity and reconstruction |
//! | `resources` | the resources every stage occupies: system bus and DRAM (metered per traffic class), dSSD_b's GC bus, each channel's flash bus and ECC engine, the dies |
//! | `gc` | GC and global copyback: rounds, copy legs, each architecture's transport, dBUF back-pressure, erase, the WAS scan |
//! | `fnoc` | the fNoC glue: the NoC burst, step booking, packet injection and retry |
//! | `repair` | fault and wear repair: ECC verdicts, read retries, program failure, SRT/RBT remaps, retirement |
//! | `observe` | observation: the span funnel, the epoch probe, the progress meter |
//!
//! Resources are passive analytic servers from `dssd-kernel`, so each
//! pipeline stage computes its own completion time and schedules
//! exactly one event for the next stage.

mod fnoc;
mod gc;
mod host;
mod observe;
mod repair;
mod resources;

use std::collections::VecDeque;

use dssd_ctrl::DecoupledController;
use dssd_flash::{DieGrid, WearModel};
use dssd_ftl::{Ftl, Lpn, MetaStats};
use dssd_kernel::{
    BandwidthServer, EventKey, EventQueue, Rng, SimSpan, SimTime, Slab, SlabKey, ARRIVAL_RANK,
};
use dssd_noc::{Network, NocEvent, Packet};
use dssd_telemetry::{Tracer, Track};
use dssd_workload::{Request, SyntheticWorkload};

use crate::cache::WriteCache;
use crate::faults::FaultInjector;
use crate::metrics::RunReport;
use crate::{Architecture, SsdConfig};
use gc::{CopyJob, GcState};
use host::{ReadLeg, ReqState, WriteLeg};
pub use observe::EPOCH_COLUMNS;
use observe::{EpochProbe, ProgressMeter};
use repair::RemapTable;
use resources::Hop;

/// Traffic class for host I/O on the shared servers.
const CLASS_IO: usize = 0;
/// Traffic class for GC / copyback traffic.
const CLASS_GC: usize = 1;
/// Traffic class for WAS endurance-scan traffic.
const CLASS_SCAN: usize = 2;
/// Traffic class for FTL metadata traffic (mapping-journal flushes and
/// L2P checkpoints) when the durability model is enabled.
const CLASS_META: usize = 3;

type ReqId = SlabKey;
type JobId = SlabKey;

/// Why [`SsdSim::run_events`] / [`SsdSim::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// The step limit (or target instant) stopped the run; more events
    /// are pending.
    Paused,
    /// An injected power loss ended the run.
    Halted,
    /// The run reached its horizon (or the event queue drained).
    Done,
}

/// One completed host request, as observed by an embedding front-end via
/// [`SsdSim::take_completions`]. The `tag` is the zero-based index of
/// the request in start order, which — because the event queue delivers
/// arrivals in injection order — equals its injection order, letting a
/// front-end correlate completions with its own submissions without
/// widening the event enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Zero-based start-order (= injection-order) index of the request.
    pub tag: u64,
    /// Completion instant.
    pub at: SimTime,
    /// The request completed but lost data (media failure).
    pub failed: bool,
}

#[derive(Debug, Clone)]
enum Ev {
    /// Closed-loop admission refill.
    Admit,
    /// Open-loop trace arrival.
    Arrive(Request),
    /// Host write group reached the controller (system bus done).
    WriteAtCtrl { leg: Box<WriteLeg> },
    /// Host write group transferred over the flash bus.
    WriteAtDie { leg: Box<WriteLeg> },
    /// Host read group: die read finished.
    ReadAtBus { leg: Box<ReadLeg> },
    /// Host read group: flash bus transfer finished.
    ReadAtEcc { leg: Box<ReadLeg> },
    /// Host read group: ECC finished.
    ReadAtSysbus { req: ReqId, pages: u32 },
    /// DRAM-hit request: system-bus crossing finished.
    DramHitAtDram { req: ReqId, pages: u32 },
    /// `pages` of host request `req` finished their last stage: a write
    /// group programmed, or a read group or DRAM hit delivered.
    PagesDone { req: ReqId, pages: u32 },
    /// GC copy: source die read finished.
    CopyAtSrcBus { job: JobId },
    /// GC copy: source flash bus transfer finished.
    CopyAtEcc { job: JobId },
    /// GC copy: ECC check finished; route to transport.
    CopyTransport { job: JobId },
    /// GC copy: baseline path, bus crossing into DRAM finished.
    CopyAtDram { job: JobId },
    /// GC copy: baseline path, DRAM staging finished.
    CopyFromDram { job: JobId },
    /// GC copy: arrived at the destination controller.
    CopyAtDstBus { job: JobId },
    /// GC copy: destination flash bus transfer finished.
    CopyAtDstDie { job: JobId },
    /// GC copy: destination program finished.
    CopyDone { job: JobId },
    /// One die's (multi-plane) erase for the active round finished.
    EraseDone,
    /// fNoC express delivery ([`NocEvent::ExpressDone`]): its delay
    /// varies, so it rides the queue. Flit events wait on the network's
    /// own lanes.
    Noc(NocEvent),
    /// Re-injection of a packet delayed by an injected link degradation.
    NocRetry { pkt: Box<Packet> },
    /// WAS endurance scan pass begins.
    ScanTick,
    /// One WAS scan read completed its die+bus pipeline.
    ScanReadDone,
}

/// The integrated SSD simulator.
///
/// See the [crate documentation](crate) for the architecture table and an
/// end-to-end example.
#[derive(Debug)]
pub struct SsdSim {
    config: SsdConfig,
    rng: Rng,
    ftl: Ftl,
    dies: DieGrid,
    flash_bus: Vec<BandwidthServer>,
    controllers: Vec<DecoupledController>,
    sysbus: BandwidthServer,
    dram: BandwidthServer,
    dedicated_bus: Option<BandwidthServer>,
    /// Boxed so the network's hot state (lane heads, counters) sits at a
    /// heap address that does not move with `SsdSim`'s size or with the
    /// frame holding the sim: inline, the NoC burst's speed shifted by up
    /// to 20% with unrelated field changes (DESIGN.md §13).
    noc: Option<Box<Network>>,
    dbuf_waiters: Vec<VecDeque<JobId>>,
    cache: Option<WriteCache>,
    flush_backlog: VecDeque<Lpn>,
    remap: RemapTable,
    wear: Option<WearModel>,
    queue: EventQueue<Ev>,
    requests: Slab<ReqState>,
    jobs: Slab<CopyJob>,
    /// In-flight fNoC packets: the slab key's bits are the packet id, so
    /// delivery resolves back to its copy job without a hash probe.
    packet_jobs: Slab<JobId>,
    /// Reused buffers for NoC steps: the event loop books one NoC step
    /// at a time, so one `Step` (with retained capacity) serves them all.
    noc_step: dssd_noc::Step,
    /// fNoC flit events handled off the network's lanes; folded into
    /// `events_delivered`, the state digest and progress ticks wherever
    /// queue pops are, so every event counts once wherever it waited.
    noc_lane_pops: u64,
    /// Host writes waiting for free space: `(request, LPNs, attempt)`.
    blocked_writes: VecDeque<(ReqId, Vec<Lpn>, u32)>,
    /// Write groups awaiting re-allocation after a program failure.
    blocked_rewrites: VecDeque<(ReqId, Vec<Lpn>, u32)>,
    /// Superblocks holding a failed block, awaiting online retirement.
    pending_retire: VecDeque<u32>,
    injector: Option<FaultInjector>,
    outstanding: usize,
    workload: Option<SyntheticWorkload>,
    gc: Option<GcState>,
    scan_remaining: u64,
    scan_inflight: usize,
    parity_pending_pages: u32,
    report: RunReport,
    now: SimTime,
    horizon: SimTime,
    prefilled: bool,
    /// Span tracer (disabled unless [`SsdSim::enable_tracing`] is called).
    /// Strictly observational: it never schedules events or draws random
    /// numbers, so enabling it cannot perturb the simulation.
    tracer: Tracer,
    /// Epoch time-series probe; piggybacks on the event loop (no queue
    /// events of its own) so `events_delivered` stays bit-identical.
    epoch: Option<EpochProbe>,
    /// Emit a wall-clock-throttled heartbeat to stderr while the event
    /// loop runs (`--progress`). Stdout and the simulation are untouched.
    progress: bool,
    /// Events handled so far — the snapshot/replay cursor. Unlike
    /// `queue.delivered()` it excludes the final beyond-horizon pop, so
    /// replaying exactly this many events reproduces the state.
    events_handled: u64,
    /// Armed power-loss instant (configured or drawn from the dedicated
    /// `seed ^ 0x504C` stream).
    power_at: Option<SimTime>,
    /// Power loss after this many handled events, if armed.
    power_at_event: Option<u64>,
    /// True after a power loss: volatile state is gone, the run is over.
    halted: bool,
    /// Start-order counter backing [`Completion::tag`].
    next_tag: u64,
    /// Completion log for embedding front-ends; `None` (the default)
    /// keeps the hot path allocation-free.
    completions: Option<Vec<Completion>>,
}

impl SsdSim {
    /// Builds an idle simulator from a config.
    ///
    /// # Panics
    ///
    /// Panics if the config is internally inconsistent (e.g. fNoC
    /// terminal count differing from the channel count).
    #[must_use]
    pub fn new(config: SsdConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid SsdConfig: {e}");
        }
        let geo = config.geometry;
        let channels = geo.channels as usize;
        let dedicated_bus = match config.architecture {
            Architecture::DssdBus => Some(BandwidthServer::new(
                config.dedicated_budget_bytes_per_sec().max(1),
                config.bus_overhead,
            )),
            _ => None,
        };
        let noc = match config.architecture {
            Architecture::DssdFnoc => {
                let mut nc = config.noc;
                if nc.link_bytes_per_sec == 0 {
                    // Derive the link bandwidth from the dedicated
                    // on-chip budget (bisection normalization).
                    nc = nc.with_bisection_bandwidth(
                        config.dedicated_budget_bytes_per_sec().max(1),
                    );
                }
                Some(Box::new(Network::new(nc)))
            }
            _ => None,
        };
        // The decoupled controllers (C_D): command queue, integrated ECC,
        // dBUF, and the dynamic-superblock hardware tables.
        let srt_entries = config.dynamic_sb.map_or(1024, |d| d.srt_entries);
        let controllers = (0..channels)
            .map(|_| {
                DecoupledController::new(config.ecc, config.dbuf_pages, srt_entries, 1 << 20)
            })
            .collect();

        // Deterministic power loss. The drawn instant comes from its own
        // stream (`seed ^ 0x504C`) so arming it cannot perturb the
        // workload/prefill/fault randomness of the comparison run.
        let pl = config.power_loss;
        let power_at = if pl.at > SimTime::ZERO {
            Some(pl.at)
        } else if pl.mean_time_to_loss > SimSpan::ZERO {
            let mut prng = Rng::new(config.seed ^ 0x504C);
            let ns = prng.exponential(pl.mean_time_to_loss.as_ns() as f64);
            Some(SimTime::ZERO + SimSpan::from_ns((ns.round() as u64).max(1)))
        } else {
            None
        };

        let mut sim = SsdSim {
            rng: Rng::new(config.seed),
            ftl: Ftl::new(geo, config.ftl),
            dies: DieGrid::new(&geo),
            flash_bus: (0..channels)
                .map(|_| BandwidthServer::new(config.flash_bus_bytes_per_sec, SimSpan::ZERO))
                .collect(),
            controllers,
            sysbus: BandwidthServer::new(config.system_bus_bytes_per_sec(), config.bus_overhead),
            dram: BandwidthServer::new(config.dram_bytes_per_sec, config.bus_overhead),
            dedicated_bus,
            noc,
            dbuf_waiters: (0..channels).map(|_| VecDeque::new()).collect(),
            cache: config.write_cache_pages.map(WriteCache::new),
            flush_backlog: VecDeque::new(),
            remap: RemapTable::injected(&config),
            wear: repair::wear_model(&config),
            queue: EventQueue::new(),
            requests: Slab::new(),
            jobs: Slab::new(),
            packet_jobs: Slab::new(),
            noc_step: dssd_noc::Step::default(),
            noc_lane_pops: 0,
            blocked_writes: VecDeque::new(),
            blocked_rewrites: VecDeque::new(),
            pending_retire: VecDeque::new(),
            injector: config
                .faults
                .enabled()
                .then(|| FaultInjector::new(config.faults, config.seed)),
            outstanding: 0,
            workload: None,
            gc: None,
            scan_remaining: 0,
            scan_inflight: 0,
            parity_pending_pages: 0,
            report: RunReport::new(SimSpan::from_ms(1)),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            prefilled: false,
            tracer: Tracer::disabled(),
            epoch: None,
            progress: false,
            events_handled: 0,
            power_at,
            power_at_event: (pl.at_event > 0).then_some(pl.at_event),
            halted: false,
            next_tag: 0,
            completions: None,
            config,
        };
        sim.carve_reserved_pool();
        // FTL metadata durability model (per-page OOB + mapping journal
        // + L2P checkpoints), charged as real flash traffic.
        if let Some(d) = sim.config.durability {
            sim.ftl.enable_meta(dssd_ftl::MetaConfig {
                journal_entries_per_page: d.journal_entries_per_page,
                checkpoint_interval_pages: d.checkpoint_interval_pages,
                page_bytes: geo.page_bytes,
            });
        }
        sim
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// The FTL (for inspection in tests and experiments).
    #[must_use]
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// Whether [`SsdSim::prefill`] has run.
    #[must_use]
    pub fn is_prefilled(&self) -> bool {
        self.prefilled
    }

    /// Pre-conditions the drive per Sec 6.1 (full + fragmented, on the
    /// edge of triggering GC). Idempotent.
    pub fn prefill(&mut self) {
        if self.prefilled {
            return;
        }
        let target = self.config.prefill_target_free;
        let frac = self.config.prefill_invalid_fraction;
        let mut rng = self.rng.fork(0xF111);
        self.ftl.prefill_with(&mut rng, target, frac);
        self.prefilled = true;
    }

    /// Runs a closed-loop workload for `duration` of simulated time and
    /// returns the measurements.
    pub fn run_closed_loop(
        &mut self,
        workload: SyntheticWorkload,
        duration: SimSpan,
    ) -> &RunReport {
        self.begin_closed_loop(workload, duration);
        self.run_events(u64::MAX);
        self.finish_run()
    }

    /// Replays an open-loop request schedule (e.g. from a trace), capped
    /// at `duration`.
    ///
    /// Arrivals are pushed at [`ARRIVAL_RANK`], so a live front-end
    /// injecting the same schedule incrementally between steps
    /// ([`SsdSim::inject_arrival`]) pops every event in the exact same
    /// order and produces a bit-identical [`RunReport`].
    pub fn run_trace(
        &mut self,
        requests: Vec<(SimTime, Request)>,
        duration: SimSpan,
    ) -> &RunReport {
        self.begin_open_loop(duration);
        for (t, r) in requests {
            self.inject_arrival(t, r);
        }
        self.run_events(u64::MAX);
        self.finish_run()
    }

    /// Arms an open-loop run without any arrivals: pair with
    /// [`SsdSim::inject_arrival`] / [`SsdSim::run_until_before`] /
    /// [`SsdSim::run_events`] to drive the sim from a live front-end,
    /// then [`SsdSim::finish_run`]. `begin_open_loop` + injecting a
    /// schedule + `run_events(u64::MAX)` + `finish_run` is exactly
    /// [`SsdSim::run_trace`].
    pub fn begin_open_loop(&mut self, duration: SimSpan) {
        self.begin_run(duration);
        self.arm_scan();
    }

    /// Schedules a host request arrival at absolute time `t`. Returns
    /// `false` (and schedules nothing) when `t` is past the horizon,
    /// mirroring [`SsdSim::run_trace`]'s filter.
    ///
    /// Arrivals carry a rank below every internally-scheduled event, so
    /// the pop order — and therefore the whole simulation — depends only
    /// on the arrival schedule, not on *when* each arrival was pushed.
    /// Injecting between steps is only safe at instants the loop has not
    /// reached: advance with [`SsdSim::run_until_before`]`(t)`, inject
    /// at `t`, repeat.
    pub fn inject_arrival(&mut self, t: SimTime, r: Request) -> bool {
        if t > self.horizon {
            return false;
        }
        debug_assert!(t >= self.now, "arrival injected in the past");
        self.queue.push_ranked(t, ARRIVAL_RANK, Ev::Arrive(r));
        true
    }

    /// The run horizon set by the active `begin_*` call.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Arms a closed-loop run without driving it: pair with
    /// [`SsdSim::run_events`] / [`SsdSim::run_until`] to step the
    /// simulation (snapshots, crashpoint sweeps), then
    /// [`SsdSim::finish_run`]. `begin` + `run_events(u64::MAX)` +
    /// `finish_run` is exactly [`SsdSim::run_closed_loop`].
    pub fn begin_closed_loop(&mut self, workload: SyntheticWorkload, duration: SimSpan) {
        self.workload = Some(workload.bind(self.ftl.lpn_count()));
        self.begin_run(duration);
        self.queue.push(SimTime::ZERO, Ev::Admit);
        self.arm_scan();
    }

    fn begin_run(&mut self, duration: SimSpan) {
        // Mounting takes the baseline checkpoint over the (typically
        // prefilled) mapping — a no-op when durability is off.
        self.ftl.meta_mount_baseline();
        self.horizon = SimTime::ZERO + duration;
    }

    /// The measurements collected so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Mutable access to the measurements (percentiles need `&mut`).
    pub fn report_mut(&mut self) -> &mut RunReport {
        &mut self.report
    }

    /// Flash-side express diagnostics as `(coalesced, demoted)`: always
    /// `(0, 0)`. The flash-leg chain walk that counted them coalesced
    /// too few events to pay for its probes and was removed (DESIGN.md
    /// §13); every event now pops from the queue or the fNoC's lanes.
    /// Kept so existing readers of the pair still build and see zero.
    #[must_use]
    pub fn flash_express_diag(&self) -> (u64, u64) {
        (0, 0)
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Drives the event loop for up to `limit` events. Returns
    /// [`RunState::Done`] when the run reached its horizon (or drained),
    /// [`RunState::Paused`] when the limit stopped it mid-run, and
    /// [`RunState::Halted`] when injected power loss cut it short.
    ///
    /// Stepping stops *before* popping (the queue's FIFO tie order would
    /// not survive a pop-and-re-push), while the horizon check keeps the
    /// original pop-then-break — the dropped pop is part of the golden
    /// `events_delivered` fingerprints. A NoC burst that reaches the
    /// limit stops there, exactly on the count.
    ///
    /// `run_events(1)` in a loop is the reference engine: each call
    /// handles exactly one event, the least pending one, so no NoC burst
    /// runs past it. Every other way of driving the sim must match it
    /// step for step (`tests/stepping.rs`).
    pub fn run_events(&mut self, limit: u64) -> RunState {
        self.run_bounded(limit, None)
    }

    /// Steps until the next pending event would land after `t` (so the
    /// state is exactly the full run's state at instant `t`). Returns
    /// [`RunState::Paused`] on reaching `t` with events still pending.
    /// NoC bursts that finish before `t` still run whole. `SimTime::MAX`
    /// runs to the horizon.
    pub fn run_until(&mut self, t: SimTime) -> RunState {
        self.run_bounded(u64::MAX, Some(SimTime::from_ns(t.as_ns().saturating_add(1))))
    }

    /// Steps until the next pending event would land at or after `t`:
    /// the safe point to [`inject`](SsdSim::inject_arrival) an arrival
    /// at `t`, because no event at `t` has popped yet — the arrival's
    /// rank then places it exactly where a batch push would have.
    /// Returns [`RunState::Paused`] with events at or after `t` still
    /// pending. NoC bursts that finish before `t` still run whole, so a
    /// front-end pacing the device through this call keeps them.
    pub fn run_until_before(&mut self, t: SimTime) -> RunState {
        self.run_bounded(u64::MAX, Some(t))
    }

    /// The one event loop behind [`SsdSim::run_events`],
    /// [`SsdSim::run_until`] and [`SsdSim::run_until_before`]: handles at
    /// most `limit` events, and with a `stop` only events strictly
    /// earlier than it.
    ///
    /// Pending events wait in two places: the queue, and the fNoC's
    /// flit-event lanes, stamped from the queue's counter. The next event
    /// is whichever head has the least key, so the merged order is the
    /// order of one queue holding both. A lane head goes to the NoC
    /// burst, a queue event to its handler.
    ///
    /// The burst takes one observation bound instead of a gate per
    /// feature: the earliest of `stop`, the next epoch boundary, the
    /// armed power-loss instant, and the end of the horizon. It handles
    /// a flit event only if it precedes both the queue head and the
    /// bound, so every event at or past the bound comes back through
    /// this loop, where the pause, epoch sample or power loss it
    /// triggers runs exactly as under `run_events(1)` stepping. Its
    /// event budget ends at `limit` and at `power_at_event`, which are
    /// therefore hit exactly too. Progress ticks at burst boundaries.
    fn run_bounded(&mut self, limit: u64, stop: Option<SimTime>) -> RunState {
        let mut progress = self.progress.then(ProgressMeter::new);
        let mut bound = self.observation_bound(stop);
        let mut handled = 0u64;
        loop {
            // `limit` and `stop` never combine, and the stop check comes
            // before the halt check so a stepping call on a halted run
            // still pauses when nothing is due before its stop.
            if stop.is_some_and(|s| self.next_time().is_none_or(|next| next >= s)) {
                return RunState::Paused;
            }
            if self.halted {
                return RunState::Halted;
            }
            if handled >= limit {
                return RunState::Paused;
            }
            if let Some(pa) = self.power_at {
                if pa <= self.horizon && self.next_time().is_none_or(|next| next >= pa) {
                    self.now = pa;
                    self.power_loss();
                    return RunState::Halted;
                }
            }
            // A lane head that precedes the queue head is next; `None`
            // for the event stands for it.
            let lane = self.noc.as_deref().and_then(Network::next_key);
            let (t, ev) = match lane {
                Some(k) if self.queue.peek_key().is_none_or(|head| k < head) => (k.time(), None),
                _ => match self.queue.pop() {
                    Some((t, ev)) => (t, Some(ev)),
                    None => break,
                },
            };
            if t > self.horizon {
                // Pop-then-break, as the golden event counts expect.
                if ev.is_none() {
                    self.noc.as_deref_mut().expect("a lane head has a NoC").discard_next();
                    self.noc_lane_pops += 1;
                }
                break;
            }
            // Epoch sampling piggybacks here rather than scheduling its
            // own events, so `events_delivered` (and every golden
            // fingerprint) stays identical with sampling on or off. The
            // checks above keep `t` before `stop`, `power_at` and the
            // horizon, so only an epoch boundary can put it at or past
            // the bound.
            if t >= bound {
                self.sample_epochs_until(t);
                bound = self.observation_bound(stop);
            }
            if let Some(p) = progress.as_mut() {
                p.tick(t, || self.events_popped());
            }
            self.now = t;
            let budget = match self.power_at_event {
                Some(at) => (limit - handled).min(at.saturating_sub(self.events_handled)),
                None => limit - handled,
            };
            let n = match ev {
                // NoC burst: the network runs its flit events while they
                // precede the queue head and the bound.
                None => self.noc_burst(budget, bound),
                Some(ev) => {
                    self.handle(ev);
                    1
                }
            };
            self.events_handled += n;
            handled += n;
            if self.power_at_event == Some(self.events_handled) {
                self.power_loss();
                return RunState::Halted;
            }
        }
        RunState::Done
    }

    /// The time of the next pending event, in the queue or on the fNoC's
    /// lanes.
    fn next_time(&self) -> Option<SimTime> {
        let lane = self.noc.as_deref().and_then(Network::next_key);
        [self.queue.peek_key(), lane].into_iter().flatten().min().map(EventKey::time)
    }

    /// Events popped so far: queue pops, the fNoC's lane pops, and the
    /// flit-level events the NoC express path simulated privately — the
    /// same logical work with that path on or off.
    fn events_popped(&self) -> u64 {
        self.queue.delivered()
            + self.noc_lane_pops
            + self.noc.as_deref().map_or(0, Network::express_events)
    }

    /// The instant a NoC burst must not reach: the earliest of the
    /// stepping `stop`, the next epoch boundary, the armed power-loss
    /// instant, and the first instant past the horizon.
    fn observation_bound(&self, stop: Option<SimTime>) -> SimTime {
        let past_horizon = SimTime::from_ns(self.horizon.as_ns().saturating_add(1));
        [stop, self.epoch.as_ref().map(|e| e.next), self.power_at]
            .into_iter()
            .flatten()
            .fold(past_horizon, SimTime::min)
    }

    /// Finalizes a stepped run: closes epoch sampling and fills the
    /// report's event/elapsed totals. Idempotent; [`SsdSim::run_closed_loop`]
    /// calls it internally.
    pub fn finish_run(&mut self) -> &RunReport {
        let upto = if self.halted { self.now } else { self.horizon };
        if self.epoch.is_some() {
            self.sample_epochs_until(upto);
        }
        self.report.events_delivered = self.events_popped();
        self.report.elapsed = upto - SimTime::ZERO;
        &self.report
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled so far — the snapshot/replay cursor.
    #[must_use]
    pub fn events_handled(&self) -> u64 {
        self.events_handled
    }

    /// Sends each event to the component that handles it.
    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Admit => self.admit_closed_loop(),
            Ev::Arrive(r) => {
                self.start_request(r);
                self.check_gc();
            }
            Ev::WriteAtCtrl { leg } => self.write_at_ctrl(leg),
            Ev::WriteAtDie { leg } => self.write_at_die(*leg),
            Ev::ReadAtBus { leg } => self.read_at_bus(leg),
            Ev::ReadAtEcc { leg } => self.read_at_ecc(*leg),
            Ev::ReadAtSysbus { req, pages } => self.deliver(req, Hop::SysBus, pages),
            Ev::DramHitAtDram { req, pages } => self.deliver(req, Hop::Dram, pages),
            Ev::PagesDone { req, pages } => self.finish_pages(req, pages),
            Ev::CopyAtSrcBus { job } => self.copy_at_src_bus(job),
            Ev::CopyAtEcc { job } => self.copy_at_ecc(job),
            Ev::CopyTransport { job } => self.copy_transport(job),
            Ev::CopyAtDram { job } => self.copy_at_dram(job),
            Ev::CopyFromDram { job } => self.copy_from_dram(job),
            Ev::CopyAtDstBus { job } => self.copy_at_dst_bus(job),
            Ev::CopyAtDstDie { job } => self.copy_at_dst_die(job),
            Ev::CopyDone { job } => self.copy_done(job),
            Ev::EraseDone => self.erase_done(),
            Ev::Noc(ev) => self.with_noc(|noc, step, orders, now| {
                noc.handle_into(*now, ev, step, orders);
            }),
            Ev::NocRetry { pkt } => self.with_noc(|noc, step, orders, now| {
                noc.inject_into(*now, *pkt, step, orders);
            }),
            Ev::ScanTick => self.scan_tick(),
            Ev::ScanReadDone => {
                self.scan_inflight -= 1;
                self.pump_scan();
            }
        }
    }

    // ------------------------------------------------------------------
    // Power loss and the durability model
    // ------------------------------------------------------------------

    /// Power loss at `self.now`: every in-flight request and all volatile
    /// state (event queue, journal buffer, in-flight checkpoint, DRAM) is
    /// gone, and the run halts. The mount [`SsdSim::crash_audit`]
    /// computes lands in [`RunReport::recovery`].
    fn power_loss(&mut self) {
        assert!(!self.halted, "power already lost");
        self.halted = true;
        let t = self.now;
        self.tracer.instant(Track::Faults, "power loss", t);
        let recovery = self.crash_audit();
        self.tracer.instant(Track::Faults, "mount recovery done", t + recovery.recovery_time);
        self.report.recovery = Some(recovery);
    }

    /// The mount a power loss *now* would run, from a borrow: recovers
    /// the mapping from durable media state only (checkpoint, durable
    /// journal pages, OOB scan of the open region), audits both
    /// crash-consistency invariants against the ack oracle, and prices
    /// the scan as an analytic recovery time. The run itself is
    /// untouched, so the crashpoint sweep audits a paused run at every
    /// k-th event and then lets it continue; an armed power loss at the
    /// same event reports exactly this.
    ///
    /// # Panics
    ///
    /// Panics if the durability model is disabled.
    #[must_use]
    pub fn crash_audit(&self) -> crate::RecoveryReport {
        let t = self.now;
        let meta = self.ftl.meta().expect("a crash audit requires the durability model");
        let outcome = meta.recover(t);
        let geo = self.config.geometry;
        let bus_ns = SimSpan::for_transfer(
            u64::from(geo.page_bytes),
            self.config.flash_bus_bytes_per_sec,
        )
        .as_ns();
        crate::RecoveryReport {
            power_loss_at: t,
            recovery_time: meta.recovery_time(
                outcome.pages_read,
                u64::from(geo.channels),
                self.config.timing.read_latency_mid(),
                bus_ns,
            ),
            checkpoint_pages: outcome.checkpoint_pages,
            journal_pages_replayed: outcome.journal_pages_replayed,
            journal_entries_replayed: outcome.journal_entries_replayed,
            oob_pages_scanned: outcome.oob_pages_scanned,
            torn_pages: outcome.torn_pages,
            lost_acked_writes: outcome.lost_acked_writes,
            resurrected_trims: outcome.resurrected_trims,
            requests_torn: self.outstanding as u64,
        }
    }

    /// True after an injected power loss ended the run.
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Durability-model activity counters, when the model is enabled.
    #[must_use]
    pub fn meta_stats(&self) -> Option<MetaStats> {
        self.ftl.meta_stats()
    }

    /// Charges pending metadata I/O (journal flushes, checkpoints) as
    /// flash traffic on `CLASS_META` and reports each transfer's durable
    /// instant back to the model. Fully analytic: completion times use
    /// the deterministic mid-range program latency (no RNG draws) and no
    /// events are scheduled, so durability-off fingerprints are
    /// untouched and `Ev` stays lean.
    fn pump_meta(&mut self) {
        let io = self.ftl.meta_take_io();
        if io.is_empty() {
            return;
        }
        let channels = u64::from(self.config.geometry.channels);
        let page = u64::from(self.config.geometry.page_bytes);
        let program = self.config.timing.program_latency_mid();
        for item in io {
            match item {
                dssd_ftl::MetaIo::JournalFlush { page: seq, bytes } => {
                    // The journal buffer drains from controller DRAM and
                    // rotates round-robin over the channel buses.
                    let d = self.dram.enqueue(self.now, u64::from(bytes), CLASS_META);
                    let ch = (seq % channels) as usize;
                    let tr =
                        self.flash_bus[ch].enqueue(d.done, u64::from(bytes), CLASS_META);
                    self.ftl.meta_journal_durable(seq, tr.done + program);
                }
                dssd_ftl::MetaIo::Checkpoint { pages, bytes } => {
                    // Snapshot the mapping before any further mutation.
                    self.ftl.meta_begin_checkpoint();
                    let d = self.dram.enqueue(self.now, bytes, CLASS_META);
                    let mut durable = d.done + program;
                    for i in 0..pages {
                        let ch = (i % channels) as usize;
                        let tr = self.flash_bus[ch].enqueue(d.done, page, CLASS_META);
                        durable = durable.max(tr.done + program);
                    }
                    self.ftl.meta_checkpoint_durable(durable);
                }
            }
        }
    }

    /// Order-sensitive digest of the live simulation state (RNG, clock,
    /// cursor, queue and report counters). Two sims with equal digests
    /// built from the same config evolve identically; the snapshot
    /// restore path verifies replay against it.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let stats = self.ftl.stats();
        let parts = [
            self.rng.state_digest(),
            self.now.as_ns(),
            self.events_handled,
            self.queue.delivered() + self.noc_lane_pops,
            self.outstanding as u64,
            u64::from(self.prefilled),
            self.report.requests_completed,
            self.report.gc_pages_copied,
            self.report.gc_rounds,
            self.report.io_bw.total_bytes(),
            stats.host_pages_written,
            stats.gc_pages_copied,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for p in parts {
            h = (h ^ p).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Architecture, StageKind};
    use dssd_workload::{AccessPattern, Op};

    fn run(
        arch: Architecture,
        pages: u32,
        prefill: bool,
        ms: u64,
    ) -> (f64, f64, u64) {
        let mut sim = SsdSim::new(SsdConfig::test_tiny(arch));
        if prefill {
            sim.prefill();
        }
        let wl = SyntheticWorkload::writes(AccessPattern::Random, pages);
        let report = sim.run_closed_loop(wl, SimSpan::from_ms(ms));
        (
            report.io_bandwidth_gbps(),
            report.gc_bandwidth_gbps(),
            report.gc_rounds,
        )
    }

    #[test]
    fn event_stays_small() {
        // Every event-queue entry copies an `Ev` on push and pop, and the
        // calendar buckets min-scan them, so the enum's size is hot-path
        // memory traffic. Large payloads (write/read legs, retried
        // packets) are boxed to keep it lean; this guards against a new
        // variant silently fattening every queue operation.
        assert!(
            std::mem::size_of::<Ev>() <= 40,
            "Ev grew to {} bytes; box the large payload",
            std::mem::size_of::<Ev>()
        );
    }

    #[test]
    fn fresh_drive_low_bandwidth_matches_calibration() {
        // test_tiny: 8 ch x 8 ways = 64 dies; 4 KB random writes with no
        // GC: 64 x 51.2 MB/s = 3.28 GB/s — the paper's "approximately
        // 3 GB/s ... sustained initially" (Fig 2a).
        let (io, gc, _) = run(Architecture::Baseline, 1, false, 10);
        assert!(gc < 1e-3, "no GC expected on a fresh drive, got {gc}");
        assert!((io - 3.28).abs() < 0.35, "io {io} GB/s vs expected 3.28");
    }

    #[test]
    fn fresh_drive_high_bandwidth_uses_planes() {
        // 8-page (32 KB) writes: 64 dies x 409.6 MB/s = 26 GB/s of
        // demand, capped near the 8 GB/s system bus (the paper's
        // "maximum bandwidth ... approximately 8 GB/s"). Short window:
        // the tiny test drive has ~200 MB of headroom before GC.
        let (io, _, _) = run(Architecture::Baseline, 8, false, 5);
        assert!(io > 6.0, "io {io} GB/s should approach the 8 GB/s bus");
        assert!(io < 8.2, "io {io} GB/s exceeds the system bus");
    }

    #[test]
    fn gc_degrades_baseline_io() {
        let (fresh, _, _) = run(Architecture::Baseline, 8, false, 5);
        let (aged, gc, rounds) = run(Architecture::Baseline, 8, true, 20);
        assert!(rounds > 0, "prefilled drive must run GC");
        assert!(gc > 0.0);
        assert!(
            aged < fresh * 0.85,
            "GC must visibly degrade I/O: fresh {fresh}, aged {aged}"
        );
    }

    #[test]
    fn decoupled_architectures_beat_baseline_under_gc() {
        // The Fig 7 regime: I/O fully utilizes the SSD while GC runs
        // continuously.
        let measure = |arch: Architecture| {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            let r = sim.run_closed_loop(wl, SimSpan::from_ms(25));
            (r.io_bandwidth_gbps(), r.gc_bandwidth_gbps())
        };
        let (base_io, base_gc) = measure(Architecture::Baseline);
        let (fnoc_io, fnoc_gc) = measure(Architecture::DssdFnoc);
        assert!(
            fnoc_io > base_io * 1.15,
            "dSSD_f io {fnoc_io} must clearly beat baseline {base_io}"
        );
        assert!(
            fnoc_gc > base_gc * 1.10,
            "dSSD_f gc {fnoc_gc} must clearly beat baseline {base_gc}"
        );
    }

    #[test]
    fn all_architectures_run_and_complete_requests() {
        for arch in Architecture::all() {
            let mut sim = SsdSim::new(SsdConfig::test_tiny(arch));
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 4);
            let report = sim.run_closed_loop(wl, SimSpan::from_ms(10));
            assert!(
                report.requests_completed > 100,
                "{}: only {} requests",
                arch.label(),
                report.requests_completed
            );
        }
    }

    #[test]
    fn dram_hit_workload_reaches_sysbus_bandwidth() {
        let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::Baseline));
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8)
            .with_dram_hit_fraction(1.0);
        let report = sim.run_closed_loop(wl, SimSpan::from_ms(10));
        let io = report.io_bandwidth_gbps();
        // 8 GB/s system bus minus per-transaction overhead.
        assert!(io > 6.0, "DRAM-hit io {io} GB/s");
        assert!(report.gc_rounds == 0);
    }

    #[test]
    fn dram_hit_io_isolated_from_gc_only_on_dssd_f() {
        let measure = |arch: Architecture| {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            // All host I/O hits DRAM, while GC rages underneath; hold
            // moderate load so contention (not QD) limits throughput.
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8)
                .with_dram_hit_fraction(1.0)
                .with_queue_depth(8);
            // write pressure to keep GC running comes from GC trigger at
            // prefill edge: inject flash writes via a second phase is not
            // needed; prefill left us below threshold, so GC starts at
            // the first check.
            let report = sim.run_closed_loop(wl, SimSpan::from_ms(10));
            (report.io_bandwidth_gbps(), report.gc_pages_copied)
        };
        let (base_io, base_copied) = measure(Architecture::Baseline);
        let (fnoc_io, fnoc_copied) = measure(Architecture::DssdFnoc);
        assert!(base_copied > 0 && fnoc_copied > 0, "GC must run in both");
        assert!(
            fnoc_io > base_io,
            "GC steals bus from DRAM-hit I/O only on baseline: {base_io} vs {fnoc_io}"
        );
    }

    #[test]
    fn tail_latency_ordering_baseline_vs_fnoc() {
        // The Fig 10a regime: DRAM-cached I/O with GC running
        // underneath. Baseline copybacks clog the system bus the I/O
        // needs; dSSD_f isolates them on the fNoC.
        let p99 = |arch: Architecture| {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8)
                .with_dram_hit_fraction(1.0);
            sim.run_closed_loop(wl, SimSpan::from_ms(15));
            sim.report_mut().latency_percentile(0.99).as_us_f64()
        };
        let base = p99(Architecture::Baseline);
        let fnoc = p99(Architecture::DssdFnoc);
        assert!(
            fnoc * 2.0 < base,
            "dSSD_f p99 {fnoc}us must be far below baseline {base}us"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let go = || {
            let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            let r = sim.run_closed_loop(wl, SimSpan::from_ms(10));
            (
                r.requests_completed,
                r.gc_pages_copied,
                r.io_bw.total_bytes(),
            )
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn reads_flow_through_full_pipeline() {
        let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::Baseline));
        sim.prefill();
        let wl = SyntheticWorkload::reads(AccessPattern::Random, 1);
        let report = sim.run_closed_loop(wl, SimSpan::from_ms(10));
        assert!(report.requests_completed > 1000);
        assert!(report.read_latency.count() > 0);
        // Breakdown must include chip, flash bus, ecc and system bus.
        let b = &report.io_breakdown;
        assert!(b.mean_us(StageKind::FlashChip) > 0.0);
        assert!(b.mean_us(StageKind::FlashBus) > 0.0);
        assert!(b.mean_us(StageKind::Ecc) > 0.0);
        assert!(b.mean_us(StageKind::SystemBus) > 0.0);
    }

    #[test]
    fn copyback_breakdown_shows_architecture_difference() {
        let breakdown = |arch: Architecture| {
            let mut sim = SsdSim::new(SsdConfig::test_tiny(arch));
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            sim.run_closed_loop(wl, SimSpan::from_ms(20));
            (
                sim.report().copyback_breakdown.mean_us(StageKind::SystemBus),
                sim.report().copyback_breakdown.mean_us(StageKind::Noc),
                sim.report().copyback_breakdown.count(),
            )
        };
        let (base_sys, base_noc, base_n) = breakdown(Architecture::Baseline);
        let (fnoc_sys, fnoc_noc, fnoc_n) = breakdown(Architecture::DssdFnoc);
        assert!(base_n > 0 && fnoc_n > 0);
        assert!(base_sys > 0.0, "baseline copyback must use the system bus");
        assert!(base_noc == 0.0);
        assert!(fnoc_sys == 0.0, "dSSD_f copyback must never use the system bus");
        assert!(fnoc_noc > 0.0, "dSSD_f copyback must use the fNoC");
    }

    #[test]
    fn srt_remaps_degrade_performance() {
        // Fig 15a: remapped sub-blocks collide on channels/dies, which
        // slows GC and — at steady state, where sustained writes are
        // paced by GC reclaim — drags I/O down with it. A long window is
        // needed so the space balance (not the transient) is measured.
        let io_at = |remaps: usize| {
            let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
            cfg.srt_active_remaps = remaps;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            let r = sim.run_closed_loop(wl, SimSpan::from_ms(80));
            (r.mean_latency().as_us_f64(), r.gc_bandwidth_gbps())
        };
        let (clean_lat, clean_gc) = io_at(0);
        let (remapped_lat, remapped_gc) = io_at(1024);
        assert!(
            remapped_gc < clean_gc,
            "heavy remapping must slow GC: {clean_gc} vs {remapped_gc}"
        );
        assert!(
            remapped_lat > clean_lat,
            "GC-paced writes must wait longer: {clean_lat}us vs {remapped_lat}us"
        );
    }

    #[test]
    fn was_scans_inflate_io_latency() {
        let mean_latency = |scan: Option<crate::WasScanConfig>| {
            let mut cfg = SsdConfig::test_tiny(Architecture::Baseline);
            cfg.was_scan = scan;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 1);
            let r = sim.run_closed_loop(wl, SimSpan::from_ms(15));
            r.mean_latency().as_us_f64()
        };
        let without = mean_latency(None);
        let with = mean_latency(Some(crate::WasScanConfig {
            tracked_blocks: 16384,
            interval: SimSpan::from_ms(3),
        }));
        assert!(
            with > without * 1.05,
            "WAS scans must contend with I/O: {without} vs {with}"
        );
    }

    #[test]
    fn trace_replay_completes() {
        let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::Baseline));
        sim.prefill();
        let reqs: Vec<(SimTime, Request)> = (0..500)
            .map(|i| {
                (
                    SimTime::from_us(i * 20),
                    Request::new(if i % 3 == 0 { Op::Read } else { Op::Write }, i * 7, 2),
                )
            })
            .collect();
        let report = sim.run_trace(reqs, SimSpan::from_ms(50));
        assert_eq!(report.requests_completed, 500);
        assert!(report.mean_latency().as_ns() > 0);
    }

    /// `run_until(SimTime::MAX)` saturates its stop instant instead of
    /// overflowing it, so it runs to the horizon exactly as an unbounded
    /// `run_events` does.
    #[test]
    fn run_until_the_end_of_the_clock_runs_to_the_horizon() {
        let start = || {
            let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            sim.begin_closed_loop(wl, SimSpan::from_us(300));
            sim
        };
        let mut until = start();
        assert_eq!(until.run_until(SimTime::MAX), RunState::Done);
        let mut events = start();
        assert_eq!(events.run_events(u64::MAX), RunState::Done);
        assert!(until.events_handled() > 0);
        assert_eq!(until.events_handled(), events.events_handled());
        assert_eq!(until.state_digest(), events.state_digest());
    }
}

#[cfg(test)]
mod dynamic_sb_tests {
    use super::*;
    use crate::{Architecture, DynamicSbConfig};
    use dssd_workload::AccessPattern;

    fn aged_config(arch: Architecture) -> SsdConfig {
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.gc_continuous = true;
        // Accelerated aging: blocks survive only a handful of erases, so
        // wear-out events occur within a short window.
        cfg.dynamic_sb = Some(DynamicSbConfig {
            pe_mean: 8.0,
            pe_sigma: 4.0,
            wear_acceleration: 4,
            ..DynamicSbConfig::default()
        });
        cfg
    }

    fn run(cfg: SsdConfig, ms: u64) -> SsdSim {
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
        sim.run_closed_loop(wl, SimSpan::from_ms(ms));
        sim
    }

    #[test]
    fn decoupled_architecture_repairs_worn_blocks() {
        let sim = run(aged_config(Architecture::DssdFnoc), 60);
        let r = sim.report();
        assert!(
            r.dynamic_remaps > 0,
            "worn sub-blocks must be recycled through the SRT/RBT"
        );
        assert!(r.gc_rounds > 0);
    }

    #[test]
    fn conventional_architecture_only_retires() {
        let sim = run(aged_config(Architecture::Baseline), 60);
        let r = sim.report();
        assert_eq!(r.dynamic_remaps, 0, "no SRT hardware on the baseline");
        assert!(
            r.bad_superblocks > 0,
            "accelerated wear must kill superblocks on the baseline"
        );
        assert_eq!(
            sim.ftl().retired_superblocks().len(),
            r.bad_superblocks as usize
        );
    }

    #[test]
    fn recycling_loses_fewer_superblocks_than_retiring() {
        let base = run(aged_config(Architecture::Baseline), 60);
        let fnoc = run(aged_config(Architecture::DssdFnoc), 60);
        // Same wear distribution and comparable GC volume: the decoupled
        // controller keeps superblocks alive that the baseline loses.
        assert!(
            fnoc.report().bad_superblocks < base.report().bad_superblocks,
            "recycled {} vs retired {}",
            fnoc.report().bad_superblocks,
            base.report().bad_superblocks
        );
    }

    #[test]
    fn reservation_prefill_shrinks_visible_pool() {
        let mut cfg = aged_config(Architecture::DssdFnoc);
        if let Some(d) = &mut cfg.dynamic_sb {
            d.reserved_fraction = 0.1;
        }
        // Reservation retires superblocks up front (invisible to the FTL,
        // visible as retired + recycled stock).
        let sim = SsdSim::new(cfg);
        assert!(!sim.ftl().retired_superblocks().is_empty());
    }

    #[test]
    fn copyback_commands_are_tracked_and_retired() {
        let sim = run(
            {
                let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
                c.gc_continuous = true;
                c
            },
            15,
        );
        let mut submitted = 0;
        for ch in 0..sim.config().geometry.channels as usize {
            let q = sim.command_queue(ch);
            submitted += q.submitted();
            // In-flight commands are only those of the currently active
            // round; every finished copy was retired.
            assert_eq!(q.submitted() - q.retired(), q.len() as u64, "channel {ch}");
        }
        assert!(submitted > 100, "copyback commands must flow: {submitted}");
    }
}

#[cfg(test)]
mod end_of_life_tests {
    use super::*;
    use crate::{Architecture, DynamicSbConfig};
    use dssd_workload::AccessPattern;

    /// The paper's headline lifetime claim, validated online: under
    /// identical accelerated wear, the drive with recycled blocks
    /// reaches wear-out end-of-life later than the conventional one.
    #[test]
    fn recycling_extends_online_lifetime() {
        let eol = |arch: Architecture| {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            cfg.dynamic_sb = Some(DynamicSbConfig {
                pe_mean: 5.0,
                pe_sigma: 2.5,
                wear_acceleration: 5,
                ..DynamicSbConfig::default()
            });
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            let r = sim.run_closed_loop(wl, SimSpan::from_ms(250));
            (r.end_of_life, r.io_bw.total_bytes())
        };
        let (base_eol, base_bytes) = eol(Architecture::Baseline);
        let (fnoc_eol, fnoc_bytes) = eol(Architecture::DssdFnoc);
        assert!(base_eol.is_some(), "baseline must wear out in this regime");
        match fnoc_eol {
            None => {} // outlived the whole window: strictly better
            Some(t) => assert!(
                t > base_eol.unwrap(),
                "recycling must delay EOL: {t} vs {}",
                base_eol.unwrap()
            ),
        }
        assert!(
            fnoc_bytes > base_bytes,
            "more host data written before death: {fnoc_bytes} vs {base_bytes}"
        );
    }
}

#[cfg(test)]
mod gc_policy_tests {
    use super::*;
    use crate::Architecture;
    use dssd_ftl::GcPolicy;
    use dssd_workload::AccessPattern;

    fn run_policy(policy: GcPolicy, ms: u64) -> u64 {
        let mut cfg = SsdConfig::test_tiny(Architecture::ExtraBandwidth);
        cfg.gc_continuous = true;
        cfg.prefill_target_free = 12; // plenty of space: never forced
        cfg.ftl.policy = policy;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
        sim.run_closed_loop(wl, SimSpan::from_ms(ms));
        sim.report().gc_pages_copied
    }

    #[test]
    fn preemptive_gc_defers_to_busy_host() {
        // With queue depth 64 the host is never idle and the free pool
        // never reaches the hard threshold, so semi-preemptive GC copies
        // (almost) nothing while parallel GC rips along.
        let parallel = run_policy(GcPolicy::Parallel, 10);
        let preemptive =
            run_policy(GcPolicy::Preemptive { hard_free_superblocks: 1 }, 10);
        assert!(parallel > 1000, "parallel GC must make progress: {parallel}");
        assert!(
            preemptive < parallel / 4,
            "preemptive GC must defer: {preemptive} vs {parallel}"
        );
    }

    #[test]
    fn tinytail_limits_concurrent_gc_channels() {
        // TinyTail's partial GC copies more slowly than full-parallel GC
        // (its whole point: spare the other channels for I/O).
        let parallel = run_policy(GcPolicy::Parallel, 10);
        let tinytail = run_policy(GcPolicy::TinyTail { concurrent_channels: 1 }, 10);
        assert!(
            tinytail < parallel,
            "1-channel GC cannot outrun 8-channel GC: {tinytail} vs {parallel}"
        );
        assert!(tinytail > 0, "TinyTail still makes progress");
    }

    #[test]
    fn forced_preemptive_gc_eventually_runs() {
        // With a tight free pool the hard threshold is hit and preemptive
        // GC runs even against a busy host.
        let mut cfg = SsdConfig::test_tiny(Architecture::ExtraBandwidth);
        cfg.ftl.policy = GcPolicy::Preemptive {
            hard_free_superblocks: cfg.ftl.gc_hard_free,
        };
        cfg.prefill_target_free = cfg.ftl.gc_hard_free + 1;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
        sim.run_closed_loop(wl, SimSpan::from_ms(20));
        assert!(
            sim.report().gc_pages_copied > 500,
            "forced GC must run: {}",
            sim.report().gc_pages_copied
        );
    }
}

#[cfg(test)]
mod write_cache_tests {
    use super::*;
    use crate::Architecture;
    use dssd_workload::AccessPattern;

    fn run_with_cache(cache_pages: Option<usize>, qd: usize) -> SsdSim {
        let mut cfg = SsdConfig::test_tiny(Architecture::Baseline);
        cfg.write_cache_pages = cache_pages;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let before = sim.ftl().stats().host_pages_written;
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8).with_queue_depth(qd);
        sim.run_closed_loop(wl, SimSpan::from_ms(10));
        assert!(
            sim.ftl().stats().host_pages_written > before,
            "flushes must still reach flash"
        );
        sim
    }

    #[test]
    fn cache_absorbs_writes_at_dram_speed() {
        // At moderate queue depth, write-back acknowledges from DRAM
        // while flushing proceeds in the background. (Under saturation
        // the flush traffic re-loads the bus and the benefit disappears —
        // which is why the write buffer helps bursts, not steady floods.)
        let cached = run_with_cache(Some(4096), 4);
        let raw = run_with_cache(None, 4);
        let lc = cached.report().mean_latency().as_us_f64();
        let lr = raw.report().mean_latency().as_us_f64();
        assert!(
            lc < lr / 3.0,
            "write-back latency {lc}us must be far below write-through {lr}us"
        );
    }

    #[test]
    fn cached_reads_hit_recent_writes() {
        // Mixed read/write over a hot working set: reads hit the buffer.
        let mut cfg = SsdConfig::test_tiny(Architecture::Baseline);
        cfg.write_cache_pages = Some(16384);
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.5)
            .with_working_set(8192);
        sim.run_closed_loop(wl, SimSpan::from_ms(5));
        let cache_hits = sim.cache_hits().expect("cache enabled");
        assert!(cache_hits > 0, "hot-set re-reads must hit the buffer");
    }

    #[test]
    fn flush_backlog_survives_space_pressure() {
        // Small cache + heavy writes: flushing competes with GC for
        // space; everything must drain without loss or panic.
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.write_cache_pages = Some(512);
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
        sim.run_closed_loop(wl, SimSpan::from_ms(30));
        assert!(sim.report().gc_rounds > 0, "GC must run under flush pressure");
        assert!(sim.ftl().stats().host_pages_written > 10_000);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::{Architecture, FaultConfig};
    use dssd_workload::AccessPattern;

    fn run_with(
        arch: Architecture,
        faults: FaultConfig,
        reads: bool,
        gc_continuous: bool,
        ms: u64,
    ) -> SsdSim {
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.faults = faults;
        cfg.gc_continuous = gc_continuous;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = if reads {
            SyntheticWorkload::reads(AccessPattern::Random, 4)
        } else {
            SyntheticWorkload::writes(AccessPattern::Random, 4)
        };
        sim.run_closed_loop(wl, SimSpan::from_ms(ms));
        sim
    }

    #[test]
    fn zero_rate_counters_stay_zero() {
        for arch in [Architecture::Baseline, Architecture::DssdFnoc] {
            for reads in [false, true] {
                let sim = run_with(arch, FaultConfig::none(), reads, false, 5);
                assert_eq!(
                    sim.report().faults,
                    crate::FaultCounters::default(),
                    "{}: zero-rate run must not count faults",
                    arch.label()
                );
                assert!(sim.report().requests_completed > 100);
            }
        }
    }

    #[test]
    fn unreachable_fault_class_is_bit_identical_to_no_injector() {
        // The baseline has no fNoC, so with only the NoC rate nonzero the
        // injector is constructed but never consulted on a drawn path —
        // the run must be bit-identical to one without the subsystem.
        let go = |faults: FaultConfig| {
            let sim = run_with(Architecture::Baseline, faults, false, false, 5);
            let r = sim.report();
            (r.requests_completed, r.gc_pages_copied, r.io_bw.total_bytes(), r.faults)
        };
        let mut noc_only = FaultConfig::none();
        noc_only.noc_degrade_prob = 1.0;
        assert_eq!(go(FaultConfig::none()), go(noc_only));
    }

    #[test]
    fn transient_read_faults_retry_and_mostly_recover() {
        let mut f = FaultConfig::none();
        f.read_transient_prob = 0.2;
        let sim = run_with(Architecture::DssdFnoc, f, true, false, 5);
        let c = sim.report().faults;
        assert!(c.read_retries > 0, "transient faults must trigger retries");
        assert!(c.reads_recovered > 0, "most retries must recover");
        assert!(c.retry_latency > SimSpan::ZERO);
        assert!(
            c.reads_recovered + c.uncorrectable_reads > 0
                && c.reads_recovered > c.uncorrectable_reads,
            "recovered {} vs uncorrectable {}",
            c.reads_recovered,
            c.uncorrectable_reads
        );
        assert!(sim.report().requests_completed > 100, "I/O must keep flowing");
    }

    #[test]
    fn hard_read_faults_retire_blocks_online() {
        let mut f = FaultConfig::none();
        f.read_hard_prob = 0.002;
        let sim = run_with(Architecture::DssdFnoc, f, true, false, 10);
        let r = sim.report();
        let c = r.faults;
        assert!(c.uncorrectable_reads > 0, "hard faults must exhaust retries");
        assert!(c.blocks_retired > 0, "failing blocks must be retired");
        // Every declared-uncorrectable read burned the whole budget (legs
        // still mid-retry at the horizon can push the count higher).
        assert!(
            c.read_retries
                >= c.uncorrectable_reads * u64::from(sim.config().faults.max_read_retries),
            "retries {} for {} uncorrectable reads",
            c.read_retries,
            c.uncorrectable_reads
        );
        assert!(c.requests_failed > 0 && c.requests_failed <= c.uncorrectable_reads);
        // The first failure finds an empty RBT and retires the whole
        // superblock; its healthy sub-blocks then stock the bins, so
        // later failures remap silently.
        assert!(
            c.superblocks_retired > 0 && r.dynamic_remaps > 0,
            "retired {} remaps {}",
            c.superblocks_retired,
            r.dynamic_remaps
        );
        assert_eq!(r.bad_superblocks as u64, c.superblocks_retired);
        assert_eq!(
            sim.ftl().retired_superblocks().len() as u64,
            c.superblocks_retired
        );
    }

    #[test]
    fn conventional_architecture_retires_instead_of_remapping() {
        let mut f = FaultConfig::none();
        f.read_hard_prob = 0.002;
        // Baseline GC shares the system bus with host reads, so the
        // relocation round of the first retirement needs a longer window.
        let sim = run_with(Architecture::Baseline, f, true, false, 25);
        let r = sim.report();
        assert_eq!(r.dynamic_remaps, 0, "no SRT hardware on the baseline");
        assert!(r.faults.superblocks_retired > 0);
        assert_eq!(
            sim.ftl().retired_superblocks().len() as u64,
            r.faults.superblocks_retired
        );
    }

    #[test]
    fn program_failures_reallocate_and_complete() {
        let mut f = FaultConfig::none();
        f.program_fail_prob = 0.01;
        let sim = run_with(Architecture::DssdFnoc, f, false, false, 5);
        let c = sim.report().faults;
        assert!(c.program_failures > 0, "program faults must fire");
        assert!(c.blocks_retired > 0, "failed programs must retire blocks");
        assert!(sim.report().requests_completed > 100, "writes must complete");
        // With a 3-attempt budget and a 1% rate, surfacing a failure to
        // the host (p^3) should be rare to absent.
        assert!(c.requests_failed <= c.program_failures / 10);
    }

    #[test]
    fn erase_failures_kill_blocks_at_gc_time() {
        let mut f = FaultConfig::none();
        f.erase_fail_prob = 0.05;
        let sim = run_with(Architecture::DssdFnoc, f, false, true, 20);
        let r = sim.report();
        assert!(r.gc_rounds > 0, "GC must run");
        assert!(r.faults.erase_failures > 0, "erase faults must fire at GC");
        assert!(r.faults.blocks_retired >= r.faults.erase_failures);
        assert!(r.dynamic_remaps > 0, "erase-failed blocks are remapped");
    }

    #[test]
    fn noc_degradation_delays_but_does_not_lose_packets() {
        let mut f = FaultConfig::none();
        f.noc_degrade_prob = 0.05;
        let sim = run_with(Architecture::DssdFnoc, f, false, true, 15);
        let r = sim.report();
        assert!(r.faults.noc_faults > 0, "link degradations must fire");
        assert!(r.gc_pages_copied > 0, "GC must still make progress");
        assert!(
            r.gc_rounds > 0,
            "rounds must close: every delayed packet is re-injected"
        );
    }

    #[test]
    fn fault_counters_are_deterministic_per_seed() {
        let go = || {
            let mut f = FaultConfig::none();
            f.read_transient_prob = 0.1;
            f.read_hard_prob = 0.001;
            f.program_fail_prob = 0.005;
            f.erase_fail_prob = 0.02;
            f.noc_degrade_prob = 0.02;
            let sim = run_with(Architecture::DssdFnoc, f, false, true, 10);
            let r = sim.report();
            (r.faults, r.requests_completed, r.gc_pages_copied, r.io_bw.total_bytes())
        };
        assert_eq!(go(), go());
    }
}
