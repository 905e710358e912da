//! The event-driven SSD world.
//!
//! One flat struct owns every component; one event enum drives every
//! pipeline. Resources (buses, DRAM, dies, ECC) are passive analytic
//! servers from `dssd-kernel`, so each pipeline stage computes its own
//! completion time and schedules exactly one event for the next stage.

use std::collections::{BTreeMap, VecDeque};

use dssd_ctrl::{CommandId, CommandKind, CommandQueue, DecoupledController, EccVerdict};
use dssd_flash::{DieGrid, EraseOutcome, FlashOp, FlashOpKind, PageAddr, WearModel};
use dssd_ftl::{AllocGroup, CopyGroup, Ftl, GcRound, Lpn, MetaStats, META_NO_TICKET};
use dssd_kernel::{
    BandwidthServer, EventKey, EventQueue, Rng, SimSpan, SimTime, Slab, SlabKey, ARRIVAL_RANK,
};
use dssd_noc::{Network, NocEvent, Packet};
use dssd_telemetry::{Class, EpochSeries, Stage, TraceConfig, Tracer, Track};
use dssd_workload::{Op, Request, SyntheticWorkload};

use crate::cache::WriteCache;
use crate::faults::{FaultInjector, ReadFault};
use crate::metrics::{RunReport, StageKind};
use crate::{Architecture, SsdConfig};

/// Traffic class for host I/O on the shared servers.
const CLASS_IO: usize = 0;
/// Traffic class for GC / copyback traffic.
const CLASS_GC: usize = 1;
/// Traffic class for WAS endurance-scan traffic.
const CLASS_SCAN: usize = 2;
/// Traffic class for FTL metadata traffic (mapping-journal flushes and
/// L2P checkpoints) when the durability model is enabled.
const CLASS_META: usize = 3;

/// Maximum GC copy groups in flight per source channel. PaGC executes
/// GC in parallel across all flash (its copy bursts are what interfere
/// with I/O), so the cap is high; the real throttle is resource
/// contention, not the issue rate.
const GC_PER_CHANNEL_INFLIGHT: usize = 16;
/// Maximum concurrent WAS scan reads.
const SCAN_INFLIGHT: usize = 128;

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
struct ReqState {
    op: Op,
    arrived: SimTime,
    /// Start-order index, reported in [`Completion`]s.
    tag: u64,
    pages_left: u32,
    total_pages: u32,
    spans: Vec<(StageKind, SimSpan)>,
    /// The request completed but lost data (read retries or program
    /// attempts exhausted) — surfaced to the host as a failure.
    failed: bool,
    /// Durability-model tickets of this request's write groups; redeemed
    /// (ack or discard) when the request completes. Empty when the model
    /// is disabled.
    tickets: Vec<u32>,
}

#[derive(Debug, Clone)]
struct CopyJob {
    /// `(lpn, src, dst)` triples; all sources on one die/row, all
    /// destinations on one die/row.
    pages: Vec<(Lpn, PageAddr, PageAddr)>,
    src: PageAddr,
    dst: PageAddr,
    spans: Vec<(StageKind, SimSpan)>,
    /// Outstanding fNoC packets for this job.
    packets_in_flight: u32,
    /// Whether a source-side dBUF reservation is held.
    holds_src_dbuf: bool,
    /// The copyback command tracking this job in the source controller's
    /// command queue.
    cmd: CommandId,
}

#[derive(Debug, Clone)]
struct GcState {
    round: GcRound,
    pending: VecDeque<CopyGroup>,
    copies_done: usize,
    copies_expected: usize,
    erases_outstanding: usize,
    /// In-flight copy jobs per source channel, indexed by channel number.
    /// A flat `Vec` (not a hash map) so scheduling never observes
    /// iteration-order effects.
    channel_inflight: Vec<usize>,
    /// A retirement round: on completion the victim superblock is
    /// permanently retired instead of recycled into the free pool.
    retiring: bool,
}

/// One host read group in flight: enough context for the ECC stage to
/// classify the decode and for read-retries to re-sense the same die.
#[derive(Debug, Clone, Copy)]
struct ReadLeg {
    req: ReqId,
    pages: u32,
    /// Effective (post-SRT-remap) channel, for bus and ECC routing.
    channel: u32,
    /// Effective die index, for retry re-senses.
    die: usize,
    /// Representative logical address of the group (pre-remap, so fault
    /// bookkeeping resolves through the SRT like every other path).
    addr: PageAddr,
    /// 0 on the first sense; incremented per read-retry.
    attempt: u32,
    /// Hard failure (injected media fault or worn-out block): retries
    /// cannot recover it.
    hard: bool,
}

/// One host write group in flight, with enough context to re-allocate
/// and re-issue it if the program fails.
#[derive(Debug, Clone)]
struct WriteLeg {
    req: ReqId,
    die: usize,
    pages: u32,
    /// Effective (post-SRT-remap) channel, for flash-bus routing.
    channel: u32,
    /// The group's logical first address (pre-remap).
    addr: PageAddr,
    /// The group's LPNs, carried only when fault injection is enabled (a
    /// failed program re-allocates them through `Ftl::write_pages`).
    lpns: Option<Vec<Lpn>>,
    /// 1 on the first program; incremented per re-allocation.
    attempt: u32,
    /// Durability-model ticket for this group
    /// ([`dssd_ftl::META_NO_TICKET`] when the model is disabled).
    ticket: u32,
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
    /// Host write group programmed.
    WriteDone { req: ReqId, pages: u32 },
    /// Host read group: die read finished.
    ReadAtBus { leg: Box<ReadLeg> },
    /// Host read group: flash bus transfer finished.
    ReadAtEcc { leg: Box<ReadLeg> },
    /// Host read group: ECC finished.
    ReadAtSysbus { req: ReqId, pages: u32 },
    /// Host read group: system-bus crossing finished.
    ReadDone { req: ReqId, pages: u32 },
    /// DRAM-hit request: system-bus crossing finished.
    DramHitAtDram { req: ReqId, pages: u32 },
    /// DRAM-hit request: DRAM access finished.
    DramHitDone { req: ReqId, pages: u32 },
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

/// Dense timing-level SRT remap table: one slot per `(superblock,
/// stripe-die)` pair, so the per-access lookup in `effective_addr` is a
/// single indexed load instead of a hash probe. The replacement
/// `(channel, way, die)` packs into a `u32`; `u32::MAX` marks identity.
#[derive(Debug, Clone)]
struct RemapTable {
    table: Vec<u32>,
    stripe_dies: u32,
    len: usize,
}

const REMAP_NONE: u32 = u32::MAX;

impl RemapTable {
    fn new(blocks: u32, stripe_dies: u32) -> Self {
        RemapTable {
            table: vec![REMAP_NONE; blocks as usize * stripe_dies as usize],
            stripe_dies,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts (or overwrites) the remap for `(block, die_idx)` —
    /// overwrites do not grow `len`, matching map-insert semantics.
    fn insert(&mut self, block: u32, die_idx: u32, ch: u32, way: u32, die: u32) {
        let slot = &mut self.table[(block * self.stripe_dies + die_idx) as usize];
        if *slot == REMAP_NONE {
            self.len += 1;
        }
        *slot = ch | (way << 10) | (die << 20);
    }

    fn get(&self, block: u32, die_idx: u32) -> Option<(u32, u32, u32)> {
        let packed = self.table[(block * self.stripe_dies + die_idx) as usize];
        if packed == REMAP_NONE {
            return None;
        }
        Some((packed & 0x3FF, (packed >> 10) & 0x3FF, packed >> 20))
    }
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
    blocked_writes: VecDeque<(ReqId, Request)>,
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

/// Stderr heartbeat state for [`SsdSim::set_progress`]: reports sim-time,
/// events processed and the recent events/sec rate about once per second
/// of wall time. Checking the wall clock is itself throttled so the hot
/// loop only pays an increment-and-compare per event.
#[derive(Debug)]
struct ProgressMeter {
    last: std::time::Instant,
    last_events: u64,
    ticks: u32,
}

impl ProgressMeter {
    /// Events between wall-clock checks.
    const CHECK_EVERY: u32 = 1 << 16;

    fn new() -> Self {
        ProgressMeter { last: std::time::Instant::now(), last_events: 0, ticks: 0 }
    }

    fn tick(&mut self, sim_now: SimTime, events: impl FnOnce() -> u64) {
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
        let rng = Rng::new(config.seed);
        let geo = config.geometry;
        let channels = geo.channels as usize;
        let ftl = Ftl::new(geo, config.ftl);
        let dies = DieGrid::new(&geo);
        let flash_bus = (0..channels)
            .map(|_| BandwidthServer::new(config.flash_bus_bytes_per_sec, SimSpan::ZERO))
            .collect();
        let sysbus =
            BandwidthServer::new(config.system_bus_bytes_per_sec(), config.bus_overhead);
        let dram = BandwidthServer::new(config.dram_bytes_per_sec, config.bus_overhead);
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
        let dbuf_waiters = (0..channels).map(|_| VecDeque::new()).collect();

        // Fig 15a: inject `srt_active_remaps` timing-level sub-block
        // remappings. Accesses to a remapped (superblock, stripe-die)
        // occupy the *replacement* die/channel, losing striping
        // parallelism exactly as a recycled block on the "wrong" channel
        // would. Mapping-table state is untouched (the SRT is invisible
        // to the FTL).
        let stripe_dies = geo.total_dies() as u32;
        let mut remap = RemapTable::new(geo.blocks, stripe_dies);
        // Remaps draw from their own stream so enabling them does not
        // perturb the workload/prefill randomness of the comparison run.
        let mut remap_rng = Rng::new(config.seed ^ 0x5247_5431);
        while remap.len() < config.srt_active_remaps {
            let sb = remap_rng.range_u64(0..geo.blocks as u64) as u32;
            let die_idx = remap_rng.range_u64(0..stripe_dies as u64) as u32;
            let target = remap_rng.range_u64(0..stripe_dies as u64) as u32;
            let t_ch = target % geo.channels;
            let t_way = (target / geo.channels) % geo.ways;
            let t_die = target / (geo.channels * geo.ways);
            remap.insert(sb, die_idx, t_ch, t_way, t_die);
        }

        // The decoupled controllers (C_D): command queue, integrated ECC,
        // dBUF, and the dynamic-superblock hardware tables.
        let srt_entries = config.dynamic_sb.map_or(1024, |d| d.srt_entries);
        let mut controllers: Vec<DecoupledController> = (0..channels)
            .map(|_| {
                DecoupledController::new(config.ecc, config.dbuf_pages, srt_entries, 1 << 20)
            })
            .collect();

        // Online dynamic-superblock state (Sec 5): per-block wear with
        // Gaussian P/E limits, and optionally a reserved pool carved out
        // of the highest-numbered superblocks to pre-fill the RBTs.
        let mut ftl = ftl;
        let wear = match config.dynamic_sb {
            Some(d) => {
                let mut wrng = Rng::new(config.seed ^ 0x3EA2);
                let wear = WearModel::with_block_count(
                    geo.total_blocks() as usize,
                    d.pe_mean,
                    d.pe_sigma,
                    &mut wrng,
                );
                if d.reserved_fraction > 0.0 {
                    let n = ((geo.blocks as f64 * d.reserved_fraction).round() as u32)
                        .min(geo.blocks / 4);
                    for sb in geo.blocks - n..geo.blocks {
                        if ftl.retire_superblock(sb) {
                            for b in ftl.layout().sub_blocks(sb) {
                                let _ = controllers[b.channel as usize]
                                    .rbt_mut()
                                    .deposit(geo.block_index(b) as u32);
                            }
                        }
                    }
                }
                Some(wear)
            }
            None => None,
        };

        // Fault injection needs per-block wear state (forced wear-out,
        // per-block RBER) even when dynamic-superblock management is off.
        let injector =
            config.faults.enabled().then(|| FaultInjector::new(config.faults, config.seed));
        let wear = wear.or_else(|| {
            injector.as_ref().map(|_| {
                let d = crate::DynamicSbConfig::default();
                let mut wrng = Rng::new(config.seed ^ 0x3EA2);
                WearModel::with_block_count(
                    geo.total_blocks() as usize,
                    d.pe_mean,
                    d.pe_sigma,
                    &mut wrng,
                )
            })
        });

        // FTL metadata durability model (per-page OOB + mapping journal
        // + L2P checkpoints), charged as real flash traffic.
        if let Some(d) = config.durability {
            ftl.enable_meta(dssd_ftl::MetaConfig {
                journal_entries_per_page: d.journal_entries_per_page,
                checkpoint_interval_pages: d.checkpoint_interval_pages,
                page_bytes: geo.page_bytes,
            });
        }

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
        let power_at_event = (pl.at_event > 0).then_some(pl.at_event);

        SsdSim {
            rng,
            ftl,
            dies,
            flash_bus,
            controllers,
            sysbus,
            dram,
            dedicated_bus,
            noc,
            dbuf_waiters,
            cache: config.write_cache_pages.map(WriteCache::new),
            flush_backlog: VecDeque::new(),
            remap,
            wear,
            queue: EventQueue::new(),
            requests: Slab::new(),
            jobs: Slab::new(),
            packet_jobs: Slab::new(),
            noc_step: dssd_noc::Step::default(),
            noc_lane_pops: 0,
            blocked_writes: VecDeque::new(),
            blocked_rewrites: VecDeque::new(),
            pending_retire: VecDeque::new(),
            injector,
            outstanding: 0,
            workload: None,
            gc: None,
            scan_remaining: 0,
            scan_inflight: 0,
            parity_pending_pages: 0,
            report: RunReport::new(SimSpan::from_ms(1)),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            config,
            prefilled: false,
            tracer: Tracer::disabled(),
            epoch: None,
            progress: false,
            events_handled: 0,
            power_at,
            power_at_event,
            halted: false,
            next_tag: 0,
            completions: None,
        }
    }

    /// Enables the stderr progress heartbeat (sim-time, events processed,
    /// events/sec, about once per wall-clock second). Observational only:
    /// it writes nothing to stdout and cannot perturb the simulation.
    pub fn set_progress(&mut self, on: bool) {
        self.progress = on;
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

    /// Digest of the fault-injection stream position, or `None` when
    /// fault injection is disabled. Useful for asserting that the fault
    /// stream survives snapshot/restore bit-identically.
    #[must_use]
    pub fn fault_stream_digest(&self) -> Option<u64> {
        self.injector.as_ref().map(FaultInjector::stream_digest)
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
        let bound = workload.bind_check(self.ftl.lpn_count());
        self.workload = Some(bound);
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

    fn arm_scan(&mut self) {
        if let Some(was) = self.config.was_scan {
            self.queue.push(SimTime::ZERO + was.interval, Ev::ScanTick);
        }
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

    /// Read hits observed by the DRAM write-buffer cache, if enabled.
    #[must_use]
    pub fn cache_hits(&self) -> Option<u64> {
        self.cache.as_ref().map(WriteCache::hits)
    }

    /// The embedded fNoC, when this architecture has one. Read-only:
    /// for stats and diagnostics (e.g. [`Network::express_diag`]).
    #[must_use]
    pub fn noc(&self) -> Option<&Network> {
        self.noc.as_deref()
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
    // Telemetry
    // ------------------------------------------------------------------

    /// Enables span tracing (and epoch sampling when `cfg.epoch` is set).
    /// Call before running. The tracer is strictly observational — it
    /// never schedules events or draws random numbers — so enabling it
    /// leaves the [`RunReport`] bit-identical to an untraced run.
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

    /// Enables (or disables) the completion log drained by
    /// [`SsdSim::take_completions`]. Observational only: the log never
    /// schedules events or draws random numbers.
    pub fn set_completion_log(&mut self, on: bool) {
        self.completions = on.then(Vec::new);
    }

    /// Drains completions recorded since the last drain. Empty unless
    /// [`SsdSim::set_completion_log`] enabled the log.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        match self.completions.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// The collected epoch time-series, if epoch sampling is enabled.
    #[must_use]
    pub fn epoch_series(&self) -> Option<&EpochSeries> {
        self.epoch.as_ref().map(|e| &e.series)
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

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Admit => self.admit_closed_loop(),
            Ev::Arrive(r) => {
                self.start_request(r);
                self.check_gc();
            }
            Ev::WriteAtCtrl { leg } => {
                let bytes = self.page_bytes(leg.pages);
                let t =
                    self.flash_bus[leg.channel as usize].enqueue(self.now, bytes, CLASS_IO);
                let track = Track::ChannelBus(leg.channel as u16);
                self.req_span(leg.req, StageKind::FlashBus, track, t.done - self.now);
                self.queue.push(t.done, Ev::WriteAtDie { leg });
            }
            Ev::WriteAtDie { leg } => self.write_at_die(*leg),
            Ev::WriteDone { req, pages } | Ev::ReadDone { req, pages } => {
                self.finish_pages(req, pages);
            }
            Ev::ReadAtBus { leg } => {
                let bytes = self.page_bytes(leg.pages);
                let t =
                    self.flash_bus[leg.channel as usize].enqueue(self.now, bytes, CLASS_IO);
                let track = Track::ChannelBus(leg.channel as u16);
                self.req_span(leg.req, StageKind::FlashBus, track, t.done - self.now);
                self.queue.push(t.done, Ev::ReadAtEcc { leg });
            }
            Ev::ReadAtEcc { leg } => self.read_at_ecc(*leg),
            Ev::ReadAtSysbus { req, pages } => {
                let bytes = self.page_bytes(pages);
                let t = self.sysbus_xfer(bytes, CLASS_IO);
                self.req_span(req, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
                self.queue.push(t.1, Ev::ReadDone { req, pages });
            }
            Ev::DramHitAtDram { req, pages } => {
                let bytes = self.page_bytes(pages);
                let t = self.dram.enqueue(self.now, bytes, CLASS_IO);
                self.req_span(req, StageKind::Dram, Track::Dram, t.done - self.now);
                self.queue.push(t.done, Ev::DramHitDone { req, pages });
            }
            Ev::DramHitDone { req, pages } => self.finish_pages(req, pages),
            Ev::CopyAtSrcBus { job } => {
                self.cmd_advance_to(job, dssd_ctrl::CopybackStage::ReadDone);
                let (bytes, ch) = self.job_src(job);
                // dSSD_f: the pages move from the die's page register
                // into the dBUF; without free slots the transfer waits
                // (back-pressure, resumed when a slot frees).
                if self.config.architecture == Architecture::DssdFnoc {
                    let j = &self.jobs[job];
                    if !j.holds_src_dbuf {
                        let n = j.pages.len();
                        if self.controllers[ch].dbuf().available() < n {
                            self.dbuf_waiters[ch].push_back(job);
                            return;
                        }
                        for _ in 0..n {
                            assert!(self.controllers[ch].dbuf_mut().try_reserve());
                        }
                        self.jobs[job].holds_src_dbuf = true;
                    }
                }
                let t = self.flash_bus[ch].enqueue(self.now, bytes, CLASS_GC);
                let track = Track::ChannelBus(ch as u16);
                self.job_span(job, StageKind::FlashBus, track, t.done - self.now);
                self.queue.push(t.done, Ev::CopyAtEcc { job });
            }
            Ev::CopyAtEcc { job } => {
                let (bytes, ch) = self.job_src(job);
                let t = self.controllers[ch].ecc_mut().decode_as(self.now, bytes, CLASS_GC);
                let track = Track::ChannelEcc(ch as u16);
                self.job_span(job, StageKind::Ecc, track, t.done - self.now);
                self.queue.push(t.done, Ev::CopyTransport { job });
            }
            Ev::CopyTransport { job } => {
                self.cmd_advance_to(job, dssd_ctrl::CopybackStage::EccDone);
                self.copy_transport(job);
            }
            Ev::CopyAtDram { job } => {
                let n = self.jobs[job].pages.len() as u32;
                let t = self.dram_xfer_pages(n, CLASS_GC);
                self.job_span(job, StageKind::Dram, Track::Dram, t.1 - self.now);
                self.queue.push(t.1, Ev::CopyFromDram { job });
            }
            Ev::CopyFromDram { job } => {
                let n = self.jobs[job].pages.len() as u32;
                let t = self.sysbus_xfer_pages(n, CLASS_GC);
                self.job_span(job, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
                self.queue.push(t.1, Ev::CopyAtDstBus { job });
            }
            Ev::CopyAtDstBus { job } => {
                let (bytes, ch) = self.job_dst(job);
                let t = self.flash_bus[ch].enqueue(self.now, bytes, CLASS_GC);
                let track = Track::ChannelBus(ch as u16);
                self.job_span(job, StageKind::FlashBus, track, t.done - self.now);
                self.queue.push(t.done, Ev::CopyAtDstDie { job });
            }
            Ev::CopyAtDstDie { job } => {
                self.cmd_advance_to(job, dssd_ctrl::CopybackStage::WriteIssued);
                // The data now sits in the destination die's page
                // register: same-channel copies can free their dBUF slots
                // here rather than waiting out the program.
                self.release_src_dbuf(job);
                let j = &self.jobs[job];
                let pages = j.pages.len() as u32;
                let dst = j.dst;
                let die = self.effective_die_index(dst);
                let lat = FlashOp::multi_plane(FlashOpKind::Program, dst, pages)
                    .array_latency(&self.config.timing, &mut self.rng);
                let (_, done) = self.dies.occupy(die, self.now, lat);
                let track = Track::Die(die as u32);
                self.job_span(job, StageKind::FlashChip, track, done - self.now);
                self.queue.push(done, Ev::CopyDone { job });
            }
            Ev::CopyDone { job } => self.copy_done(job),
            Ev::EraseDone => self.erase_done(),
            Ev::Noc(ev) => self.noc_event(ev),
            Ev::NocRetry { pkt } => {
                let mut step = std::mem::take(&mut self.noc_step);
                self.noc.as_deref_mut().expect("NoC retry without NoC").inject_into(
                    self.now,
                    *pkt,
                    &mut step,
                    self.queue.orders(),
                );
                self.absorb_noc(&mut step);
                self.noc_step = step;
            }
            Ev::ScanTick => self.scan_tick(),
            Ev::ScanReadDone => {
                self.scan_inflight -= 1;
                self.pump_scan();
            }
        }
    }

    // ------------------------------------------------------------------
    // Host side
    // ------------------------------------------------------------------

    fn admit_closed_loop(&mut self) {
        let Some(mut wl) = self.workload.take() else { return };
        let qd = wl.queue_depth();
        while self.outstanding < qd && self.now <= self.horizon {
            let r = wl.next_request(&mut self.rng);
            self.start_request(r);
        }
        self.workload = Some(wl);
        self.check_gc();
        self.pump_gc();
    }

    fn start_request(&mut self, r: Request) {
        self.outstanding += 1;
        let tag = self.next_tag;
        self.next_tag += 1;
        let id = self.requests.insert(ReqState {
            op: r.op,
            arrived: self.now,
            tag,
            pages_left: r.pages,
            total_pages: r.pages,
            spans: Vec::new(),
            failed: false,
            tickets: Vec::new(),
        });
        let name = match r.op {
            Op::Read => "read",
            Op::Write => "write",
        };
        self.tracer.begin(Class::Io, id.to_bits(), name, self.now);
        if r.dram_hit {
            let bytes = self.page_bytes(r.pages);
            let t = self.sysbus_xfer(bytes, CLASS_IO);
            self.req_span(id, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
            self.queue.push(t.1, Ev::DramHitAtDram { req: id, pages: r.pages });
            return;
        }
        match r.op {
            Op::Write => self.start_write(id, r),
            Op::Read => self.start_read(id, r),
        }
    }

    fn start_write(&mut self, id: ReqId, r: Request) {
        if self.cache.is_some() {
            // Write-back buffering: the write is acknowledged from DRAM;
            // dirty pages flush to flash in the background.
            let lpns: Vec<Lpn> = r.lpns().map(|l| l % self.ftl.lpn_count()).collect();
            let cache = self.cache.as_mut().unwrap();
            for lpn in lpns {
                cache.write(lpn);
            }
            let bytes = self.page_bytes(r.pages);
            let t = self.sysbus_xfer(bytes, CLASS_IO);
            self.req_span(id, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
            self.queue.push(t.1, Ev::DramHitAtDram { req: id, pages: r.pages });
            self.pump_flush();
            return;
        }
        let lpns: Vec<Lpn> = r.lpns().map(|l| l % self.ftl.lpn_count()).collect();
        match self.ftl.write_pages(&lpns) {
            Some(groups) => {
                let tickets = self.ftl.meta_drain_tickets();
                self.issue_write_groups(id, &groups, &lpns, &tickets, 1);
            }
            None => {
                // Out of space: the request stalls until GC frees a
                // superblock — this is where baseline tail latency
                // explodes.
                self.blocked_writes.push_back((id, r));
                self.check_gc();
                return;
            }
        }
        self.charge_parity(r.pages);
    }

    /// TinyTail maintains RAIN parity so reads can bypass GC-blocked
    /// chips: every stripe of data pages costs one extra parity-page
    /// write through the normal bus + flash path (the paper's "cost:
    /// FTL, parity pages for RAIN"). The parity write occupies resources
    /// but nothing waits on it, so it is charged analytically.
    fn charge_parity(&mut self, pages: u32) {
        if !matches!(self.config.ftl.policy, dssd_ftl::GcPolicy::TinyTail { .. }) {
            return;
        }
        self.parity_pending_pages += pages;
        let stripe = self.config.geometry.planes.max(1);
        while self.parity_pending_pages >= stripe {
            self.parity_pending_pages -= stripe;
            let page = self.config.geometry.page_bytes as u64;
            let (_, bus_done) = self.sysbus_xfer(page, CLASS_IO);
            let die = self.rng.index(self.dies.len());
            let ch = self.config.geometry.die_at(die).channel as usize;
            let t = self.flash_bus[ch].enqueue(bus_done, page, CLASS_IO);
            let lat = self.config.timing.sample_program(&mut self.rng);
            self.dies.occupy(die, t.done, lat);
        }
    }

    fn start_read(&mut self, id: ReqId, r: Request) {
        // Group the request's pages by (die, page row) to exploit
        // multi-plane reads where the FTL laid pages out that way.
        // Ordered map: the fault injector draws per group, so iteration
        // order must be deterministic.
        let mut groups: BTreeMap<(usize, u32, u32), (u32, PageAddr)> = BTreeMap::new();
        let mut unmapped = 0u32;
        let mut cached = 0u32;
        for lpn in r.lpns() {
            let lpn = lpn % self.ftl.lpn_count();
            if self.cache.as_mut().is_some_and(|c| c.read(lpn)) {
                cached += 1;
                continue;
            }
            match self.ftl.translate(lpn) {
                Some(raw) => {
                    let addr = self.effective_addr(raw);
                    let die = self.effective_die_index_raw(addr);
                    let e =
                        groups.entry((die, addr.page, addr.channel)).or_insert((0, raw));
                    e.0 += 1;
                }
                None => unmapped += 1,
            }
        }
        if cached > 0 {
            // Write-buffer hits are served from DRAM.
            let bytes = self.page_bytes(cached);
            let t = self.sysbus_xfer(bytes, CLASS_IO);
            self.req_span(id, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
            self.queue.push(t.1, Ev::DramHitAtDram { req: id, pages: cached });
        }
        if unmapped > 0 {
            // Never-written pages are served from the controller (real
            // drives return zeroes without touching flash): charge the
            // system-bus crossing only.
            let bytes = self.page_bytes(unmapped);
            let t = self.sysbus_xfer(bytes, CLASS_IO);
            self.req_span(id, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
            self.queue.push(t.1, Ev::ReadDone { req: id, pages: unmapped });
        }
        for ((die, _row, channel), (pages, raw)) in groups {
            // TinyTail: a read whose chip is busy with (partial) GC is
            // served by RAIN reconstruction — the k-1 stripe peers are
            // read from the other channels and XORed at the front end,
            // a (k-1)x read amplification that is the scheme's price for
            // never blocking behind GC.
            if matches!(self.config.ftl.policy, dssd_ftl::GcPolicy::TinyTail { .. })
                && self
                    .gc
                    .as_ref()
                    .is_some_and(|g| g.channel_inflight[channel as usize] > 0)
            {
                self.reconstruct_read(id, pages, channel);
                continue;
            }
            let lat = FlashOp::multi_plane(
                FlashOpKind::Read,
                PageAddr { channel, way: 0, die: 0, plane: 0, block: 0, page: 0 },
                pages,
            )
            .array_latency(&self.config.timing, &mut self.rng);
            let (_, done) = self.dies.occupy(die, self.now, lat);
            self.req_span(id, StageKind::FlashChip, Track::Die(die as u32), done - self.now);
            self.queue.push(
                done,
                Ev::ReadAtBus {
                    leg: Box::new(ReadLeg {
                        req: id,
                        pages,
                        channel,
                        die,
                        addr: raw,
                        attempt: 0,
                        hard: false,
                    }),
                },
            );
        }
    }

    /// RAIN read reconstruction: read the stripe fragments from every
    /// other channel, move them to the front end, and complete the read
    /// once the slowest fragment has arrived and been XORed.
    fn reconstruct_read(&mut self, id: ReqId, pages: u32, blocked_channel: u32) {
        let geo = self.config.geometry;
        let bytes = self.page_bytes(pages);
        let mut latest = self.now;
        let mut chip_span = SimSpan::ZERO;
        let mut bus_span = SimSpan::ZERO;
        for c in 0..geo.channels {
            if c == blocked_channel {
                continue;
            }
            // One fragment read per peer channel, on one of its dies.
            let local = self.rng.range_u64(0..(geo.ways * geo.dies) as u64) as u32;
            let die = geo.die_index(dssd_flash::DieAddr {
                channel: c,
                way: local % geo.ways,
                die: local / geo.ways,
            });
            let lat = FlashOp::multi_plane(
                FlashOpKind::Read,
                PageAddr { channel: c, way: 0, die: 0, plane: 0, block: 0, page: 0 },
                pages,
            )
            .array_latency(&self.config.timing, &mut self.rng);
            let (_, die_done) = self.dies.occupy(die, self.now, lat);
            chip_span = chip_span.max(die_done - self.now);
            let t = self.flash_bus[c as usize].enqueue(die_done, bytes, CLASS_IO);
            bus_span = bus_span.max(t.done - self.now);
            latest = latest.max(t.done);
        }
        // Reconstruction aggregates max-of-peers times, so its slices
        // render on the front-end (system bus) lane rather than a single
        // die/channel lane; the per-stage attribution is unchanged.
        let now = self.now;
        self.req_span_at(id, StageKind::FlashChip, Track::SysBus, now, chip_span);
        self.req_span_at(
            id,
            StageKind::FlashBus,
            Track::SysBus,
            now + chip_span,
            bus_span.saturating_sub(chip_span),
        );
        // All fragments cross the system bus to be XORed at the front end.
        let frag_bytes = bytes * (geo.channels as u64 - 1);
        let t = self.sysbus.enqueue(latest, frag_bytes, CLASS_IO);
        self.report.sysbus_io_util.record_busy(t.start, t.done);
        self.req_span_at(id, StageKind::SystemBus, Track::SysBus, latest, t.done - latest);
        self.queue.push(t.done, Ev::ReadDone { req: id, pages });
    }

    fn finish_pages(&mut self, req: ReqId, pages: u32) {
        let done = {
            let state = self.requests.get_mut(req).expect("unknown request");
            state.pages_left -= pages;
            state.pages_left == 0
        };
        if !done {
            return;
        }
        let state = self.requests.remove(req).unwrap();
        self.outstanding -= 1;
        // Redeem the durability tickets: a successful completion is the
        // host acknowledgement (the recovery oracle's ground truth); a
        // failed one guarantees nothing and is discarded.
        for &ticket in &state.tickets {
            if state.failed {
                self.ftl.meta_discard(ticket);
            } else {
                self.ftl.meta_ack(ticket);
            }
        }
        if state.failed {
            self.report.faults.requests_failed += 1;
        }
        if self.tracer.is_enabled() {
            let name = match state.op {
                Op::Read => "read",
                Op::Write => "write",
            };
            let totals = Self::stage_totals(&state.spans);
            self.tracer
                .end(Class::Io, req.to_bits(), name, self.now, state.failed, &totals);
        }
        let latency = self.now - state.arrived;
        self.report.io_latency.record(latency);
        match state.op {
            Op::Read => self.report.read_latency.record(latency),
            Op::Write => self.report.write_latency.record(latency),
        }
        self.report.io_bw.record(self.now, self.page_bytes(state.total_pages));
        self.report.io_breakdown.record(&state.spans);
        self.report.requests_completed += 1;
        if let Some(log) = self.completions.as_mut() {
            log.push(Completion { tag: state.tag, at: self.now, failed: state.failed });
        }
        if self.workload.is_some() {
            self.queue.push(self.now, Ev::Admit);
        }
        self.check_gc();
        self.pump_gc();
    }

    // ------------------------------------------------------------------
    // Garbage collection
    // ------------------------------------------------------------------

    fn check_gc(&mut self) {
        if self.gc.is_some() || self.report.end_of_life.is_some() {
            return;
        }
        if !self.pending_retire.is_empty() {
            // Failed superblocks jump the queue: they must leave the
            // allocator pools before normal space reclamation resumes.
            self.pump_retirement();
            if self.gc.is_some() {
                return;
            }
        }
        if !self.config.gc_continuous && !self.ftl.needs_gc() {
            return;
        }
        let Some(round) = self.ftl.start_gc_round() else { return };
        self.begin_round(round, false);
    }

    /// Installs `round` as the active GC state and starts pumping copies.
    /// A `retiring` round permanently retires its victim on completion
    /// instead of recycling it into the free pool.
    fn begin_round(&mut self, round: GcRound, retiring: bool) {
        self.report.first_gc_at.get_or_insert(self.now);
        let marker = if retiring { "gc round start (retiring)" } else { "gc round start" };
        self.tracer.instant(Track::Sim, marker, self.now);
        let mut pending: VecDeque<CopyGroup> = round.groups.iter().cloned().collect();
        if matches!(self.config.ftl.policy, dssd_ftl::GcPolicy::TinyTail { .. }) {
            // Partial GC proceeds channel by channel.
            let mut v: Vec<CopyGroup> = pending.into_iter().collect();
            v.sort_by_key(|g| g.src_die.channel);
            pending = v.into();
        }
        self.gc = Some(GcState {
            copies_expected: round.valid_pages,
            round,
            pending,
            copies_done: 0,
            erases_outstanding: 0,
            channel_inflight: vec![0; self.config.geometry.channels as usize],
            retiring,
        });
        self.pump_gc();
    }

    fn pump_gc(&mut self) {
        if self.report.end_of_life.is_some() {
            return;
        }
        loop {
            let Some(gc) = &self.gc else { return };
            if gc.pending.is_empty() {
                self.maybe_finish_round();
                return;
            }
            let host_idle = self.outstanding == 0;
            let must = self.ftl.must_gc();
            let policy = self.config.ftl.policy;
            if !policy.allows_issue(host_idle, must) {
                return;
            }
            let limit = policy.channel_limit(self.config.geometry.channels as usize);

            // Find the first issuable group. (dBUF back-pressure is
            // applied later, at the flash-bus transfer into the buffer —
            // the page read itself only occupies the die's page register.)
            let gc = self.gc.as_ref().unwrap();
            let active = gc.channel_inflight.iter().filter(|&&v| v > 0).count();
            let mut picked = None;
            for i in 0..gc.pending.len() {
                let ch = gc.pending[i].src_die.channel;
                let inflight = gc.channel_inflight[ch as usize];
                if inflight >= GC_PER_CHANNEL_INFLIGHT {
                    continue;
                }
                if inflight == 0 && active >= limit {
                    continue;
                }
                picked = Some(i);
                break;
            }
            let Some(i) = picked else { return };

            let group = self.gc.as_mut().unwrap().pending.remove(i).unwrap();
            self.issue_copy(group);
        }
    }

    fn issue_copy(&mut self, group: CopyGroup) {
        let want = group.pages.len() as u32;
        let Some(dst_group) = self.ftl.try_alloc_gc_group(want) else {
            // No erased superblock left to copy into: the device has
            // reached end of life. GC stops; writes block permanently.
            self.tracer.instant(Track::Sim, "end of life", self.now);
            self.report.end_of_life.get_or_insert(self.now);
            self.gc = None;
            return;
        };
        let take = dst_group.len().min(group.pages.len());

        // If the allocator returned fewer slots (die row boundary), the
        // remainder goes back to the pending queue as its own group.
        if take < group.pages.len() {
            let rest = CopyGroup {
                src_die: group.src_die,
                pages: group.pages[take..].to_vec(),
            };
            if let Some(gc) = &mut self.gc {
                gc.pending.push_front(rest);
            }
        }

        let pages: Vec<(Lpn, PageAddr, PageAddr)> = group.pages[..take]
            .iter()
            .zip(dst_group.addrs.iter())
            .map(|(&(lpn, src), &dst)| (lpn, src, dst))
            .collect();
        let src = pages[0].1;
        let dst = pages[0].2;
        let src_ch = group.src_die.channel;

        let dst_node = self.effective_addr(dst).channel as usize;
        let src_node = self.effective_addr(src).channel as usize;
        let cmd = self.controllers[src_node]
            .queue_mut()
            .submit(CommandKind::Copyback { dst_node });
        let id = self.jobs.insert(CopyJob {
            pages,
            src,
            dst,
            spans: Vec::new(),
            packets_in_flight: 0,
            holds_src_dbuf: false,
            cmd,
        });
        self.tracer.begin(Class::Gc, id.to_bits(), "copyback", self.now);
        if let Some(gc) = &mut self.gc {
            gc.channel_inflight[src_ch as usize] += 1;
        }
        // Fold (time, source channel) of every issued copy into a rolling
        // digest: two runs with identical GC scheduling traces — and only
        // those — produce the same value.
        let sample = self.now.as_ns() ^ (u64::from(src_ch) << 48);
        self.report.gc_issue_digest =
            (self.report.gc_issue_digest ^ sample).wrapping_mul(0x0000_0100_0000_01B3);

        // Source read (multi-plane).
        let eff_src = self.effective_addr(src);
        let die = self.effective_die_index(src);
        let lat = FlashOp::multi_plane(FlashOpKind::Read, eff_src, take as u32)
            .array_latency(&self.config.timing, &mut self.rng);
        let (_, done) = self.dies.occupy(die, self.now, lat);
        self.job_span(id, StageKind::FlashChip, Track::Die(die as u32), done - self.now);
        self.queue.push(done, Ev::CopyAtSrcBus { job: id });
    }

    fn copy_transport(&mut self, job: JobId) {
        let j = &self.jobs[job];
        let src_ch = self.effective_addr(j.src).channel;
        let dst_ch = self.effective_addr(j.dst).channel;
        let same_channel = src_ch == dst_ch;
        match self.config.architecture {
            Architecture::Baseline | Architecture::ExtraBandwidth => {
                // ctrl -> system bus -> DRAM -> system bus -> ctrl, one
                // transaction per scattered page.
                let n = self.jobs[job].pages.len() as u32;
                let t = self.sysbus_xfer_pages(n, CLASS_GC);
                self.job_span(job, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
                self.queue.push(t.1, Ev::CopyAtDram { job });
            }
            Architecture::Dssd => {
                if same_channel {
                    self.queue.push(self.now, Ev::CopyAtDstBus { job });
                } else {
                    // Controller-to-controller: the group was gathered in
                    // the source dBUF, so it crosses as one burst.
                    let bytes = self.page_bytes(self.jobs[job].pages.len() as u32);
                    let t = self.sysbus_xfer(bytes, CLASS_GC);
                    self.job_span(job, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
                    self.queue.push(t.1, Ev::CopyAtDstBus { job });
                }
            }
            Architecture::DssdBus => {
                if same_channel {
                    self.queue.push(self.now, Ev::CopyAtDstBus { job });
                } else {
                    // One burst per gathered group over the dedicated bus.
                    let bytes = self.page_bytes(self.jobs[job].pages.len() as u32);
                    let bus = self.dedicated_bus.as_mut().expect("dSSD_b has a bus");
                    let t = bus.enqueue(self.now, bytes, CLASS_GC);
                    let track = Track::DedicatedBus;
                    self.job_span(job, StageKind::Noc, track, t.done - self.now);
                    self.queue.push(t.done, Ev::CopyAtDstBus { job });
                }
            }
            Architecture::DssdFnoc => {
                if same_channel {
                    // Stays inside the controller; release the dBUF at
                    // the destination program.
                    self.queue.push(self.now, Ev::CopyAtDstBus { job });
                    return;
                }
                // Packetize: one packet per page (Fig 4 step 5).
                let page_bytes = self.config.geometry.page_bytes as u64;
                let n = self.jobs[job].pages.len() as u32;
                self.jobs[job].packets_in_flight = n;
                for _ in 0..n {
                    let pid = self.packet_jobs.insert(job).to_bits();
                    let pkt = Packet::new(pid, src_ch as usize, dst_ch as usize, page_bytes)
                        .with_tag(job.to_bits());
                    if self.injector.as_mut().is_some_and(|i| i.noc_degrades()) {
                        // Injected link degradation: the packet times out
                        // and is re-injected after the configured delay.
                        self.tracer.instant(Track::Faults, "noc degrade", self.now);
                        self.report.faults.noc_faults += 1;
                        // The degraded region must not stay fast-forwarded:
                        // any express reservation crossing the affected
                        // route reverts to flit-level simulation
                        // (observably neutral — timings are unchanged).
                        let mut step = std::mem::take(&mut self.noc_step);
                        self.noc.as_deref_mut().expect("dSSD_f has a NoC").demote_overlapping(
                            self.now,
                            src_ch as usize,
                            dst_ch as usize,
                            &mut step,
                            self.queue.orders(),
                        );
                        self.absorb_noc(&mut step);
                        self.noc_step = step;
                        let at = self.now + self.config.faults.noc_degrade_latency;
                        self.queue.push(at, Ev::NocRetry { pkt: Box::new(pkt) });
                        continue;
                    }
                    let mut step = std::mem::take(&mut self.noc_step);
                    self.noc.as_deref_mut().expect("dSSD_f has a NoC").inject_into(
                        self.now,
                        pkt,
                        &mut step,
                        self.queue.orders(),
                    );
                    self.absorb_noc(&mut step);
                    self.noc_step = step;
                }
                self.cmd_advance_to(job, dssd_ctrl::CopybackStage::InNetwork);
                // Source dBUF slots free once the pages are handed to
                // the NI.
                self.release_src_dbuf(job);
            }
        }
    }

    fn release_src_dbuf(&mut self, job: JobId) {
        let j = &mut self.jobs[job];
        if !j.holds_src_dbuf {
            return;
        }
        j.holds_src_dbuf = false;
        let n = j.pages.len();
        let src = j.src;
        let ch = self.effective_addr(src).channel as usize;
        for _ in 0..n {
            self.controllers[ch].dbuf_mut().release();
        }
        self.wake_dbuf_waiters(ch);
        self.pump_gc();
    }

    /// Re-attempts the flash-bus transfer of copies stalled on dBUF
    /// space at `channel`.
    fn wake_dbuf_waiters(&mut self, channel: usize) {
        while let Some(job) = self.dbuf_waiters[channel].pop_front() {
            let need = self.jobs[job].pages.len();
            if self.controllers[channel].dbuf().available() < need {
                self.dbuf_waiters[channel].push_front(job);
                break;
            }
            self.queue.push(self.now, Ev::CopyAtSrcBus { job });
        }
    }

    /// Handles an express delivery the queue popped.
    fn noc_event(&mut self, ev: NocEvent) {
        let mut step = std::mem::take(&mut self.noc_step);
        let noc = self.noc.as_deref_mut().expect("NoC event without NoC");
        noc.handle_into(self.now, ev, &mut step, self.queue.orders());
        self.absorb_noc(&mut step);
        self.noc_step = step;
    }

    /// Handles the fNoC's flit events while they precede both the queue
    /// head and `bound` (see [`SsdSim::run_bounded`]), at most `max` of
    /// them. The loop calls it only when the next lane head does.
    ///
    /// The order is the one-queue order by construction: flit events
    /// carry orders from the queue's counter, and [`Network::run`] stops
    /// after every step it hands back, which is booked here — pushing
    /// what it schedules — before the next flit event draws an order.
    /// The queue head is re-read after each booking, since a delivery
    /// pushes the copy job's next leg at the current instant.
    ///
    /// Returns the number of events handled (at least 1, at most `max`).
    fn noc_burst(&mut self, max: u64, bound: SimTime) -> u64 {
        let mut step = std::mem::take(&mut self.noc_step);
        let bound = EventKey::at(bound);
        let mut n = 0u64;
        while n < max {
            let limit = self.queue.peek_key().map_or(bound, |head| head.min(bound));
            let noc = self.noc.as_deref_mut().expect("NoC burst without NoC");
            let (ran, t) = noc.run(limit, max - n, &mut step, self.queue.orders());
            if ran == 0 {
                break;
            }
            n += ran;
            self.now = t;
            self.absorb_noc(&mut step);
        }
        debug_assert!(n > 0, "a NoC burst must handle the lane head it was given");
        self.noc_lane_pops += n;
        self.noc_step = step;
        n
    }

    /// Books a NoC [`Step`](dssd_noc::Step): traces its hops, queues
    /// its express deliveries and books its delivered packets, leaving
    /// its buffers empty (capacity retained) for reuse.
    fn absorb_noc(&mut self, step: &mut dssd_noc::Step) {
        // Per-hop link slices first: `packet_jobs` entries are removed on
        // delivery, and the delivered packet's final hops ride in the same
        // step.
        if !step.hops.is_empty() {
            self.trace_noc_hops(step);
        }
        for (t, e) in step.schedule.drain(..) {
            self.queue.push(t, Ev::Noc(e));
        }
        if !step.delivered.is_empty() {
            self.absorb_noc_delivered(step);
        }
    }

    /// Emits span slices for a step's per-hop link records. Only recorded
    /// when tracing (the network records hops only after
    /// `set_record_hops`), so this path is cold.
    fn trace_noc_hops(&mut self, step: &mut dssd_noc::Step) {
        for h in step.hops.drain(..) {
            if let Some(&job) = self.packet_jobs.get(SlabKey::from_bits(h.packet)) {
                self.tracer.span_named(
                    Class::Gc,
                    job.to_bits(),
                    Track::Router(h.node as u16),
                    Stage::Noc,
                    "noc hop",
                    h.at,
                    h.link_busy,
                );
            }
        }
    }

    /// Books a step's delivered packets against their copy jobs and
    /// schedules the post-transit leg once a job's last packet lands.
    fn absorb_noc_delivered(&mut self, step: &mut dssd_noc::Step) {
        for d in step.delivered.drain(..) {
            let job = self
                .packet_jobs
                .remove(SlabKey::from_bits(d.packet.id))
                .expect("delivered packet without job");
            let j = &mut self.jobs[job];
            j.packets_in_flight -= 1;
            if j.packets_in_flight == 0 {
                self.job_span_at(
                    job,
                    StageKind::Noc,
                    Track::NocTransit,
                    d.injected_at,
                    d.latency(),
                );
                self.queue.push(self.now, Ev::CopyAtDstBus { job });
            }
        }
    }

    fn copy_done(&mut self, job: JobId) {
        self.cmd_advance_to(job, dssd_ctrl::CopybackStage::Done);
        let j = self.jobs.remove(job).expect("unknown copy job");
        let src_ch = self.effective_addr(j.src).channel as usize;
        self.controllers[src_ch].queue_mut().retire(j.cmd);
        let bytes = self.page_bytes(j.pages.len() as u32);
        debug_assert!(!j.holds_src_dbuf, "dBUF released before program");
        for &(lpn, src, dst) in &j.pages {
            self.ftl.complete_copy_at(lpn, src, dst, self.now);
        }
        self.pump_meta();
        self.report.gc_pages_copied += j.pages.len() as u64;
        self.report.gc_bw.record(self.now, bytes);
        if self.tracer.is_enabled() {
            let totals = Self::stage_totals(&j.spans);
            self.tracer
                .end(Class::Gc, job.to_bits(), "copyback", self.now, false, &totals);
        }
        self.report.copyback_breakdown.record(&j.spans);
        if let Some(gc) = &mut self.gc {
            gc.copies_done += j.pages.len();
            gc.channel_inflight[j.src.channel as usize] -= 1;
        }
        // Unblock any writes waiting for space (stale copies may already
        // have freed mapping slots? no — space frees at erase; but retry
        // is harmless).
        self.maybe_finish_round();
        self.pump_gc();
    }

    fn maybe_finish_round(&mut self) {
        let Some(gc) = &self.gc else { return };
        if !gc.pending.is_empty()
            || gc.copies_done < gc.copies_expected
            || gc.erases_outstanding > 0
        {
            return;
        }
        if gc.round.erases.is_empty() {
            self.finish_round();
            return;
        }
        // Erase each die's sub-blocks as one multi-plane erase. Ordered
        // map: TLC-style latency ranges draw the RNG per erase, so the
        // iteration order must be deterministic.
        let mut per_die: BTreeMap<usize, u32> = BTreeMap::new();
        for b in &self.gc.as_ref().unwrap().round.erases {
            let die = self.effective_die_index(b.page(0));
            *per_die.entry(die).or_insert(0) += 1;
        }
        let gc = self.gc.as_mut().unwrap();
        gc.erases_outstanding = per_die.len();
        let timing = self.config.timing;
        for (_die, planes) in per_die {
            let lat = FlashOp::multi_plane(
                FlashOpKind::Erase,
                PageAddr { channel: 0, way: 0, die: 0, plane: 0, block: 0, page: 0 },
                planes,
            )
            .array_latency(&timing, &mut self.rng);
            // Erase suspension: the erase delays the GC round by its full
            // latency but host operations preempt it, so the die is not
            // modeled as blocked (standard controller technique — without
            // it every architecture's p99 is pinned at tBERS).
            self.queue.push(self.now + lat, Ev::EraseDone);
        }
    }

    fn erase_done(&mut self) {
        let gc = self.gc.as_mut().expect("erase without round");
        gc.erases_outstanding -= 1;
        if gc.erases_outstanding == 0 {
            self.finish_round();
        }
    }

    fn finish_round(&mut self) {
        let gc = self.gc.take().expect("finishing absent round");
        self.tracer.instant(Track::Sim, "gc round done", self.now);
        self.report.gc_rounds += 1;
        if gc.retiring {
            // Relocation complete: erase the victim's blocks and retire
            // the superblock for good.
            self.ftl.finish_gc_round_retiring(&gc.round);
            self.finish_retirement(gc.round.victim);
        } else {
            self.ftl.finish_gc_round(&gc.round);
            self.apply_wear(&gc.round);
        }
        self.pump_flush();
        // Retry blocked writes now that a superblock is free.
        let blocked: Vec<_> = self.blocked_writes.drain(..).collect();
        for (id, r) in blocked {
            // The request keeps its original arrival time.
            let lpns: Vec<Lpn> = r.lpns().map(|l| l % self.ftl.lpn_count()).collect();
            match self.ftl.write_pages(&lpns) {
                Some(groups) => {
                    let tickets = self.ftl.meta_drain_tickets();
                    self.issue_write_groups(id, &groups, &lpns, &tickets, 1);
                }
                None => self.blocked_writes.push_back((id, r)),
            }
        }
        // And the write groups parked by a program failure.
        let rewrites: Vec<_> = self.blocked_rewrites.drain(..).collect();
        for (id, lpns, attempt) in rewrites {
            match self.ftl.write_pages(&lpns) {
                Some(groups) => {
                    let tickets = self.ftl.meta_drain_tickets();
                    self.reissue_write_groups(id, &groups, &lpns, &tickets, attempt, self.now);
                }
                None => self.blocked_rewrites.push_back((id, lpns, attempt)),
            }
        }
        self.pump_meta();
        self.check_gc();
        self.pump_gc();
    }

    // ------------------------------------------------------------------
    // Write-buffer flushing
    // ------------------------------------------------------------------

    /// Flushes dirty cache pages to flash in the background: the flush
    /// traffic occupies the system bus, flash buses and dies exactly like
    /// host writes, but nothing waits on it, so it is charged
    /// analytically (no completion events).
    fn pump_flush(&mut self) {
        if self.cache.is_none() {
            return;
        }
        loop {
            let mut batch: Vec<Lpn> = self.flush_backlog.drain(..).collect();
            if batch.is_empty() {
                let cache = self.cache.as_mut().unwrap();
                if !cache.needs_flush() {
                    return;
                }
                batch = cache.take_dirty(64);
                if batch.is_empty() {
                    return;
                }
            }
            match self.ftl.write_pages(&batch) {
                Some(groups) => {
                    for g in groups {
                        let addr = self.effective_addr(g.addrs[0]);
                        let die = self.effective_die_index(g.addrs[0]);
                        let bytes = self.page_bytes(g.len() as u32);
                        let (_, bus_done) = self.sysbus_xfer(bytes, CLASS_IO);
                        let t = self.flash_bus[addr.channel as usize]
                            .enqueue(bus_done, bytes, CLASS_IO);
                        let lat = FlashOp::multi_plane(
                            FlashOpKind::Program,
                            g.addrs[0],
                            g.len() as u32,
                        )
                        .array_latency(&self.config.timing, &mut self.rng);
                        self.dies.occupy(die, t.done, lat);
                    }
                    self.check_gc();
                }
                None => {
                    // Out of space: keep the batch and wait for GC.
                    self.flush_backlog = batch.into();
                    self.check_gc();
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // WAS endurance scan (Fig 14c)
    // ------------------------------------------------------------------

    fn scan_tick(&mut self) {
        let Some(was) = self.config.was_scan else { return };
        self.scan_remaining += was.tracked_blocks;
        self.pump_scan();
        let next = self.now + was.interval;
        if next <= self.horizon {
            self.queue.push(next, Ev::ScanTick);
        }
    }

    fn pump_scan(&mut self) {
        while self.scan_remaining > 0 && self.scan_inflight < SCAN_INFLIGHT {
            self.scan_remaining -= 1;
            self.scan_inflight += 1;
            // One page read from a random die, through flash bus, system
            // bus and into DRAM — the software path WAS must take.
            let die = self.rng.index(self.dies.len());
            let geo = self.config.geometry;
            let ch = (self.config.geometry.die_at(die).channel) as usize;
            let read = FlashOp::single(
                FlashOpKind::Read,
                PageAddr { channel: ch as u32, way: 0, die: 0, plane: 0, block: 0, page: 0 },
            )
            .array_latency(&self.config.timing, &mut self.rng);
            let (_, die_done) = self.dies.occupy(die, self.now, read);
            let bytes = geo.page_bytes as u64;
            let t1 = self.flash_bus[ch].enqueue(die_done, bytes, CLASS_SCAN);
            let t2 = self.sysbus_xfer_at(t1.done, bytes, CLASS_SCAN);
            let t3 = self.dram.enqueue(t2.1, bytes, CLASS_SCAN);
            self.queue.push(t3.done, Ev::ScanReadDone);
        }
    }

    // ------------------------------------------------------------------
    // Copyback command-queue tracking (Fig 4's R/RE/N/W status field)
    // ------------------------------------------------------------------

    /// Advances job `job`'s copyback command until it reaches `target`.
    fn cmd_advance_to(&mut self, job: JobId, target: dssd_ctrl::CopybackStage) {
        let Some(j) = self.jobs.get(job) else { return };
        let ch = self.effective_addr(j.src).channel as usize;
        let cmd = j.cmd;
        while self.controllers[ch]
            .queue()
            .stage(cmd)
            .is_some_and(|s| s < target)
        {
            self.controllers[ch].queue_mut().advance(cmd);
        }
    }

    /// The decoupled controller command queue of `channel` (inspection).
    #[must_use]
    pub fn command_queue(&self, channel: usize) -> &CommandQueue {
        self.controllers[channel].queue()
    }

    /// The decoupled controller of `channel` (inspection).
    #[must_use]
    pub fn controller(&self, channel: usize) -> &DecoupledController {
        &self.controllers[channel]
    }

    // ------------------------------------------------------------------
    // Online dynamic superblocks (Sec 5)
    // ------------------------------------------------------------------

    /// Charges accelerated wear for the round's erases; worn (or
    /// erase-failed) sub-blocks are repaired through the SRT/RBT on
    /// decoupled architectures or retire the superblock outright.
    fn apply_wear(&mut self, round: &dssd_ftl::GcRound) {
        if self.wear.is_none() {
            return;
        }
        let accel = self.config.dynamic_sb.map(|d| d.wear_acceleration.max(1));
        let mut worn = Vec::new();
        for b in &round.erases {
            // Wear accrues on the block physically backing the slot.
            let idx = self.resolve_block(*b) as usize;
            if self.wear.as_ref().unwrap().is_worn_out(idx) {
                continue;
            }
            if self.injector.as_mut().is_some_and(|i| i.erase_fails()) {
                // Injected erase failure: the block dies on the spot,
                // whatever its endurance budget said.
                self.tracer.instant(Track::Faults, "erase failure", self.now);
                self.report.faults.erase_failures += 1;
                self.report.faults.blocks_retired += 1;
                self.wear.as_mut().unwrap().force_worn(idx);
                worn.push(*b);
                continue;
            }
            let Some(accel) = accel else { continue };
            let wear = self.wear.as_mut().unwrap();
            let mut dead = false;
            for _ in 0..accel {
                if wear.erase(idx) == EraseOutcome::WornOut {
                    dead = true;
                    break;
                }
            }
            if dead {
                worn.push(*b);
            }
        }
        if worn.is_empty() {
            return;
        }
        let mut repaired_all = true;
        if self.config.architecture.is_decoupled() {
            for b in &worn {
                if !self.try_remap_worn(*b) {
                    repaired_all = false;
                }
            }
        } else {
            repaired_all = false;
        }
        if repaired_all {
            return;
        }
        // Conventional bad-superblock management: retire it whole. The
        // round's victim was just erased, so it holds no valid pages.
        if self.ftl.retire_superblock(round.victim) {
            self.report.bad_superblocks += 1;
            if self.config.architecture.is_decoupled() {
                // Still-good sub-blocks feed the recycle bins.
                for b in self.ftl.layout().sub_blocks(round.victim).collect::<Vec<_>>() {
                    let idx = self.resolve_block(b);
                    if !self.wear.as_ref().unwrap().is_worn_out(idx as usize) {
                        let _ = self.controllers[b.channel as usize].rbt_mut().deposit(idx);
                    }
                }
            }
        }
    }

    /// Replaces a worn sub-block with a recycled one: SRT entry in the
    /// failing controller plus a live timing remap, so the replacement's
    /// channel/die conflicts are visible to every subsequent access.
    fn try_remap_worn(&mut self, b: dssd_flash::BlockAddr) -> bool {
        let geo = self.config.geometry;
        let ch = b.channel as usize;
        let spare = self.controllers[ch].rbt_mut().take().or_else(|| {
            (0..self.controllers.len())
                .filter(|&c| c != ch)
                .find_map(|c| self.controllers[c].rbt_mut().take())
        });
        let Some(spare) = spare else { return false };
        let key = geo.block_index(b) as u32;
        if self.controllers[ch].srt_mut().insert(key, spare).is_err() {
            let _ = self.controllers[ch].rbt_mut().deposit(spare);
            return false;
        }
        let spare_addr = geo.block_at(spare as usize);
        let die_idx = b.channel + geo.channels * b.way + geo.channels * geo.ways * b.die;
        self.remap.insert(
            b.block,
            die_idx,
            spare_addr.channel,
            spare_addr.way,
            spare_addr.die,
        );
        self.report.dynamic_remaps += 1;
        self.tracer.instant(Track::Faults, "dynamic remap", self.now);
        true
    }

    /// The block physically backing slot `b` after any SRT remapping.
    fn resolve_block(&self, b: dssd_flash::BlockAddr) -> u32 {
        let geo = self.config.geometry;
        let key = geo.block_index(b) as u32;
        self.controllers
            .get(b.channel as usize)
            .and_then(|c| c.srt().lookup(key))
            .unwrap_or(key)
    }

    // ------------------------------------------------------------------
    // Fault injection and in-band failure handling
    // ------------------------------------------------------------------

    /// Issues freshly allocated host write groups: each group crosses the
    /// system bus (host DMA) and then enters the flash path. `attempt`
    /// seeds the per-group program-failure budget; `tickets` are the
    /// durability-model tickets drained right after `Ftl::write_pages`
    /// (one per group, empty when the model is disabled).
    fn issue_write_groups(
        &mut self,
        req: ReqId,
        groups: &[AllocGroup],
        lpns: &[Lpn],
        tickets: &[u32],
        attempt: u32,
    ) {
        self.register_tickets(req, tickets);
        // LPNs ride along only when a failed program may need them.
        let carry = self.injector.is_some();
        let mut off = 0usize;
        for (i, g) in groups.iter().enumerate() {
            let n = g.len();
            let sub = if carry { Some(lpns[off..off + n].to_vec()) } else { None };
            off += n;
            let eff = self.effective_addr(g.addrs[0]);
            let die = self.effective_die_index(g.addrs[0]);
            let pages = n as u32;
            let bytes = self.page_bytes(pages);
            let t = self.sysbus_xfer(bytes, CLASS_IO);
            self.req_span(req, StageKind::SystemBus, Track::SysBus, t.1 - self.now);
            self.queue.push(
                t.1,
                Ev::WriteAtCtrl {
                    leg: Box::new(WriteLeg {
                        req,
                        die,
                        pages,
                        channel: eff.channel,
                        addr: g.addrs[0],
                        lpns: sub,
                        attempt,
                        ticket: tickets.get(i).copied().unwrap_or(META_NO_TICKET),
                    }),
                },
            );
        }
    }

    /// Attaches freshly drained durability tickets to their owning
    /// request (redeemed at completion).
    fn register_tickets(&mut self, req: ReqId, tickets: &[u32]) {
        if tickets.is_empty() {
            return;
        }
        if let Some(st) = self.requests.get_mut(req) {
            st.tickets.extend_from_slice(tickets);
        }
    }

    /// Re-issues re-allocated write groups after a program failure. The
    /// data is still in the controller, so only the flash path is charged
    /// (no second host DMA across the system bus).
    fn reissue_write_groups(
        &mut self,
        req: ReqId,
        groups: &[AllocGroup],
        lpns: &[Lpn],
        tickets: &[u32],
        attempt: u32,
        at: SimTime,
    ) {
        self.register_tickets(req, tickets);
        let mut off = 0usize;
        for (i, g) in groups.iter().enumerate() {
            let n = g.len();
            let sub = Some(lpns[off..off + n].to_vec());
            off += n;
            let eff = self.effective_addr(g.addrs[0]);
            let die = self.effective_die_index(g.addrs[0]);
            self.queue.push(
                at,
                Ev::WriteAtCtrl {
                    leg: Box::new(WriteLeg {
                        req,
                        die,
                        pages: n as u32,
                        channel: eff.channel,
                        addr: g.addrs[0],
                        lpns: sub,
                        attempt,
                        ticket: tickets.get(i).copied().unwrap_or(META_NO_TICKET),
                    }),
                },
            );
        }
    }

    /// Programs one host write group, with an optional injected failure
    /// surfacing in the status read after the program time was spent.
    fn write_at_die(&mut self, leg: WriteLeg) {
        let lat = FlashOp::multi_plane(FlashOpKind::Program, leg.addr, leg.pages)
            .array_latency(&self.config.timing, &mut self.rng);
        let (_, done) = self.dies.occupy(leg.die, self.now, lat);
        let track = Track::Die(leg.die as u32);
        self.req_span(leg.req, StageKind::FlashChip, track, done - self.now);
        if self.injector.as_mut().is_some_and(|i| i.program_fails()) {
            // The failure surfaces in the status read after program time.
            self.tracer.instant(Track::Faults, "program failure", done);
            self.report.faults.program_failures += 1;
            self.handle_program_failure(leg, done);
            return;
        }
        // The group's OOB becomes durable when the program completes at
        // `done`; a crash before then tears these pages.
        self.ftl.meta_mark_programmed(leg.ticket, done);
        self.pump_meta();
        self.queue.push(done, Ev::WriteDone { req: leg.req, pages: leg.pages });
    }

    /// A program reported failure: retire the block, then re-allocate and
    /// re-issue the group — or complete the request as failed once the
    /// attempt budget is spent.
    fn handle_program_failure(&mut self, leg: WriteLeg, at: SimTime) {
        // A failed program leaves no durable OOB record and journals no
        // mapping op; the re-allocation below issues a fresh ticket.
        self.ftl.meta_mark_torn(leg.ticket);
        if leg.ticket != META_NO_TICKET {
            if let Some(st) = self.requests.get_mut(leg.req) {
                if let Some(pos) = st.tickets.iter().position(|&t| t == leg.ticket) {
                    st.tickets.swap_remove(pos);
                }
            }
        }
        self.mark_block_bad(leg.addr.block_addr());
        let out_of_budget = leg.attempt >= self.config.faults.max_program_attempts;
        let Some(lpns) = leg.lpns.filter(|_| !out_of_budget) else {
            // Attempts exhausted: the write completes, but the request is
            // surfaced to the host as failed.
            if let Some(st) = self.requests.get_mut(leg.req) {
                st.failed = true;
            }
            self.queue.push(at, Ev::WriteDone { req: leg.req, pages: leg.pages });
            return;
        };
        match self.ftl.write_pages(&lpns) {
            Some(groups) => {
                let tickets = self.ftl.meta_drain_tickets();
                self.reissue_write_groups(
                    leg.req,
                    &groups,
                    &lpns,
                    &tickets,
                    leg.attempt + 1,
                    at,
                );
            }
            None => {
                // No space for the re-allocation: park it until GC frees
                // a superblock.
                self.blocked_rewrites.push_back((leg.req, lpns, leg.attempt + 1));
                self.check_gc();
            }
        }
    }

    /// The ECC stage of a host read group: decode timing, then — when
    /// fault injection is enabled — an in-band verdict that can trigger a
    /// read-retry or an uncorrectable-read recovery.
    fn read_at_ecc(&mut self, mut leg: ReadLeg) {
        let bytes = self.page_bytes(leg.pages);
        let t = self.controllers[leg.channel as usize]
            .ecc_mut()
            .decode_as(self.now, bytes, CLASS_IO);
        let track = Track::ChannelEcc(leg.channel as u16);
        self.req_span(leg.req, StageKind::Ecc, track, t.done - self.now);
        if self.injector.is_none() {
            self.queue.push(t.done, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
            return;
        }
        match self.classify_read(&mut leg) {
            EccVerdict::Clean | EccVerdict::Corrected => {
                if leg.attempt > 0 {
                    // A retry pulled the data back under the correction
                    // threshold.
                    self.report.faults.reads_recovered += 1;
                }
                self.queue.push(t.done, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
            }
            EccVerdict::Uncorrectable => {
                if leg.attempt < self.config.faults.max_read_retries {
                    self.schedule_read_retry(leg, t.done);
                } else {
                    self.fail_read(leg, t.done);
                }
            }
        }
    }

    /// Decides the decode verdict for one read group. The first attempt
    /// draws the injected fault class (or falls back to the wear model's
    /// RBER); retries re-check — hard failures stay uncorrectable,
    /// transient ones recover with `retry_success_prob`.
    fn classify_read(&mut self, leg: &mut ReadLeg) -> EccVerdict {
        let uncorrectable = self.config.ecc.correctable_rber;
        let corrected = self.config.ecc.clean_rber;
        let rber = if leg.attempt == 0 {
            match self.injector.as_mut().expect("classify without injector").read_outcome()
            {
                ReadFault::Hard => {
                    leg.hard = true;
                    uncorrectable
                }
                ReadFault::Transient => uncorrectable,
                ReadFault::None => {
                    let r = self.block_rber(leg.addr);
                    if r >= uncorrectable {
                        // Worn-out media: every re-read sees the same RBER.
                        leg.hard = true;
                    }
                    r
                }
            }
        } else if leg.hard {
            uncorrectable
        } else if self.injector.as_mut().unwrap().retry_recovers() {
            // Decoded successfully at a shifted reference voltage.
            corrected
        } else {
            uncorrectable
        };
        self.controllers[leg.channel as usize].ecc_mut().check(rber)
    }

    /// RBER of the block physically backing `addr`, per the wear model.
    /// Fresh (never-erased) blocks read as error-free rather than sitting
    /// exactly on the `Corrected` threshold.
    fn block_rber(&self, addr: PageAddr) -> f64 {
        let Some(wear) = &self.wear else { return 0.0 };
        let idx = self.resolve_block(addr.block_addr()) as usize;
        if wear.pe_count(idx) == 0 {
            return 0.0;
        }
        wear.rber(idx)
    }

    /// Issues one read-retry: the die is re-sensed with escalated latency
    /// (deeper reference-voltage sweeps), then the data crosses the flash
    /// bus to the ECC engine again.
    fn schedule_read_retry(&mut self, mut leg: ReadLeg, at: SimTime) {
        leg.attempt += 1;
        let base = FlashOp::multi_plane(FlashOpKind::Read, leg.addr, leg.pages)
            .array_latency(&self.config.timing, &mut self.rng);
        let factor = self.config.faults.retry_latency_factor.powi(leg.attempt as i32);
        let lat = SimSpan::from_ns((base.as_ns() as f64 * factor).round() as u64);
        let (_, done) = self.dies.occupy(leg.die, at, lat);
        self.req_span_at(
            leg.req,
            StageKind::FlashChip,
            Track::Die(leg.die as u32),
            at,
            done - at,
        );
        self.tracer.instant(Track::Faults, "read retry", at);
        self.report.faults.read_retries += 1;
        self.report.faults.retry_latency += done - at;
        self.queue.push(done, Ev::ReadAtBus { leg: Box::new(leg) });
    }

    /// Retries exhausted: the read is uncorrectable. The failing block is
    /// retired, the request is marked failed for the report, and the
    /// (front-end-reconstructed) data still crosses the system bus so the
    /// request completes instead of hanging.
    fn fail_read(&mut self, leg: ReadLeg, at: SimTime) {
        self.tracer.instant(Track::Faults, "uncorrectable read", at);
        self.report.faults.uncorrectable_reads += 1;
        if let Some(st) = self.requests.get_mut(leg.req) {
            st.failed = true;
        }
        self.mark_block_bad(leg.addr.block_addr());
        self.queue.push(at, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
    }

    /// A block failed in service (program failure or uncorrectable read):
    /// mark it worn, then repair through the SRT/RBT on decoupled
    /// architectures or queue its superblock for online retirement.
    fn mark_block_bad(&mut self, b: dssd_flash::BlockAddr) {
        let idx = self.resolve_block(b) as usize;
        if let Some(w) = self.wear.as_mut() {
            if w.is_worn_out(idx) {
                // Already handled (reads racing on the same dying block).
                return;
            }
            w.force_worn(idx);
        }
        self.tracer.instant(Track::Faults, "block retired", self.now);
        self.report.faults.blocks_retired += 1;
        if self.config.architecture.is_decoupled() && self.try_remap_worn(b) {
            return;
        }
        self.schedule_retirement(b.block);
    }

    /// Queues superblock `sb` for online retirement (idempotent) and
    /// tries to start it immediately.
    fn schedule_retirement(&mut self, sb: u32) {
        if !self.pending_retire.contains(&sb)
            && !self.ftl.retired_superblocks().contains(&sb)
        {
            self.pending_retire.push_back(sb);
        }
        self.pump_retirement();
    }

    /// Starts the next queued superblock retirement if no GC round is
    /// active: empty superblocks retire immediately; sealed ones get a
    /// relocation round first; active ones wait until they rotate out.
    fn pump_retirement(&mut self) {
        if self.gc.is_some() || self.report.end_of_life.is_some() {
            return;
        }
        for _ in 0..self.pending_retire.len() {
            let sb = self.pending_retire.pop_front().expect("checked non-empty");
            if self.ftl.retired_superblocks().contains(&sb) {
                // Raced with a wear-driven retirement of the same victim.
                continue;
            }
            if self.ftl.superblock_valid_pages(sb) == 0 {
                if self.ftl.retire_superblock(sb) {
                    self.finish_retirement(sb);
                    continue;
                }
                // Active superblock: re-queue until it rotates out.
                self.pending_retire.push_back(sb);
                continue;
            }
            // Live data must be relocated first: run a GC round against
            // this specific victim and retire it on completion.
            match self.ftl.start_gc_round_on(sb) {
                Some(round) => {
                    self.begin_round(round, true);
                    return;
                }
                // Active (host or GC) superblock: try again later.
                None => self.pending_retire.push_back(sb),
            }
        }
    }

    /// Accounting for a completed superblock retirement: on decoupled
    /// architectures the still-healthy sub-blocks feed the recycle bins.
    fn finish_retirement(&mut self, sb: u32) {
        self.tracer.instant(Track::Faults, "superblock retired", self.now);
        self.report.bad_superblocks += 1;
        self.report.faults.superblocks_retired += 1;
        if self.config.architecture.is_decoupled() {
            for b in self.ftl.layout().sub_blocks(sb).collect::<Vec<_>>() {
                let idx = self.resolve_block(b);
                let healthy =
                    !self.wear.as_ref().is_some_and(|w| w.is_worn_out(idx as usize));
                if healthy {
                    let _ = self.controllers[b.channel as usize].rbt_mut().deposit(idx);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn page_bytes(&self, pages: u32) -> u64 {
        pages as u64 * self.config.geometry.page_bytes as u64
    }

    /// Enqueues a system-bus transfer at `now`, recording utilization.
    fn sysbus_xfer(&mut self, bytes: u64, class: usize) -> (SimTime, SimTime) {
        self.sysbus_xfer_at(self.now, bytes, class)
    }

    fn sysbus_xfer_at(&mut self, at: SimTime, bytes: u64, class: usize) -> (SimTime, SimTime) {
        let t = self.sysbus.enqueue(at, bytes, class);
        match class {
            CLASS_IO => self.report.sysbus_io_util.record_busy(t.start, t.done),
            CLASS_GC => self.report.sysbus_gc_util.record_busy(t.start, t.done),
            _ => {}
        }
        (t.start, t.done)
    }

    /// GC moves scattered pages, so each page is its own bus transaction
    /// (own descriptor + arbitration), unlike host bursts. Returns the
    /// first start and last completion.
    fn sysbus_xfer_pages(&mut self, n: u32, class: usize) -> (SimTime, SimTime) {
        let page = self.config.geometry.page_bytes as u64;
        let extra = self.config.gc_page_overhead;
        let mut first = self.now;
        let mut last = self.now;
        for i in 0..n {
            let t = self.sysbus.enqueue_extra(self.now, page, class, extra);
            match class {
                CLASS_IO => self.report.sysbus_io_util.record_busy(t.start, t.done),
                CLASS_GC => self.report.sysbus_gc_util.record_busy(t.start, t.done),
                _ => {}
            }
            if i == 0 {
                first = t.start;
            }
            last = t.done;
        }
        (first, last)
    }

    /// Per-page DRAM transactions for GC staging.
    fn dram_xfer_pages(&mut self, n: u32, class: usize) -> (SimTime, SimTime) {
        let page = self.config.geometry.page_bytes as u64;
        let extra = self.config.gc_page_overhead;
        let mut first = self.now;
        let mut last = self.now;
        for i in 0..n {
            let tr = self.dram.enqueue_extra(self.now, page, class, extra);
            if i == 0 {
                first = tr.start;
            }
            last = tr.done;
        }
        (first, last)
    }

    /// Maps a simulator [`StageKind`] onto the telemetry [`Stage`] with the
    /// same dense index (the two taxonomies mirror each other exactly).
    fn tele_stage(stage: StageKind) -> Stage {
        Stage::ALL[stage.index()]
    }

    /// Attributes `span` of `stage` time to request `req`, both in the
    /// latency breakdown and (when tracing) as a timeline slice starting
    /// at `self.now` on `track`. Single funnel: the trace slice and the
    /// breakdown entry are always the same duration.
    fn req_span(&mut self, req: ReqId, stage: StageKind, track: Track, span: SimSpan) {
        let now = self.now;
        self.req_span_at(req, stage, track, now, span);
    }

    /// [`SsdSim::req_span`] with an explicit slice start (for spans that
    /// begin at a scheduled time rather than `self.now`).
    fn req_span_at(
        &mut self,
        req: ReqId,
        stage: StageKind,
        track: Track,
        start: SimTime,
        span: SimSpan,
    ) {
        let Some(r) = self.requests.get_mut(req) else { return };
        r.spans.push((stage, span));
        self.tracer
            .span(Class::Io, req.to_bits(), track, Self::tele_stage(stage), start, span);
    }

    /// Attributes `span` of `stage` time to GC job `job`; see
    /// [`SsdSim::req_span`].
    fn job_span(&mut self, job: JobId, stage: StageKind, track: Track, span: SimSpan) {
        let now = self.now;
        self.job_span_at(job, stage, track, now, span);
    }

    /// [`SsdSim::job_span`] with an explicit slice start.
    fn job_span_at(
        &mut self,
        job: JobId,
        stage: StageKind,
        track: Track,
        start: SimTime,
        span: SimSpan,
    ) {
        let Some(j) = self.jobs.get_mut(job) else { return };
        j.spans.push((stage, span));
        self.tracer
            .span(Class::Gc, job.to_bits(), track, Self::tele_stage(stage), start, span);
    }

    /// Sums a request/job span list into per-stage totals indexed by
    /// [`StageKind::index`] (what [`Tracer::end`] feeds the summary).
    fn stage_totals(spans: &[(StageKind, SimSpan)]) -> [SimSpan; 6] {
        let mut totals = [SimSpan::ZERO; 6];
        for &(k, s) in spans {
            totals[k.index()] += s;
        }
        totals
    }

    /// Samples every epoch boundary at or before `t` (cold path — only
    /// reached when epoch sampling is enabled).
    fn sample_epochs_until(&mut self, t: SimTime) {
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

    fn job_src(&self, job: JobId) -> (u64, usize) {
        let j = &self.jobs[job];
        (
            self.page_bytes(j.pages.len() as u32),
            self.effective_addr(j.src).channel as usize,
        )
    }

    fn job_dst(&self, job: JobId) -> (u64, usize) {
        let j = &self.jobs[job];
        (
            self.page_bytes(j.pages.len() as u32),
            self.effective_addr(j.dst).channel as usize,
        )
    }

    /// Applies the timing-level SRT remap (Fig 15a) to an address.
    fn effective_addr(&self, addr: PageAddr) -> PageAddr {
        if self.remap.is_empty() {
            return addr;
        }
        let g = &self.config.geometry;
        let die_idx = addr.channel + g.channels * addr.way + g.channels * g.ways * addr.die;
        match self.remap.get(addr.block, die_idx) {
            Some((ch, way, die)) => PageAddr { channel: ch, way, die, ..addr },
            None => addr,
        }
    }

    fn effective_die_index(&self, addr: PageAddr) -> usize {
        self.effective_die_index_raw(self.effective_addr(addr))
    }

    fn effective_die_index_raw(&self, addr: PageAddr) -> usize {
        self.config.geometry.die_index(addr.die_addr())
    }
}

/// `SyntheticWorkload::bind` applied lazily: the sim binds the workload to
/// its own LPN space.
trait BindCheck {
    fn bind_check(self, lpn_count: u64) -> SyntheticWorkload;
}

impl BindCheck for SyntheticWorkload {
    fn bind_check(self, lpn_count: u64) -> SyntheticWorkload {
        self.bind(lpn_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;
    use dssd_workload::AccessPattern;

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
