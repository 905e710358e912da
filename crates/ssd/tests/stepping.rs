//! Stepping gates: `run_events(1)` in a loop is the reference engine.
//!
//! Each `run_events(1)` call handles exactly one event, the least
//! pending one, so no NoC burst runs past it. Every other way of driving
//! the simulator must be byte-identical to it: one
//! `run_events(u64::MAX)` call, `run_until` and `run_until_before`
//! slices, arbitrary mixes of the three, a paced front-end injecting
//! arrivals between steps, and a snapshot restored mid-burst. Compared
//! are the report (every counter, histogram and breakdown), the state
//! digest, both event counters and the NoC's credit stalls, across every
//! architecture, workload mix, seed, fault class and power-loss
//! placement.
//!
//! A full-budget call hands runs of fNoC flit events to the NoC burst,
//! which stops at the queue head and at one observation bound: the
//! stepping stop, the next epoch boundary, the armed power-loss instant
//! and the horizon. A burst that ran past either changes what the cases
//! below compare.
//!
//! This is the foundation the live service front-end stands on: the
//! pacer may stop the simulator at every submission instant, and none
//! of those stops may perturb the machine.

use std::hash::{DefaultHasher, Hash, Hasher};

use dssd_kernel::{check, Rng, SimSpan, SimTime};
use dssd_noc::TopologyKind;
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, RunPlan, RunState, SimSnapshot, SsdConfig, SsdSim,
    TraceConfig, EPOCH_COLUMNS,
};
use dssd_workload::{msr, open_loop_schedule, AccessPattern, Request, SyntheticWorkload};

/// Order-sensitive digest of a finished run: the live-state digest, both
/// event counters, the NoC's credit stalls, the numbers the paper's
/// figures are built from, and a hash of the whole report (histograms,
/// stage breakdowns, fault and recovery counters).
fn fingerprint(sim: &mut SsdSim) -> String {
    let digest = sim.state_digest();
    let events = sim.events_handled();
    let stalls = sim.noc().map_or(0, |n| n.stats().credit_stalls);
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    let mut report = DefaultHasher::new();
    format!("{r:?}").hash(&mut report);
    format!(
        "digest={digest:016x} events={events} delivered={} stalls={stalls} req={} io_bytes={} gc_pages={} mean_ns={} p99_ns={} report={:016x}",
        r.events_delivered,
        r.requests_completed,
        r.io_bw.total_bytes(),
        r.gc_pages_copied,
        r.mean_latency().as_ns(),
        p99,
        report.finish(),
    )
}

/// Drives `sim` until it stops: with one `run_events(u64::MAX)` call,
/// or with `stepped` by `run_events(1)` calls, the reference engine.
fn run_out(sim: &mut SsdSim, stepped: bool) -> RunState {
    if !stepped {
        return sim.run_events(u64::MAX);
    }
    loop {
        match sim.run_events(1) {
            RunState::Paused => {}
            state => return state,
        }
    }
}

/// A prefilled closed-loop run of `wl` for `ms`, driven by [`run_out`]
/// and finished. `epoch` turns on epoch sampling and `progress` the
/// heartbeat. Returns the fingerprint, the epoch series as JSONL (empty
/// without sampling) and the finished sim.
fn closed_loop(
    cfg: &SsdConfig,
    wl: &SyntheticWorkload,
    ms: u64,
    epoch: Option<SimSpan>,
    progress: bool,
    stepped: bool,
) -> (String, String, SsdSim) {
    let mut sim = SsdSim::new(cfg.clone());
    if epoch.is_some() {
        sim.enable_tracing(TraceConfig {
            window: None,
            epoch,
        });
    }
    sim.set_progress(progress);
    sim.prefill();
    sim.begin_closed_loop(wl.clone(), SimSpan::from_ms(ms));
    run_out(&mut sim, stepped);
    sim.finish_run();
    let series = sim
        .epoch_series()
        .map(|s| s.to_jsonl_string())
        .unwrap_or_default();
    (fingerprint(&mut sim), series, sim)
}

/// Asserts that the full-budget run of `wl` on `cfg` (with `epoch`
/// sampling and `progress`) is byte-identical to the reference, and
/// returns the finished full-budget sim.
fn assert_matches_reference(
    what: &str,
    cfg: &SsdConfig,
    wl: &SyntheticWorkload,
    ms: u64,
    epoch: Option<SimSpan>,
    progress: bool,
) -> SsdSim {
    let (full, full_series, sim) = closed_loop(cfg, wl, ms, epoch, progress, false);
    let (reference, ref_series, _) = closed_loop(cfg, wl, ms, epoch, progress, true);
    assert_eq!(
        full, reference,
        "{what}: diverged from run_events(1) stepping"
    );
    assert_eq!(full_series, ref_series, "{what}: epoch series diverged");
    sim
}

fn tiny_sim() -> SsdSim {
    let mut sim = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
    sim.prefill();
    sim
}

fn gc_heavy(arch: Architecture) -> SsdConfig {
    let mut cfg = SsdConfig::test_tiny(arch);
    cfg.gc_continuous = true;
    cfg
}

fn writes() -> SyntheticWorkload {
    SyntheticWorkload::writes(AccessPattern::Random, 8)
}

/// What a pause compares: the replay cursor, the state digest, and the
/// three quantities the epoch-row case reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pause {
    events: u64,
    digest: u64,
    free_superblocks: usize,
    noc_in_flight: usize,
    completed: u64,
}

impl Pause {
    fn of(sim: &SsdSim) -> Pause {
        Pause {
            events: sim.events_handled(),
            digest: sim.state_digest(),
            free_superblocks: sim.ftl().free_superblocks(),
            noc_in_flight: sim.noc().map_or(0, |n| n.in_flight()),
            completed: sim.report().requests_completed,
        }
    }
}

/// The reference engine read at instants: a sim stepped by
/// `run_events(1)`, one step ahead of the last instant asked for.
struct Reference {
    sim: SsdSim,
    /// The state after every step before `ahead`.
    settled: Pause,
    /// The latest step's event time and the state after it.
    ahead: Option<(SimTime, Pause)>,
    state: RunState,
}

impl Reference {
    fn new(sim: SsdSim) -> Reference {
        Reference {
            settled: Pause::of(&sim),
            sim,
            ahead: None,
            state: RunState::Paused,
        }
    }

    /// The state once every event before `t` has run — at or before `t`
    /// when `inclusive` — which is what `run_until_before(t)`
    /// (`run_until(t)`) leaves. Instants must not decrease and must not
    /// pass the horizon: the pop past it that ends a run is dated one
    /// nanosecond after the horizon, the earliest it can be.
    fn at(&mut self, t: SimTime, inclusive: bool) -> Pause {
        loop {
            if let Some((at, after)) = self.ahead {
                if at > t || (at == t && !inclusive) {
                    return self.settled;
                }
                self.settled = after;
                self.ahead = None;
            }
            if self.state != RunState::Paused {
                return self.settled;
            }
            self.state = self.sim.run_events(1);
            let at = match self.state {
                RunState::Done => self.sim.horizon() + SimSpan::from_ns(1),
                _ => self.sim.now(),
            };
            self.ahead = Some((at, Pause::of(&self.sim)));
        }
    }

    /// Runs the reference to its end and returns its fingerprint.
    fn finish(mut self) -> String {
        if self.state == RunState::Paused {
            run_out(&mut self.sim, true);
        }
        self.sim.finish_run();
        fingerprint(&mut self.sim)
    }
}

fn open_loop_plan() -> Vec<(SimTime, Request)> {
    let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5).bind(1 << 15);
    let mut rng = Rng::new(77);
    open_loop_schedule(wl, 120_000.0, SimSpan::from_ms(4), &mut rng)
}

/// A 4 ms open-loop run of [`open_loop_plan`] on `cfg`: `paced` steps
/// with `run_until_before(t)` and injects each arrival at `t`, the
/// service pacer's pattern; otherwise every arrival is pushed up front
/// and the run goes to [`run_out`].
fn open_loop(cfg: &SsdConfig, paced: bool, stepped: bool) -> String {
    let mut sim = SsdSim::new(cfg.clone());
    sim.prefill();
    sim.begin_open_loop(SimSpan::from_ms(4));
    for (t, r) in open_loop_plan() {
        if paced {
            sim.run_until_before(t);
        }
        sim.inject_arrival(t, r);
    }
    run_out(&mut sim, stepped);
    sim.finish_run();
    fingerprint(&mut sim)
}

/// A Baseline replay of MSR `prn_0` at 20× for 60 ms, every arrival
/// pushed up front, begun but not yet stepped: fig11's open-loop shape.
/// The arrivals wait in the event queue's far run for most of the
/// replay, while GC copies crossing the shared system bus park host and
/// copyback legs up to hundreds of µs ahead.
fn prn0_replay() -> SsdSim {
    let mut cfg = SsdConfig::test_tiny(Architecture::Baseline).with_seed(1);
    cfg.write_cache_pages = None;
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    let span = SimSpan::from_ms(60);
    let speedup = 20.0;
    let original = SimSpan::from_ns((span.as_ns() as f64 * speedup) as u64);
    let trace = msr::profile("prn_0")
        .expect("prn_0 is a built-in MSR volume")
        .synthesize(original, 1)
        .accelerate(speedup);
    let reqs = trace.to_requests(sim.config().geometry.page_bytes, sim.ftl().lpn_count());
    sim.begin_open_loop(span);
    for (t, r) in reqs {
        sim.inject_arrival(t, r);
    }
    sim
}

/// The Baseline trace replay must end in one call exactly as under
/// `run_events(1)` stepping, and `run_until` every 997,331 ns (an odd
/// stride, so stops fall between arrivals and inside GC rounds) must
/// leave the reference's state at every stop.
#[test]
fn baseline_trace_replay_matches_the_reference() {
    let mut full = prn0_replay();
    run_out(&mut full, false);
    full.finish_run();
    let want = fingerprint(&mut full);
    assert!(
        full.report().gc_rounds >= 2 && full.report().requests_completed > 3_000,
        "the replay must cover GC rounds and host traffic: {want}"
    );

    let mut sim = prn0_replay();
    let mut reference = Reference::new(prn0_replay());
    let stride = SimSpan::from_ns(997_331);
    let mut t = SimTime::ZERO;
    let mut state = RunState::Paused;
    while state == RunState::Paused && t + stride <= sim.horizon() {
        t += stride;
        state = sim.run_until(t);
        assert_eq!(Pause::of(&sim), reference.at(t, true), "pause at {t:?} diverged");
    }
    if state == RunState::Paused {
        sim.run_events(u64::MAX);
    }
    sim.finish_run();
    assert_eq!(fingerprint(&mut sim), want, "the run_until ladder diverged");
    assert_eq!(reference.finish(), want, "diverged from run_events(1) stepping");
}

/// Every architecture × workload mix × seed. The mixes cover the write
/// path (bus, die and GC copies), the read path (die, ECC and sysbus)
/// and the DRAM-hit path (the fig10 scenario), each crossed with every
/// architecture's transport.
#[test]
fn randomized_mixes_match_the_reference_across_architectures_and_seeds() {
    let mixes: [(&str, u32, f64, f64); 3] = [
        ("writes", 8, 0.0, 0.0),
        ("mixed", 4, 0.5, 0.0),
        ("dram_hits", 8, 1.0, 1.0),
    ];
    for arch in Architecture::all() {
        for &(mix, pages, reads, hit) in &mixes {
            for seed_salt in [0u64, 0x5EED] {
                let mut cfg = gc_heavy(arch);
                cfg.seed ^= seed_salt;
                let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                    .with_dram_hit_fraction(hit);
                let what = format!("{}/{mix}/salt={seed_salt:#x}", arch.label());
                assert_matches_reference(&what, &cfg, &wl, 3, None, false);
            }
        }
    }
}

/// Fault injection: read-retry re-issues, program-failure remaps, erase
/// failures and NoC degradations that demote express groups.
#[test]
fn fault_and_retry_paths_match_the_reference() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for seed_salt in [0u64, 0xFA17] {
            let mut cfg = gc_heavy(arch);
            cfg.faults = f;
            cfg.seed ^= seed_salt;
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5);
            let what = format!("{}/faults/salt={seed_salt:#x}", arch.label());
            assert_matches_reference(&what, &cfg, &wl, 4, None, false);
        }
    }
}

/// Power loss armed at a simulated instant or an exact event count: the
/// instant bounds the NoC burst and the count caps its budget, so the
/// run must crash at exactly the reference's point and recover to the
/// same state.
#[test]
fn power_loss_placements_match_the_reference() {
    let armed = |at_ns: u64, at_event: u64| {
        let mut cfg = gc_heavy(Architecture::DssdFnoc);
        cfg.durability = Some(DurabilityConfig::default());
        cfg.power_loss.at = SimTime::from_ns(at_ns);
        cfg.power_loss.at_event = at_event;
        cfg
    };
    // The first two instants land inside NoC bursts that would run past
    // the loss if the instant did not bound them.
    let placements = [400_013, 733_331, 1_000_337]
        .map(|ns| (format!("loss at {ns} ns"), armed(ns, 0)))
        .into_iter()
        .chain([5_000, 12_345, 250_001].map(|n| (format!("loss at event {n}"), armed(0, n))));
    for (what, cfg) in placements {
        let sim = assert_matches_reference(&what, &cfg, &writes(), 3, None, false);
        let rec = sim
            .report()
            .recovery
            .expect("an armed loss reports recovery");
        assert!(
            rec.invariants_hold(),
            "{what}: recovery invariants violated"
        );
    }
}

/// A snapshot captured after `run_events(cursor)` (a cut inside a NoC
/// burst) must hold the reference's state at that cursor and restore
/// to a run that ends exactly as the reference does.
#[test]
fn snapshot_inside_a_burst_restores_to_the_reference() {
    let plan = RunPlan {
        workload: writes(),
        duration: SimSpan::from_ms(3),
    };
    let cfg = gc_heavy(Architecture::DssdFnoc);
    let mut reference = SsdSim::new(cfg.clone());
    reference.prefill();
    reference.begin_closed_loop(plan.workload.clone(), plan.duration);
    let mut cuts = Vec::new();
    for cursor in [777u64, 10_001, 25_003] {
        let mut sim = SsdSim::new(cfg.clone());
        sim.prefill();
        sim.begin_closed_loop(plan.workload.clone(), plan.duration);
        assert_eq!(sim.run_events(cursor), RunState::Paused);
        assert_eq!(
            sim.events_handled(),
            cursor,
            "run_events overshot the limit"
        );
        while reference.events_handled() < cursor {
            assert_eq!(reference.run_events(1), RunState::Paused);
        }
        assert_eq!(
            (sim.now(), sim.state_digest()),
            (reference.now(), reference.state_digest()),
            "cursor {cursor}: the cut is not the reference's state"
        );
        let snap = SimSnapshot::capture(&sim, &plan);
        let resumed = snap.restore(cfg.clone(), &plan).expect("mid-burst restore");
        assert_eq!(resumed.state_digest(), sim.state_digest());
        cuts.push((cursor, sim, resumed));
    }
    run_out(&mut reference, true);
    reference.finish_run();
    let want = fingerprint(&mut reference);
    for (cursor, mut sim, mut resumed) in cuts {
        for (side, s) in [("uninterrupted", &mut sim), ("resumed", &mut resumed)] {
            s.run_events(u64::MAX);
            s.finish_run();
            assert_eq!(fingerprint(s), want, "cursor {cursor}: {side} run diverged");
        }
    }
}

/// Epoch sampling reads queue depths, utilizations and counters at each
/// boundary, so a burst that ran past one would change that row. The
/// report and the epoch JSONL must both match.
#[test]
fn epoch_sampling_matches_the_reference() {
    let mixes: [(&str, u32, f64, f64); 2] = [("writes", 8, 0.0, 0.0), ("dram_hits", 8, 1.0, 1.0)];
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for &(mix, pages, reads, hit) in &mixes {
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                .with_dram_hit_fraction(hit);
            let what = format!("{}/{mix}/epochs", arch.label());
            let every = Some(SimSpan::from_us(97));
            assert_matches_reference(&what, &gc_heavy(arch), &wl, 3, every, false);
        }
    }
}

/// Each epoch row must hold the reference's state at its boundary,
/// read off `run_events(1)` stepping without sampling, so a sample taken
/// late (a burst past the boundary, or a bound that forgot the epoch)
/// shows up here even if the sampled reference shared the error.
#[test]
fn epoch_rows_hold_the_reference_state_at_each_boundary() {
    let every = SimSpan::from_us(97);
    let cfg = gc_heavy(Architecture::DssdFnoc);
    let mut sampled = SsdSim::new(cfg.clone());
    sampled.enable_tracing(TraceConfig {
        window: None,
        epoch: Some(every),
    });
    sampled.prefill();
    sampled.run_closed_loop(writes(), SimSpan::from_ms(3));
    let col = |name: &str| {
        EPOCH_COLUMNS
            .iter()
            .position(|c| *c == name)
            .expect("epoch column")
    };
    let (free, noc, rate) = (
        col("free_superblocks"),
        col("noc_in_flight"),
        col("completed_per_s"),
    );

    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.begin_closed_loop(writes(), SimSpan::from_ms(3));
    let mut reference = Reference::new(sim);
    let mut completed = 0.0;
    let rows = sampled
        .epoch_series()
        .expect("epoch sampling enabled")
        .rows();
    assert!(rows.len() >= 30, "only {} epoch rows", rows.len());
    for (k, row) in rows.iter().enumerate() {
        let at = reference.at(SimTime::ZERO + every * (k as u64 + 1), false);
        completed += row[rate] * every.as_secs_f64();
        let got = (
            row[free] as usize,
            row[noc] as usize,
            completed.round() as u64,
        );
        let want = (at.free_superblocks, at.noc_in_flight, at.completed);
        assert_eq!(got, want, "epoch row {k} was not sampled at its boundary");
    }
}

/// The progress heartbeat only writes to stderr and needs no bound.
#[test]
fn progress_reporting_matches_the_reference() {
    let cfg = gc_heavy(Architecture::DssdFnoc);
    assert_matches_reference("progress", &cfg, &writes(), 3, None, true);
}

/// `run_until(t)` must leave exactly the reference's state at `t`, so
/// every pause is compared, not only the final report. The odd slice
/// lengths land pauses inside NoC bursts.
#[test]
fn run_until_slices_match_the_reference() {
    let cfg = gc_heavy(Architecture::DssdFnoc);
    let begun = || {
        let mut sim = SsdSim::new(cfg.clone());
        sim.prefill();
        sim.begin_closed_loop(writes(), SimSpan::from_ms(3));
        sim
    };
    for slice in [SimSpan::from_ns(7_919), SimSpan::from_ns(41_017)] {
        let mut sim = begun();
        let mut reference = Reference::new(begun());
        let mut t = SimTime::ZERO;
        let mut state = RunState::Paused;
        while state == RunState::Paused && t < sim.horizon() {
            t += slice;
            state = sim.run_until(t);
            // Past the horizon the reference cannot date the final pop.
            if t <= sim.horizon() {
                let want = reference.at(t, true);
                assert_eq!(
                    Pause::of(&sim),
                    want,
                    "slice {slice:?}: pause at {t:?} diverged"
                );
            }
        }
        if state == RunState::Paused {
            sim.run_events(u64::MAX);
        }
        sim.finish_run();
        assert_eq!(
            fingerprint(&mut sim),
            reference.finish(),
            "slice {slice:?}: run diverged"
        );
    }
}

/// The service pacer's pattern: advance with `run_until_before(t)`, then
/// inject the arrival at `t`. A burst that reached the next arrival's
/// instant would run events the arrival must precede. This also stands
/// for the CLI's QoS-paced `serve` spec, whose token buckets and qd caps
/// only change which instants the pacer stops at.
#[test]
fn paced_injection_matches_the_reference() {
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        let cfg = gc_heavy(arch);
        let paced = open_loop(&cfg, true, false);
        assert_eq!(
            paced,
            open_loop(&cfg, false, true),
            "{}: pacing diverged",
            arch.label()
        );
    }
}

/// The `dssd-cli run` scenarios that once diffed the default engine
/// against a one-event-at-a-time switch, built here as the CLI builds
/// them (`test_tiny`, QD 64, 8-page random requests): fig10's DRAM-hit
/// reads, GC-heavy dSSD_f, durable dSSD, epoch sampling at the CLI's
/// 1 ms with the progress heartbeat, and power loss at 1.3 ms.
#[test]
fn cli_scenarios_match_the_reference() {
    let cli = |arch, gc_continuous, durable: bool| {
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.gc_continuous = gc_continuous;
        cfg.durability = durable.then(DurabilityConfig::default);
        cfg
    };
    let dram_reads = SyntheticWorkload::mixed(AccessPattern::Random, 8, 1.0)
        .with_queue_depth(64)
        .with_dram_hit_fraction(1.0);
    let cli_writes = SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.0).with_queue_depth(64);
    let mut power_loss = cli(Architecture::Dssd, true, true);
    power_loss.power_loss.at = SimTime::ZERO + SimSpan::from_us(1_300);
    let epoch = Some(SimSpan::from_ms(1));
    let cases = [
        (
            "dssd_f --reads --dram-hit",
            cli(Architecture::DssdFnoc, false, false),
            &dram_reads,
            5,
            None,
            false,
        ),
        (
            "dssd_f --gc-continuous",
            cli(Architecture::DssdFnoc, true, false),
            &cli_writes,
            5,
            None,
            false,
        ),
        (
            "dssd --gc-continuous --durable",
            cli(Architecture::Dssd, true, true),
            &cli_writes,
            3,
            None,
            false,
        ),
        (
            "dssd_f --epoch-out --progress",
            cli(Architecture::DssdFnoc, true, false),
            &cli_writes,
            5,
            epoch,
            true,
        ),
        (
            "dssd --durable --power-loss-ms 1.3",
            power_loss,
            &cli_writes,
            3,
            None,
            false,
        ),
    ];
    for (what, cfg, wl, ms, epoch, progress) in cases {
        assert_matches_reference(what, &cfg, wl, ms, epoch, progress);
    }
}

/// The NoC burst runs on every topology, and short mesh-only runs miss
/// real divergence, so two figure configurations are diffed against
/// the reference at their figures' own horizons: Fig 13's ring and
/// crossbar for 25 ms (`test_tiny` dSSD_f, 2 GB/s bisection, 4-flit
/// buffers, continuous GC under all-DRAM-hit writes), and one Fig 8
/// point for 200 ms (the bench's `perf_config`, which is `test_tiny`, at
/// ×4 on-chip bandwidth with sustained 8-page random writes and
/// on-demand GC).
#[test]
fn figure_topologies_match_the_reference() {
    let hits = writes().with_dram_hit_fraction(1.0);
    for kind in [TopologyKind::Ring, TopologyKind::Crossbar] {
        let mut cfg = gc_heavy(Architecture::DssdFnoc);
        cfg.noc.topology = kind;
        cfg.noc = cfg.noc.with_bisection_bandwidth(2_000_000_000).with_input_buffer_flits(4);
        assert_matches_reference(&format!("fig13 {kind:?}"), &cfg, &hits, 25, None, false);
    }
    let fig08 = SsdConfig::test_tiny(Architecture::DssdFnoc).with_onchip_factor(4.0);
    assert_matches_reference("fig08 dSSD_f x4", &fig08, &writes(), 200, None, false);
}

/// Steps `sim` to completion using a `choices`-driven mix of stepping
/// primitives, then finalizes it. Every choice `(kind, amount)` maps to
/// one of the three public stepping calls.
fn step_to_completion(sim: &mut SsdSim, choices: impl Iterator<Item = (u8, u64)>) {
    for (kind, amount) in choices {
        let state = match kind % 3 {
            0 => sim.run_events(1 + amount % 256),
            1 => sim.run_until(sim.now() + SimSpan::from_ns(1 + amount % 300_000)),
            _ => sim.run_until_before(sim.now() + SimSpan::from_ns(1 + amount % 300_000)),
        };
        if state == RunState::Done {
            // Done means the run is over — the queue drained or the one
            // beyond-horizon pop (part of the event-count fingerprint)
            // already happened. Running further would pop a second one
            // the batch path never sees.
            sim.finish_run();
            return;
        }
    }
    // Choices exhausted first: run out the clock like the batch path.
    sim.run_events(u64::MAX);
    sim.finish_run();
}

/// `(kind, amount)` stepping choices drawn from `rng`.
fn choices(mut rng: Rng) -> impl Iterator<Item = (u8, u64)> {
    std::iter::from_fn(move || Some((rng.next_u64() as u8, rng.next_u64())))
}

#[test]
fn seeded_interleaved_stepping_matches_single_run_open_loop() {
    let plan = open_loop_plan();

    let mut batch = tiny_sim();
    batch.run_trace(plan.clone(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    for seed in [1u64, 42, 1234] {
        let mut stepped = tiny_sim();
        stepped.begin_open_loop(SimSpan::from_ms(4));
        for (t, r) in plan.clone() {
            stepped.inject_arrival(t, r);
        }
        step_to_completion(&mut stepped, choices(Rng::new(seed)).take(10_000));
        assert_eq!(
            fingerprint(&mut stepped),
            want,
            "granularity seed {seed} perturbed the open-loop run"
        );
    }
}

#[test]
fn seeded_interleaved_stepping_matches_single_run_closed_loop() {
    let mut batch = tiny_sim();
    batch.run_closed_loop(writes(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);

    for seed in [7u64, 99] {
        let mut stepped = tiny_sim();
        stepped.begin_closed_loop(writes(), SimSpan::from_ms(4));
        step_to_completion(&mut stepped, choices(Rng::new(seed)).take(10_000));
        assert_eq!(
            fingerprint(&mut stepped),
            want,
            "granularity seed {seed} perturbed the closed-loop run"
        );
    }
}

/// Injecting arrivals live between steps (the service pacer's exact
/// access pattern) must also be invisible: advance to just before each
/// arrival, inject it, repeat.
#[test]
fn live_injection_between_steps_matches_upfront_push() {
    let cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    assert_eq!(open_loop(&cfg, true, false), open_loop(&cfg, false, false));
}

/// Arbitrary `(kind, amount)` stepping programs of 1 to 399 choices,
/// one-event steps among them, never diverge from the single
/// uninterrupted run.
#[test]
fn arbitrary_stepping_matches_single_run() {
    let plan = open_loop_plan();
    let mut batch = tiny_sim();
    batch.run_trace(plan.clone(), SimSpan::from_ms(4));
    let want = fingerprint(&mut batch);
    check(16, 0x57E9_0000, |rng| {
        let len = rng.range_u64(1..400) as usize;
        let mut stepped = tiny_sim();
        stepped.begin_open_loop(SimSpan::from_ms(4));
        for (t, r) in plan.clone() {
            stepped.inject_arrival(t, r);
        }
        step_to_completion(&mut stepped, choices(rng.fork(1)).take(len));
        let got = fingerprint(&mut stepped);
        if got == want {
            Ok(())
        } else {
            Err(format!("{len} choices gave {got}, want {want}"))
        }
    });
}
