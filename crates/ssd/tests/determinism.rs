//! Determinism gates for the allocation-free hot paths.
//!
//! Two layers of protection:
//!
//! * **Replay identity** — two simulators built from the same config must
//!   produce identical reports *and* identical GC scheduling traces (the
//!   `gc_issue_digest` folds the `(time, channel)` of every issued copy,
//!   so a hash-map-iteration-order hazard anywhere in the GC scheduler
//!   shows up as a digest mismatch).
//! * **Golden fingerprints** — the optimized simulator must stay
//!   bit-identical to the pre-optimization implementation. The constants
//!   below were captured from the heap-only / hash-map simulator
//!   immediately before the slab/calendar/flat-Vec migration.

use dssd_kernel::{SimSpan, SimTime};
use dssd_noc::TopologyKind;
use dssd_ssd::{
    Architecture, DurabilityConfig, DynamicSbConfig, FaultConfig, RunState, SsdConfig, SsdSim,
    WasScanConfig,
};
use dssd_workload::{msr, AccessPattern, SyntheticWorkload};

/// Compact, order-sensitive digest of one closed-loop run.
fn fingerprint(mut sim: SsdSim, reads: bool, ms: u64) -> String {
    sim.prefill();
    let wl = if reads {
        SyntheticWorkload::reads(AccessPattern::Random, 4)
    } else {
        SyntheticWorkload::writes(AccessPattern::Random, 8)
    };
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
    summary(&mut sim)
}

/// The order-sensitive digest of a finished run's report.
fn summary(sim: &mut SsdSim) -> String {
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "req={} gc_pages={} gc_rounds={} io_bytes={} gc_bytes={} mean_ns={} p99_ns={} first_gc={:?} remaps={} bad_sb={}",
        r.requests_completed,
        r.gc_pages_copied,
        r.gc_rounds,
        r.io_bw.total_bytes(),
        r.gc_bw.total_bytes(),
        r.mean_latency().as_ns(),
        p99,
        r.first_gc_at.map(|t| t.as_ns()),
        r.dynamic_remaps,
        r.bad_superblocks,
    )
}

#[test]
fn identical_runs_produce_identical_gc_scheduling_traces() {
    for arch in Architecture::all() {
        let run = || {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            sim.run_closed_loop(wl, SimSpan::from_ms(5));
            let r = sim.report();
            (
                r.gc_issue_digest,
                r.events_delivered,
                r.requests_completed,
                r.gc_pages_copied,
                r.io_bw.total_bytes(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{}: replay divergence", arch.label());
        assert_ne!(a.0, 0, "{}: GC ran, digest must be non-trivial", arch.label());
        assert!(a.1 > 0, "{}: events_delivered must be recorded", arch.label());
    }
}

/// Golden write-workload fingerprints (gc_continuous, 10 ms) captured
/// from the pre-optimization simulator at the default `test_tiny` seed.
#[test]
fn bit_identical_to_pre_optimization_simulator_writes() {
    let golden = [
        ("Baseline", "req=1103 gc_pages=1964 gc_rounds=1 io_bytes=36143104 gc_bytes=8044544 mean_ns=562280 p99_ns=913824 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("BW", "req=1205 gc_pages=2302 gc_rounds=1 io_bytes=39485440 gc_bytes=9428992 mean_ns=515998 p99_ns=822043 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD", "req=1582 gc_pages=3330 gc_rounds=1 io_bytes=51838976 gc_bytes=13639680 mean_ns=398060 p99_ns=600192 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD_b", "req=1580 gc_pages=3329 gc_rounds=1 io_bytes=51773440 gc_bytes=13635584 mean_ns=397683 p99_ns=606208 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD_f", "req=1725 gc_pages=2710 gc_rounds=1 io_bytes=56524800 gc_bytes=11100160 mean_ns=363617 p99_ns=531464 first_gc=Some(0) remaps=0 bad_sb=0"),
    ];
    for (arch, want) in golden {
        let arch = Architecture::all()
            .into_iter()
            .find(|a| a.label() == arch)
            .expect("known architecture label");
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.gc_continuous = true;
        let got = fingerprint(SsdSim::new(cfg), false, 10);
        assert_eq!(got, want, "{}/writes drifted from the golden run", arch.label());
    }
}

/// Golden read-workload fingerprints (5 ms) from the same capture.
#[test]
fn bit_identical_to_pre_optimization_simulator_reads() {
    let golden = [
        ("Baseline", "req=559 gc_pages=1334 gc_rounds=0 io_bytes=9158656 gc_bytes=5464064 mean_ns=542258 p99_ns=836296 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("BW", "req=624 gc_pages=1481 gc_rounds=0 io_bytes=10223616 gc_bytes=6066176 mean_ns=492613 p99_ns=767953 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD", "req=2025 gc_pages=1700 gc_rounds=1 io_bytes=33177600 gc_bytes=6963200 mean_ns=156076 p99_ns=341295 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD_b", "req=1972 gc_pages=1700 gc_rounds=1 io_bytes=32309248 gc_bytes=6963200 mean_ns=159965 p99_ns=316304 first_gc=Some(0) remaps=0 bad_sb=0"),
        ("dSSD_f", "req=1931 gc_pages=1700 gc_rounds=1 io_bytes=31637504 gc_bytes=6963200 mean_ns=163309 p99_ns=298296 first_gc=Some(0) remaps=0 bad_sb=0"),
    ];
    for (arch, want) in golden {
        let arch = Architecture::all()
            .into_iter()
            .find(|a| a.label() == arch)
            .expect("known architecture label");
        let got = fingerprint(SsdSim::new(SsdConfig::test_tiny(arch)), true, 5);
        assert_eq!(got, want, "{}/reads drifted from the golden run", arch.label());
    }
}

/// The fNoC express path (contention-free packet fast-forwarding) must be
/// invisible in every RunReport: each architecture's fingerprint with the
/// express path disabled must byte-match the default (express-on) run —
/// including under fault injection, where an injected NoC fault demotes
/// standing express reservations mid-flight.
#[test]
fn noc_express_path_is_bit_identical_to_flit_level() {
    for arch in Architecture::all() {
        let run = |express: bool| {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            cfg.noc = cfg.noc.with_express(express);
            fingerprint(SsdSim::new(cfg), false, 10)
        };
        assert_eq!(run(true), run(false), "{}: express path diverged", arch.label());
    }

    let mut f = FaultConfig::none();
    f.noc_degrade_prob = 0.05;
    let run = |express: bool| {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        cfg.faults = f;
        cfg.noc = cfg.noc.with_express(express);
        fingerprint(SsdSim::new(cfg), false, 10)
    };
    assert_eq!(run(true), run(false), "dSSD_f: express path diverged under NoC faults");
}

/// Fault-injection and SRT-remap paths exercise the slab churn (retries,
/// re-allocations, retirement) and the dense remap table.
#[test]
fn bit_identical_fault_and_remap_paths() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.gc_continuous = true;
    cfg.faults = f;
    assert_eq!(
        fingerprint(SsdSim::new(cfg), false, 10),
        "req=1677 gc_pages=2856 gc_rounds=1 io_bytes=54951936 gc_bytes=11698176 mean_ns=373630 p99_ns=551140 first_gc=Some(0) remaps=3 bad_sb=1",
        "dSSD_f fault-injection run drifted from the golden run"
    );

    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.srt_active_remaps = 256;
    assert_eq!(
        fingerprint(SsdSim::new(cfg), false, 10),
        "req=1928 gc_pages=1699 gc_rounds=0 io_bytes=63176704 gc_bytes=6959104 mean_ns=325486 p99_ns=811424 first_gc=Some(0) remaps=0 bad_sb=0",
        "dSSD_f SRT-remap run drifted from the golden run"
    );
}

/// One 6 ms continuous-GC dSSD_f run of 8-page random writes, with
/// `dram_hit` of them served from DRAM: `summary` plus the event count,
/// the state digest, and the NoC's flit hops and credit stalls.
fn fnoc_run(mut cfg: SsdConfig, dram_hit: f64) -> String {
    cfg.gc_continuous = true;
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    let wl = SyntheticWorkload::writes(AccessPattern::Random, 8).with_dram_hit_fraction(dram_hit);
    sim.run_closed_loop(wl, SimSpan::from_ms(6));
    let noc = sim.noc().expect("dSSD_f has a NoC").stats();
    let (flit_hops, credit_stalls) = (noc.flit_hops, noc.credit_stalls);
    format!(
        "{} events={} digest={:#018x} flit_hops={flit_hops} credit_stalls={credit_stalls}",
        summary(&mut sim),
        sim.report().events_delivered,
        sim.state_digest(),
    )
}

/// Golden fNoC fingerprints with event counts, on the topologies the
/// closed-loop goldens above never run: Fig 13's ring and crossbar (2
/// GB/s bisection, 4-flit buffers, all-DRAM-hit writes), and the default
/// mesh with injected link degradation, whose demotions hand in-flight
/// flit events back to the simulator's queue out of time order. At six
/// milliseconds the NoC express path and the flit-level engine still
/// agree on all three runs: with the express path off, every field but
/// `events` and `digest` (two fewer events per express grant) is the
/// same. Captured before the event queue's constant-delay FIFO tier
/// landed.
#[test]
fn bit_identical_fnoc_topologies_and_hand_offs() {
    let fig13 = |kind: TopologyKind| {
        let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
        cfg.noc.topology = kind;
        cfg.noc = cfg.noc.with_bisection_bandwidth(2_000_000_000).with_input_buffer_flits(4);
        fnoc_run(cfg, 1.0)
    };
    assert_eq!(
        fig13(TopologyKind::Ring),
        "req=1428 gc_pages=1700 gc_rounds=0 io_bytes=46792704 gc_bytes=6963200 mean_ns=262808 p99_ns=268544 first_gc=Some(0) remaps=0 bad_sb=0 events=1699998 digest=0x6b1e246211f23315 flit_hops=627585 credit_stalls=553646",
        "dSSD_f ring run drifted from the golden run"
    );
    assert_eq!(
        fig13(TopologyKind::Crossbar),
        "req=1428 gc_pages=1686 gc_rounds=0 io_bytes=46792704 gc_bytes=6905856 mean_ns=262808 p99_ns=268544 first_gc=Some(0) remaps=0 bad_sb=0 events=1526911 digest=0xab58775c93041489 flit_hops=569520 credit_stalls=242611",
        "dSSD_f crossbar run drifted from the golden run"
    );

    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.faults = FaultConfig::none();
    cfg.faults.noc_degrade_prob = 0.05;
    assert_eq!(
        fnoc_run(cfg, 0.0),
        "req=1014 gc_pages=1699 gc_rounds=0 io_bytes=33226752 gc_bytes=6959104 mean_ns=369927 p99_ns=543752 first_gc=Some(0) remaps=0 bad_sb=0 events=2174372 digest=0xb19f912983f2966b flit_hops=786126 credit_stalls=282710",
        "dSSD_f degraded-mesh run drifted from the golden run"
    );
}

/// Replays MSR `prn_0` (synthesized with `seed`) at 20x for `span` on
/// the prefilled `sim`, every arrival pushed up front.
fn replay_prn0(sim: &mut SsdSim, span: SimSpan, seed: u64) {
    let speedup = 20.0;
    let original = SimSpan::from_ns((span.as_ns() as f64 * speedup) as u64);
    let trace = msr::profile("prn_0")
        .expect("prn_0 is a built-in MSR volume")
        .synthesize(original, seed)
        .accelerate(speedup);
    let reqs = trace.to_requests(sim.config().geometry.page_bytes, sim.ftl().lpn_count());
    sim.run_trace(reqs, span);
}

/// Golden open-loop fingerprint: Baseline replaying MSR `prn_0` at 20x
/// for 100 ms (Fig 11's setup, write cache off, on-demand GC). Every
/// arrival is pushed up front, so this is the run that exercises the
/// event queue's far tier, its empty-calendar window jumps and long
/// empty-bucket stretches; the closed-loop goldens above keep the queue
/// dense. The constant was captured before the queue's occupancy
/// bitmap and packed ordering key landed.
#[test]
fn bit_identical_open_loop_trace_replay() {
    let mut cfg = SsdConfig::test_tiny(Architecture::Baseline).with_seed(1);
    cfg.write_cache_pages = None;
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    replay_prn0(&mut sim, SimSpan::from_ms(100), 1);
    let got = format!(
        "{} events={} gc_digest={:#018x}",
        summary(&mut sim),
        sim.report().events_delivered,
        sim.report().gc_issue_digest
    );
    assert_eq!(
        got,
        "req=7098 gc_pages=11466 gc_rounds=7 io_bytes=97505280 gc_bytes=46964736 mean_ns=220187 p99_ns=624253 first_gc=Some(14635) remaps=0 bad_sb=0 events=73868 gc_digest=0x338c83479e6d7c4a",
        "Baseline prn_0 trace replay drifted from the golden run"
    );
}

/// The two GC policies whose gates hold copies back, on the system-bus
/// (Baseline) and fNoC (dSSD_f) copyback paths: semi-preemptive GC
/// issues only while the host idles or the free pool sits at its hard
/// floor, and TinyTail copies on at most two channels at once. Each run
/// pins the summary line and the `gc_issue_digest`, which folds the
/// `(time, channel)` of every issued copy. The preemptive cases run
/// once closed-loop from the hard floor (the must-GC gate) and once as
/// a `prn_0` trace replay, whose idle gaps open the host-idle gate.
/// Captured before the pending copy groups moved into one queue per
/// source channel.
#[test]
fn golden_gc_issue_order_under_gated_policies() {
    use dssd_ftl::GcPolicy;
    let golden = [
        ("Baseline", "preemptive", "req=3070 gc_pages=4573 gc_rounds=2 io_bytes=100597760 gc_bytes=18731008 mean_ns=518420 p99_ns=829108 first_gc=Some(0) remaps=0 bad_sb=0 gc_digest=0x784e0c073aa12478"),
        ("Baseline", "preemptive_trace", "req=4189 gc_pages=3464 gc_rounds=2 io_bytes=58945536 gc_bytes=14188544 mean_ns=139361 p99_ns=572150 first_gc=Some(30889) remaps=0 bad_sb=0 gc_digest=0xbc680bf2a07b198f"),
        ("Baseline", "tinytail", "req=3994 gc_pages=2105 gc_rounds=1 io_bytes=130875392 gc_bytes=8622080 mean_ns=397776 p99_ns=748232 first_gc=Some(0) remaps=0 bad_sb=0 gc_digest=0x39484e80c04aa524"),
        ("dSSD_f", "preemptive", "req=3399 gc_pages=6735 gc_rounds=4 io_bytes=111378432 gc_bytes=27586560 mean_ns=466998 p99_ns=5279506 first_gc=Some(0) remaps=0 bad_sb=0 gc_digest=0xb94e6127ec166d7c"),
        ("dSSD_f", "preemptive_trace", "req=4189 gc_pages=3489 gc_rounds=2 io_bytes=58945536 gc_bytes=14290944 mean_ns=90384 p99_ns=206105 first_gc=Some(30889) remaps=0 bad_sb=0 gc_digest=0xbcbf206d1d2e44e9"),
        ("dSSD_f", "tinytail", "req=4089 gc_pages=1966 gc_rounds=1 io_bytes=133988352 gc_bytes=8052736 mean_ns=385456 p99_ns=3074246 first_gc=Some(0) remaps=0 bad_sb=0 gc_digest=0xed13e7875ff8d23a"),
    ];
    for (arch_label, case, want) in golden {
        let arch = Architecture::all()
            .into_iter()
            .find(|a| a.label() == arch_label)
            .expect("known architecture label");
        let mut cfg = SsdConfig::test_tiny(arch);
        if case == "tinytail" {
            cfg.gc_continuous = true;
            cfg.ftl.policy = GcPolicy::TinyTail { concurrent_channels: 2 };
        } else {
            cfg.ftl.policy = GcPolicy::Preemptive { hard_free_superblocks: cfg.ftl.gc_hard_free };
            cfg.prefill_target_free = cfg.ftl.gc_hard_free + 1;
        }
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        if case == "preemptive_trace" {
            replay_prn0(&mut sim, SimSpan::from_ms(60), 5);
        } else {
            let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
            sim.run_closed_loop(wl, SimSpan::from_ms(25));
        }
        let got = format!("{} gc_digest={:#018x}", summary(&mut sim), sim.report().gc_issue_digest);
        assert_eq!(got, want, "{arch_label}/{case}: GC issue order drifted");
    }
}

/// A 3 ms continuous-GC dSSD_f run of 8-page random writes, begun but
/// not yet stepped: the base of the stepping and power-loss goldens
/// below. About nine in ten of its events are fNoC flit events, handled
/// in bursts of hundreds, so a stop at an arbitrary instant or event
/// count almost always cuts a burst. `loss_at_event` above zero enables
/// the durability model and cuts power after that many events.
fn fnoc_gc_sim(loss_at_event: u64) -> SsdSim {
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.gc_continuous = true;
    if loss_at_event > 0 {
        cfg.durability = Some(DurabilityConfig::default());
        cfg.power_loss.at_event = loss_at_event;
    }
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.begin_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(3));
    sim
}

/// Where a stepped run stands: the replay cursor and the state digest.
fn stop_line(sim: &SsdSim) -> String {
    format!("events={} digest={:#018x}", sim.events_handled(), sim.state_digest())
}

/// Power cut after an exact event count, at three ordinals that land
/// inside NoC bursts: the burst must stop on the count, and the mount
/// must see exactly the reference engine's media state. Pinned before
/// the fNoC's flit events moved out of the simulator's event queue into
/// the network; checked both in one call and under `run_events(1)`
/// stepping, the reference engine.
#[test]
fn golden_power_loss_cuts_inside_noc_bursts() {
    let golden = [
        (150_001, "events=150001 digest=0xbe1c2434088d7ada RecoveryReport { power_loss_at: SimTime(245806), recovery_time: SimSpan(1018752), checkpoint_pages: 768, journal_pages_replayed: 0, journal_entries_replayed: 0, oob_pages_scanned: 125, torn_pages: 80, lost_acked_writes: 0, resurrected_trims: 0, requests_torn: 64 }"),
        (404_040, "events=404040 digest=0xf9664f379707ad2a RecoveryReport { power_loss_at: SimTime(591170), recovery_time: SimSpan(1591800), checkpoint_pages: 768, journal_pages_replayed: 0, journal_entries_replayed: 0, oob_pages_scanned: 627, torn_pages: 104, lost_acked_writes: 0, resurrected_trims: 0, requests_torn: 64 }"),
        (777_773, "events=777773 digest=0x2f48db87c57639b4 RecoveryReport { power_loss_at: SimTime(1538398), recovery_time: SimSpan(1600896), checkpoint_pages: 768, journal_pages_replayed: 6, journal_entries_replayed: 1536, oob_pages_scanned: 630, torn_pages: 88, lost_acked_writes: 0, resurrected_trims: 0, requests_torn: 64 }"),
    ];
    for stepped in [false, true] {
        for (at_event, want) in golden {
            let mut sim = fnoc_gc_sim(at_event);
            let state = if stepped {
                loop {
                    match sim.run_events(1) {
                        RunState::Paused => {}
                        state => break state,
                    }
                }
            } else {
                sim.run_events(u64::MAX)
            };
            assert_eq!(state, RunState::Halted);
            let rec = sim.report().recovery.expect("an armed loss reports recovery");
            let got = format!("{} {rec:?}", stop_line(&sim));
            assert_eq!(got, want, "stepped={stepped}: loss at event {at_event} drifted");
        }
    }
}

/// `run_until` every 250 µs: every stop, not only the end, must hold the
/// pinned state. Pinned like the power-loss cuts above.
#[test]
fn golden_run_until_ladder_over_fnoc_gc() {
    let golden = [
        "events=151879 digest=0xf0da2f7528f3e738",
        "events=336222 digest=0x07372d5c1ac932ac",
        "events=489332 digest=0xcde966747f9df750",
        "events=567780 digest=0x36a4cb15357a7908",
        "events=653482 digest=0x1991486ddef1664e",
        "events=739687 digest=0x9cbf60bf6f937fab",
        "events=831206 digest=0x7bf0b9bbf84cfedb",
        "events=921459 digest=0xdb89a43456fc1b83",
        "events=1046141 digest=0x3807c3d25658d133",
        "events=1148653 digest=0x2dfab93940663e53",
        "events=1262190 digest=0x8c623c4a9a1ae721",
        "events=1347486 digest=0x255ab1eb6c13b53f",
        "events=1347486 digest=0xd590932b8b3c15a0",
    ];
    let mut sim = fnoc_gc_sim(0);
    let mut got = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t += SimSpan::from_us(250);
        let state = sim.run_until(t);
        got.push(stop_line(&sim));
        if state != RunState::Paused {
            break;
        }
    }
    assert_eq!(got, golden, "run_until ladder drifted");
}

/// `run_events(70_001)` to the end: an odd budget that stops inside
/// bursts. Pinned like the power-loss cuts above.
#[test]
fn golden_run_events_ladder_over_fnoc_gc() {
    let golden = [
        "events=70001 digest=0xc6cef30592269273",
        "events=140002 digest=0x36aa44cddfc0de07",
        "events=210003 digest=0x7c53ee215947216b",
        "events=280004 digest=0xf1b06ee071a12451",
        "events=350005 digest=0x947aa6c0e1750948",
        "events=420006 digest=0x6ccf5a7861706435",
        "events=490007 digest=0x13959284725a6dc2",
        "events=560008 digest=0x1978bd5fc7e23358",
        "events=630009 digest=0xb75a235b4479aac7",
        "events=700010 digest=0x559e4d423aa5c750",
        "events=770011 digest=0x31dc1e1c0f23ad82",
        "events=840012 digest=0x95493ec17838dbaa",
        "events=910013 digest=0x4c86a015de6af0cc",
        "events=980014 digest=0x37757991f4da6958",
        "events=1050015 digest=0xa30abd5026518c27",
        "events=1120016 digest=0x4a25b29474e6782d",
        "events=1190017 digest=0xc6b43867be566804",
        "events=1260018 digest=0x689be7f1544aed93",
        "events=1330019 digest=0x5ac9a28202371bdd",
        "events=1347486 digest=0xd590932b8b3c15a0",
    ];
    let mut sim = fnoc_gc_sim(0);
    let mut got = Vec::new();
    loop {
        let state = sim.run_events(70_001);
        got.push(stop_line(&sim));
        if state != RunState::Paused {
            break;
        }
    }
    assert_eq!(got, golden, "run_events ladder drifted");
}

/// One prefilled closed-loop run of `wl` for `ms` on `cfg`: `summary`
/// plus the GC issue digest, the state digest, the fault counters that
/// repair and retirement move, and the RBT occupancy.
fn aged_line(cfg: SsdConfig, wl: SyntheticWorkload, ms: u64) -> String {
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
    let f = sim.report().faults;
    let channels = sim.config().geometry.channels as usize;
    let rbt: usize = (0..channels).map(|c| sim.controller(c).rbt().len()).sum();
    format!(
        "{} gc_issue={:#018x} digest={:#018x} blocks_retired={} sb_retired={} failed={} rbt={rbt} retired={}",
        summary(&mut sim),
        sim.report().gc_issue_digest,
        sim.state_digest(),
        f.blocks_retired,
        f.superblocks_retired,
        f.requests_failed,
        sim.ftl().retired_superblocks().len(),
    )
}

/// Golden fingerprints for paths no other golden reaches, captured
/// before the simulator was split into per-component modules: online
/// dynamic superblocks under accelerated aging with a reserved pool and
/// a 24-entry SRT, which fills up, so worn superblocks retire whole and
/// their healthy sub-blocks feed the recycle bins (dSSD; with injected
/// read and program faults, online retirements too) or just retire
/// (Baseline); and the WAS endurance scan contending with 4 KiB writes.
#[test]
fn golden_aged_dynamic_superblocks_and_was_scan() {
    let aged = |arch| {
        let mut cfg = SsdConfig::test_tiny(arch);
        cfg.gc_continuous = true;
        cfg.dynamic_sb = Some(DynamicSbConfig {
            pe_mean: 8.0,
            pe_sigma: 4.0,
            wear_acceleration: 4,
            reserved_fraction: 0.1,
            srt_entries: 24,
        });
        cfg
    };
    let writes = || SyntheticWorkload::writes(AccessPattern::Random, 8);
    assert_eq!(
        aged_line(aged(Architecture::Dssd), writes(), 40),
        "req=3583 gc_pages=12288 gc_rounds=6 io_bytes=117407744 gc_bytes=50331648 mean_ns=395502 p99_ns=610560 first_gc=Some(0) remaps=192 bad_sb=5 gc_issue=0x2baf8d73834a2f4d digest=0x6c0c02f289e4ab2b blocks_retired=0 sb_retired=0 failed=0 rbt=5007 retired=11",
        "aged dSSD run drifted from the golden run"
    );
    assert_eq!(
        aged_line(aged(Architecture::Baseline), writes(), 40),
        "req=3071 gc_pages=9385 gc_rounds=5 io_bytes=100630528 gc_bytes=38440960 mean_ns=584743 p99_ns=903884 first_gc=Some(0) remaps=0 bad_sb=5 gc_issue=0xcd17f23ae3686fbc digest=0x998b66bcd4274dde blocks_retired=0 sb_retired=0 failed=0 rbt=3072 retired=11",
        "aged Baseline run drifted from the golden run"
    );
    let mut faulty = aged(Architecture::Dssd);
    faulty.faults = FaultConfig::none();
    faulty.faults.read_hard_prob = 0.002;
    faulty.faults.program_fail_prob = 0.01;
    assert_eq!(
        aged_line(faulty, SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5), 40),
        "req=10187 gc_pages=20480 gc_rounds=7 io_bytes=166903808 gc_bytes=83886080 mean_ns=233985 p99_ns=664111 first_gc=Some(0) remaps=192 bad_sb=6 gc_issue=0xf3620a804e580430 digest=0xe1c5dc739efe2145 blocks_retired=76 sb_retired=4 failed=23 rbt=5781 retired=12",
        "aged dSSD run with media faults drifted from the golden run"
    );
    let mut was = SsdConfig::test_tiny(Architecture::Baseline);
    was.was_scan = Some(WasScanConfig {
        tracked_blocks: 16384,
        interval: SimSpan::from_ms(3),
    });
    assert_eq!(
        aged_line(was, SyntheticWorkload::writes(AccessPattern::Random, 1), 20),
        "req=4288 gc_pages=1922 gc_rounds=1 io_bytes=17563648 gc_bytes=7872512 mean_ns=294443 p99_ns=608240 first_gc=Some(0) remaps=0 bad_sb=0 gc_issue=0x94697e177b43ac00 digest=0x46449b23ffb1aa45 blocks_retired=0 sb_retired=0 failed=0 rbt=0 retired=0",
        "WAS-scan run drifted from the golden run"
    );
}
