//! Flash-side express path differential gates.
//!
//! With `flash_express` off the simulator is the unmodified
//! one-event-at-a-time reference engine; with it on (the default), the
//! NoC burst loop drains runs of NoC events with one fused queue pop
//! each, and the flash-leg chain walk coalesces provably conflict-free
//! event chains without going through the central queue. Nothing observable
//! may change: report fingerprints, the state digest, event accounting,
//! and NoC credit-stall counts must be byte-identical across every
//! architecture, workload mix, seed, fault class, and power-loss
//! placement — and a snapshot taken inside an express window must
//! restore to a byte-identical continuation.
//!
//! Watched and stepped runs keep the express paths: the chain walk and
//! the burst stop at one observation bound (the stepping stop, the next
//! epoch boundary, the power-loss instant). The power-loss, epoch,
//! `run_until` and live-injection cases below fail if either runs past
//! it.

use dssd_kernel::{Rng, SimSpan, SimTime};
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, RunPlan, RunState, SimSnapshot, SsdConfig, SsdSim,
    TraceConfig, EPOCH_COLUMNS,
};
use dssd_workload::{open_loop_schedule, AccessPattern, SyntheticWorkload};

/// Order-sensitive digest of a finished run: live-state digest, both
/// event counters, the NoC's credit-stall count (counted inside the
/// sweeps the express path elides or replays), and the report numbers
/// the paper's figures are built from.
fn fingerprint(sim: &mut SsdSim) -> String {
    let digest = sim.state_digest();
    let events = sim.events_handled();
    let stalls = sim.noc().map_or(0, |n| n.stats().credit_stalls);
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "digest={digest:016x} events={events} delivered={} stalls={stalls} req={} io_bytes={} gc_pages={} mean_ns={} p99_ns={}",
        r.events_delivered,
        r.requests_completed,
        r.io_bw.total_bytes(),
        r.gc_pages_copied,
        r.mean_latency().as_ns(),
        p99,
    )
}

fn run(mut cfg: SsdConfig, wl: SyntheticWorkload, ms: u64, express: bool) -> String {
    cfg.flash_express = express;
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
    fingerprint(&mut sim)
}

fn gc_heavy(arch: Architecture, express: bool) -> SsdConfig {
    let mut cfg = SsdConfig::test_tiny(arch);
    cfg.gc_continuous = true;
    cfg.flash_express = express;
    cfg
}

fn coalesced(sim: &SsdSim) -> u64 {
    sim.flash_express_diag().0
}

/// A 3 ms closed-loop run sampled every 97 µs: the report fingerprint,
/// the epoch series as JSONL, and the events the chain walk coalesced.
fn epoch_run(cfg: SsdConfig, wl: SyntheticWorkload) -> (String, String, u64) {
    let mut sim = SsdSim::new(cfg);
    sim.enable_tracing(TraceConfig { window: None, epoch: Some(SimSpan::from_us(97)) });
    sim.prefill();
    sim.run_closed_loop(wl, SimSpan::from_ms(3));
    let series = sim.epoch_series().expect("epoch sampling enabled").to_jsonl_string();
    (fingerprint(&mut sim), series, coalesced(&sim))
}

/// The service pacer's pattern on a 4 ms open-loop schedule: advance
/// with `run_until_before(t)`, then inject the arrival at `t`. Returns
/// the fingerprint and the coalesced-event count.
fn paced_run(cfg: SsdConfig) -> (String, u64) {
    let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5).bind(1 << 15);
    let plan = open_loop_schedule(wl, 120_000.0, SimSpan::from_ms(4), &mut Rng::new(77));
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.begin_open_loop(SimSpan::from_ms(4));
    for (t, r) in plan {
        sim.run_until_before(t);
        sim.inject_arrival(t, r);
    }
    sim.run_events(u64::MAX);
    sim.finish_run();
    (fingerprint(&mut sim), coalesced(&sim))
}

/// Every architecture × workload-mix × seed: the express run must be
/// byte-identical to the event-level run. The mixes cover the write
/// path (bus + die + GC copies), the read path (die + ECC + sysbus),
/// and the DRAM-hit path (the fig10 scenario), so every leg the chain
/// walk can coalesce is crossed with every architecture's transport.
#[test]
fn randomized_mixes_are_bit_identical_across_architectures_and_seeds() {
    let mixes: [(&str, u32, f64, f64); 3] = [
        ("writes", 8, 0.0, 0.0),
        ("mixed", 4, 0.5, 0.0),
        ("dram_hits", 8, 1.0, 1.0),
    ];
    for arch in Architecture::all() {
        for &(mix, pages, reads, hit) in &mixes {
            for seed_salt in [0u64, 0x5EED] {
                let mut cfg = SsdConfig::test_tiny(arch);
                cfg.gc_continuous = true;
                cfg.seed ^= seed_salt;
                let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                    .with_dram_hit_fraction(hit);
                let on = run(cfg.clone(), wl.clone(), 3, true);
                let off = run(cfg, wl, 3, false);
                assert_eq!(
                    on, off,
                    "{}/{mix}/salt={seed_salt:#x}: express diverged",
                    arch.label()
                );
            }
        }
    }
}

/// Fault injection forces the paths the chain walk must *not* coalesce
/// (read-retry re-issues, program-failure remaps, erase failures, NoC
/// degradations that demote express groups): the deferred-continuation
/// handoff only covers the final clean-path push of each leg handler,
/// so every fault-path push still goes through the queue, in order.
#[test]
fn fault_and_retry_paths_are_bit_identical() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for seed_salt in [0u64, 0xFA17] {
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = true;
            cfg.faults = f;
            cfg.seed ^= seed_salt;
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5);
            let on = run(cfg.clone(), wl.clone(), 4, true);
            let off = run(cfg, wl, 4, false);
            assert_eq!(
                on, off,
                "{}/salt={seed_salt:#x}: express diverged under faults",
                arch.label()
            );
        }
    }
}

/// Power loss armed at a simulated instant or an exact event count: the
/// loss instant bounds the chain walk and the burst, and the event
/// count caps their budget, so the express run must crash at exactly
/// the reference engine's point and recover to identical state.
#[test]
fn power_loss_placements_are_bit_identical() {
    let run_loss = |express: bool, at_ns: u64, at_event: u64| {
        let mut cfg = gc_heavy(Architecture::DssdFnoc, express);
        cfg.durability = Some(DurabilityConfig::default());
        cfg.power_loss.at = SimTime::from_ns(at_ns);
        cfg.power_loss.at_event = at_event;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        sim.run_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(3));
        let rec = sim.report().recovery.expect("armed loss must report recovery");
        assert!(rec.invariants_hold(), "recovery invariants violated");
        (fingerprint(&mut sim), coalesced(&sim))
    };
    // Mid-run instants (the first two land inside NoC bursts that would
    // run past the loss if the instant did not bound them) and three
    // exact event-count placements.
    for at_ns in [400_013, 733_331, 1_000_337] {
        let (on, n) = run_loss(true, at_ns, 0);
        assert!(n > 0, "the express run must coalesce before the loss");
        assert_eq!(on, run_loss(false, at_ns, 0).0, "power loss at {at_ns} ns diverged");
    }
    for at_event in [5_000, 12_345, 250_001] {
        assert_eq!(
            run_loss(true, 0, at_event).0,
            run_loss(false, 0, at_event).0,
            "power-loss-at-event {at_event} diverged"
        );
    }
}

/// A snapshot captured while the express path is mid-flight (the cursor
/// lands inside what would be a coalesced chain) must restore and
/// continue byte-identically: `run_events(limit)` demotes the chain
/// continuation to the queue when it hits the limit, so any cursor is a
/// clean cut point.
#[test]
fn snapshot_inside_express_window_restores_byte_identically() {
    let plan = RunPlan {
        workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
        duration: SimSpan::from_ms(3),
    };
    let cfg = || {
        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.gc_continuous = true;
        c
    };
    // Odd cursors make it likely the cut lands mid-chain (flash legs
    // coalesce in runs of 2-6 events).
    for cursor in [777u64, 10_001, 25_003] {
        let mut sim = SsdSim::new(cfg());
        sim.prefill();
        sim.begin_closed_loop(plan.workload.clone(), plan.duration);
        assert_eq!(sim.run_events(cursor), RunState::Paused);
        assert_eq!(sim.events_handled(), cursor, "run_events overshot the limit");
        let snap = SimSnapshot::capture(&sim, &plan);
        let mut resumed = snap.restore(cfg(), &plan).expect("mid-window restore");
        assert_eq!(resumed.state_digest(), sim.state_digest());
        sim.run_events(u64::MAX);
        resumed.run_events(u64::MAX);
        sim.finish_run();
        resumed.finish_run();
        assert_eq!(
            fingerprint(&mut sim),
            fingerprint(&mut resumed),
            "cursor {cursor}: resumed run diverged"
        );
    }
}

/// Epoch sampling reads queue depths, utilizations and counters at each
/// boundary, so a chain that ran past one would change that row. The
/// report and the epoch JSONL must both be byte-equal.
#[test]
fn epoch_sampling_is_bit_identical() {
    let mixes: [(&str, u32, f64, f64); 2] =
        [("writes", 8, 0.0, 0.0), ("dram_hits", 8, 1.0, 1.0)];
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        for &(mix, pages, reads, hit) in &mixes {
            let wl = SyntheticWorkload::mixed(AccessPattern::Random, pages, reads)
                .with_dram_hit_fraction(hit);
            let (on, on_series, _) = epoch_run(gc_heavy(arch, true), wl.clone());
            let (off, off_series, _) = epoch_run(gc_heavy(arch, false), wl);
            assert_eq!(on, off, "{}/{mix}: express diverged with epochs on", arch.label());
            assert_eq!(on_series, off_series, "{}/{mix}: epoch series diverged", arch.label());
        }
    }
}

/// Each epoch row of an express run must hold the reference engine's
/// state at its boundary. The reference steps to every boundary with
/// `run_until_before`, which stops there without epochs or express, so
/// a sample taken late (a walk past the boundary, or a bound that
/// forgot the epoch) shows up here even if both modes share the error.
#[test]
fn epoch_rows_hold_the_reference_state_at_each_boundary() {
    let every = SimSpan::from_us(97);
    let writes = || SyntheticWorkload::writes(AccessPattern::Random, 8);
    let mut sampled = SsdSim::new(gc_heavy(Architecture::DssdFnoc, true));
    sampled.enable_tracing(TraceConfig { window: None, epoch: Some(every) });
    sampled.prefill();
    sampled.run_closed_loop(writes(), SimSpan::from_ms(3));
    let col = |name: &str| EPOCH_COLUMNS.iter().position(|c| *c == name).expect("epoch column");
    let (free, noc, rate) = (col("free_superblocks"), col("noc_in_flight"), col("completed_per_s"));

    let mut reference = SsdSim::new(gc_heavy(Architecture::DssdFnoc, false));
    reference.prefill();
    reference.begin_closed_loop(writes(), SimSpan::from_ms(3));
    let mut completed = 0.0;
    let rows = sampled.epoch_series().expect("epoch sampling enabled").rows();
    assert!(rows.len() >= 30, "only {} epoch rows", rows.len());
    for (k, row) in rows.iter().enumerate() {
        reference.run_until_before(SimTime::ZERO + every * (k as u64 + 1));
        completed += row[rate] * every.as_secs_f64();
        let got = (row[free] as usize, row[noc] as usize, completed.round() as u64);
        let want = (
            reference.ftl().free_superblocks(),
            reference.noc().map_or(0, |n| n.in_flight()),
            reference.report().requests_completed,
        );
        assert_eq!(got, want, "epoch row {k} was not sampled at its boundary");
    }
}

/// The progress heartbeat only writes to stderr and needs no bound: the
/// express run keeps coalescing and stays identical.
#[test]
fn progress_reporting_is_bit_identical() {
    let run = |express: bool| {
        let mut sim = SsdSim::new(gc_heavy(Architecture::DssdFnoc, express));
        sim.set_progress(true);
        sim.prefill();
        sim.run_closed_loop(
            SyntheticWorkload::writes(AccessPattern::Random, 8),
            SimSpan::from_ms(3),
        );
        assert_eq!(coalesced(&sim) > 0, express, "only the express run coalesces");
        fingerprint(&mut sim)
    };
    assert_eq!(run(true), run(false), "express diverged with progress on");
}

/// `run_until(t)` must leave exactly the reference engine's state at
/// `t`, so the digest at every pause is compared, not only the final
/// report. The odd slice lengths land pauses inside leg chains.
#[test]
fn run_until_slices_are_bit_identical() {
    for slice in [SimSpan::from_ns(7_919), SimSpan::from_ns(41_017)] {
        let run = |express: bool| {
            let mut sim = SsdSim::new(gc_heavy(Architecture::DssdFnoc, express));
            sim.prefill();
            sim.begin_closed_loop(
                SyntheticWorkload::writes(AccessPattern::Random, 8),
                SimSpan::from_ms(3),
            );
            let mut pauses = Vec::new();
            let mut t = SimTime::ZERO;
            let mut state = RunState::Paused;
            while state == RunState::Paused && t < sim.horizon() {
                t += slice;
                state = sim.run_until(t);
                pauses.push((sim.events_handled(), sim.state_digest()));
            }
            if state == RunState::Paused {
                sim.run_events(u64::MAX);
            }
            sim.finish_run();
            (fingerprint(&mut sim), pauses)
        };
        let (on, on_pauses) = run(true);
        let (off, off_pauses) = run(false);
        let first_diff = on_pauses.iter().zip(&off_pauses).position(|(a, b)| a != b);
        assert_eq!(first_diff, None, "slice {slice:?}: pause states diverged");
        assert_eq!(on, off, "slice {slice:?}: express diverged");
    }
}

/// Live injection between `run_until_before` steps: a chain or burst
/// that reached the next arrival's instant would run events the
/// arrival must precede.
#[test]
fn live_injection_between_steps_is_bit_identical() {
    for arch in [Architecture::Dssd, Architecture::DssdFnoc] {
        let on = paced_run(gc_heavy(arch, true)).0;
        let off = paced_run(gc_heavy(arch, false)).0;
        assert_eq!(on, off, "{}: express diverged under live injection", arch.label());
    }
}

/// The express path must actually fire on the architectures that carry
/// flash traffic (otherwise the A/B rows above prove nothing), also in
/// epoch-sampled and paced runs, and its diagnostics must stay zero
/// with the flag off.
///
/// The coalesced count holds chain-walk legs only: a NoC burst pops
/// every event it handles from the queue. The walk coalesces 27 legs in
/// the 3 ms run below, a deterministic count, so the bound is that.
#[test]
fn express_diagnostics_report_coalesced_work() {
    let writes = || SyntheticWorkload::writes(AccessPattern::Random, 8);
    let mut sim = SsdSim::new(gc_heavy(Architecture::DssdFnoc, true));
    sim.prefill();
    sim.run_closed_loop(writes(), SimSpan::from_ms(3));
    let n = coalesced(&sim);
    assert!(n >= 27, "chain walk coalesced only {n} events");

    let (_, _, n) = epoch_run(gc_heavy(Architecture::DssdFnoc, true), writes());
    assert!(n > 0, "chain walk coalesced nothing with epochs on");
    let (_, n) = paced_run(gc_heavy(Architecture::DssdFnoc, true));
    assert!(n > 0, "chain walk coalesced nothing under run_until_before");

    let mut off = SsdSim::new(gc_heavy(Architecture::DssdFnoc, false));
    off.prefill();
    off.run_closed_loop(writes(), SimSpan::from_ms(3));
    assert_eq!(off.flash_express_diag(), (0, 0), "reference engine must not coalesce");
}
