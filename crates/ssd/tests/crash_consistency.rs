//! Crash-consistency integration tests: the fault stream across
//! snapshot/restore boundaries, crash audits in zero-rate runs, and
//! journal traffic gating.
//!
//! The large-scale sweep (thousands of crashpoints per seed) and the
//! check that [`SsdSim::crash_audit`] reports exactly what an armed power
//! loss at the same event does live in
//! `crates/reliability/tests/crash_consistency.rs`; these tests pin the
//! stream-discipline properties the sweep relies on.

use dssd_kernel::SimSpan;
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, FaultInjector, RunPlan, RunState, SimSnapshot,
    SsdConfig, SsdSim,
};
use dssd_workload::{AccessPattern, SyntheticWorkload};

fn faulty_durable_config() -> SsdConfig {
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.05;
    f.read_hard_prob = 0.002;
    f.program_fail_prob = 0.002;
    f.erase_fail_prob = 0.01;
    f.noc_degrade_prob = 0.01;
    cfg.faults = f;
    cfg.durability = Some(DurabilityConfig::default());
    cfg
}

fn plan() -> RunPlan {
    RunPlan {
        workload: SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.5),
        duration: SimSpan::from_ms(3),
    }
}

/// Satellite 3, part 1: the `FaultInjector` stream is bit-identical
/// across a snapshot/restore boundary. A run with every fault class
/// enabled is snapshotted mid-flight; the restored sim must finish with
/// the same fault counters, the same report, and the same fault-stream
/// RNG position as the uninterrupted run.
#[test]
fn fault_stream_survives_snapshot_restore_bit_identically() {
    let cfg = faulty_durable_config();
    let plan = plan();

    // Uninterrupted reference run.
    let mut base = SsdSim::new(cfg.clone());
    base.prefill();
    base.begin_closed_loop(plan.workload.clone(), plan.duration);
    base.run_events(u64::MAX);
    let base_digest = base.fault_stream_digest().expect("faults enabled");
    let base_report = format!("{:?}", base.finish_run());

    // Snapshot mid-run, restore, and finish.
    let mut mother = SsdSim::new(cfg.clone());
    mother.prefill();
    mother.begin_closed_loop(plan.workload.clone(), plan.duration);
    assert_eq!(mother.run_events(4_000), RunState::Paused);
    let snap = SimSnapshot::capture(&mother, &plan);
    let bytes = snap.to_bytes();

    let restored = SimSnapshot::from_bytes(&bytes).expect("snapshot decodes");
    let mut resumed = restored.restore(cfg, &plan).expect("restore succeeds");
    assert_eq!(
        resumed.fault_stream_digest(),
        mother.fault_stream_digest(),
        "fault stream position must match at the snapshot point"
    );
    resumed.run_events(u64::MAX);
    assert_eq!(resumed.fault_stream_digest(), Some(base_digest));
    assert_eq!(format!("{:?}", resumed.finish_run()), base_report);
}

/// Satellite 3, part 2 (mechanism): every decision method guards its
/// draw behind a nonzero rate, so zero-rate fault classes never consume
/// stream state — which is what makes crashpoint placement unable to
/// perturb the fault stream in zero-rate runs.
#[test]
fn zero_rate_draws_never_touch_the_stream() {
    // Only the NoC class is armed (the injector must be constructible),
    // so the four zero-rate classes must leave the stream untouched.
    let mut f = FaultConfig::none();
    f.noc_degrade_prob = 0.5;
    let mut inj = FaultInjector::new(f, 7);
    let before = inj.stream_digest();
    for _ in 0..1_000 {
        assert_eq!(inj.read_outcome(), dssd_ssd::ReadFault::None);
        assert!(!inj.program_fails());
        assert!(!inj.erase_fails());
    }
    assert_eq!(inj.stream_digest(), before, "zero-rate calls must not draw");
    inj.noc_degrades();
    assert_ne!(inj.stream_digest(), before, "an armed class does draw");
}

/// Satellite 3, part 3 (whole-sim): in a zero-fault-rate run, crash
/// audits of the mother sim at different placements neither perturb the
/// mother nor trip a recovery invariant — the mother's final report
/// equals a fresh uninterrupted run's.
#[test]
fn crashpoint_placement_cannot_perturb_zero_rate_runs() {
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.durability = Some(DurabilityConfig::default());
    let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
    let dur = SimSpan::from_ms(2);

    let mut reference = SsdSim::new(cfg.clone());
    reference.prefill();
    reference.run_closed_loop(wl.clone(), dur);
    let reference_report = format!("{:?}", reference.report());

    let mut mother = SsdSim::new(cfg);
    mother.prefill();
    mother.begin_closed_loop(wl, dur);
    for placement in [500u64, 900, 1_700] {
        assert_eq!(mother.run_events(placement), RunState::Paused);
        let rec = mother.crash_audit();
        assert!(rec.invariants_hold(), "crashpoint audit violated invariants");
    }
    mother.run_events(u64::MAX);
    mother.finish_run();
    assert_eq!(
        format!("{:?}", mother.report()),
        reference_report,
        "crash audits must not perturb the mother run"
    );
}

/// Journal traffic is strictly gated: with durability off the sim has
/// no metadata stats at all, and with it on the journal actually moves
/// flash pages.
#[test]
fn journal_traffic_is_charged_only_when_durability_is_on() {
    let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
    let dur = SimSpan::from_ms(2);

    let mut plain = SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc));
    plain.prefill();
    plain.run_closed_loop(wl.clone(), dur);
    assert!(plain.meta_stats().is_none(), "durability off ⇒ no metadata model");

    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.durability = Some(DurabilityConfig::default());
    let mut durable = SsdSim::new(cfg);
    durable.prefill();
    durable.run_closed_loop(wl, dur);
    let stats = durable.meta_stats().expect("durability on ⇒ metadata stats");
    assert!(stats.journal_pages > 0, "host writes must flush journal pages");
    assert!(stats.journal_entries > 0);
}

/// A durable 4 ms `test_tiny` run of 8-page random writes that takes a
/// checkpoint every 256 data programs and never loses power: the
/// metadata activity, event count, state and GC issue digests and
/// completions.
fn checkpointed_line(arch: Architecture) -> String {
    let mut cfg = SsdConfig::test_tiny(arch);
    cfg.durability =
        Some(DurabilityConfig { checkpoint_interval_pages: 256, ..DurabilityConfig::default() });
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.run_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(4));
    let m = sim.meta_stats().expect("durability on");
    format!(
        "journal_pages={} journal_entries={} checkpoints={} checkpoint_pages={} events={} digest={:#018x} gc_issue={:#018x} completed={}",
        m.journal_pages,
        m.journal_entries,
        m.checkpoints,
        m.checkpoint_pages,
        sim.events_handled(),
        sim.state_digest(),
        sim.report().gc_issue_digest,
        sim.report().requests_completed,
    )
}

/// Golden checkpointed durable runs, captured before the journal became
/// one flat queue of ops and the checkpoints one queue: periodic
/// checkpoints truncate the journal inside the simulator, which no other
/// golden reaches (`DurabilityConfig::default()` never checkpoints after
/// the mount).
#[test]
fn golden_checkpointed_durable_runs() {
    let got = [checkpointed_line(Architecture::Dssd), checkpointed_line(Architecture::DssdFnoc)];
    let golden = [
        "journal_pages=16 journal_entries=3511 checkpoints=5 checkpoint_pages=3840 events=3686 digest=0x1ed6a9b55a1bdd58 gc_issue=0x79dcb15a3ecc0877 completed=321",
        "journal_pages=17 journal_entries=3752 checkpoints=4 checkpoint_pages=3072 events=987860 digest=0x340d31278cab4111 gc_issue=0x405d5dbfef221868 completed=366",
    ];
    assert_eq!(got, golden, "checkpointed durable runs drifted from the golden runs");
}

/// Crash audits every 500 events of a durable `test_tiny` dSSD run that
/// checkpoints every 256 data programs. The audits land before the
/// first checkpoint, while one is in flight (the older checkpoint is
/// mounted and the journal past it replayed), and after one is durable
/// (little or no journal left to replay); each must hold both
/// invariants. The mount each audit runs is pinned as `(ns, journal
/// pages, journal entries, OOB pages)`.
#[test]
fn crash_audits_hold_across_periodic_checkpoints() {
    let mut cfg = SsdConfig::test_tiny(Architecture::Dssd);
    cfg.durability =
        Some(DurabilityConfig { checkpoint_interval_pages: 256, ..DurabilityConfig::default() });
    let mut sim = SsdSim::new(cfg);
    sim.prefill();
    sim.begin_closed_loop(SyntheticWorkload::writes(AccessPattern::Random, 8), SimSpan::from_ms(4));
    let mut mounts = Vec::new();
    while sim.run_events(500) == RunState::Paused {
        let rec = sim.crash_audit();
        assert!(rec.invariants_hold(), "after event {}: {rec:?}", sim.events_handled());
        let (t, pages) = (rec.power_loss_at.as_ns(), rec.journal_pages_replayed);
        mounts.push((t, pages, rec.journal_entries_replayed, rec.oob_pages_scanned));
    }
    let stats = sim.meta_stats().expect("durability on");
    assert!(stats.checkpoint_pages > 0, "the run took checkpoints: {stats:?}");
    assert_eq!(
        mounts,
        [
            (251_736, 0, 0, 67),
            (652_168, 0, 0, 640),
            (1_000_328, 2, 512, 802),
            (2_170_832, 0, 0, 401),
            (2_504_528, 0, 0, 973),
            (3_258_904, 4, 894, 659),
            (3_655_200, 2, 512, 622),
        ]
    );
}
