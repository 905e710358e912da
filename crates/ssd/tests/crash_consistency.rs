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
