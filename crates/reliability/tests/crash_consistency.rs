//! The crash-consistency acceptance sweep: thousands of crashpoints
//! across three seeds with in-band fault injection enabled, zero
//! recovery-invariant violations, and recovery cost actually reported;
//! and the check that the sweep's crash audit reports exactly what a
//! real power loss at the same event does.

use dssd_kernel::SimSpan;
use dssd_reliability::{sweep, CrashpointConfig, CrashpointReport};
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, PowerLossConfig, RunState, SsdConfig, SsdSim,
};
use dssd_workload::{AccessPattern, SyntheticWorkload};

const SEEDS: [u64; 3] = [11, 22, 33];

/// `test_tiny` dSSD_f with the durability model and every fault class
/// firing in-band: transient and hard reads, program and erase failures,
/// NoC degradation.
fn faulty_durable_config() -> SsdConfig {
    let mut base = SsdConfig::test_tiny(Architecture::DssdFnoc);
    base.durability = Some(DurabilityConfig::default());
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.05;
    f.read_hard_prob = 0.002;
    f.program_fail_prob = 0.002;
    f.erase_fail_prob = 0.01;
    f.noc_degrade_prob = 0.01;
    base.faults = f;
    base
}

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.5)
}

const DURATION: SimSpan = SimSpan::from_us(1_500);

/// Crash at every 100th event across three seeds of a faulty 1.5 ms
/// run. Every crashpoint mounts, replays, and must recover without
/// losing an acked write or resurrecting a trim — even while transient
/// reads, program failures, erase failures, and NoC degradation are all
/// firing in-band. Every field of the report is pinned: these are the
/// values the sweep produced when each crashpoint still mounted a full
/// copy of the simulator after a real power loss, so the audit must
/// reproduce them exactly.
#[test]
fn sweep_with_faults_enabled_holds_invariants_at_scale() {
    let report = sweep(&CrashpointConfig {
        base: faulty_durable_config(),
        workload: workload(),
        duration: DURATION,
        stride: 100,
        seeds: SEEDS.to_vec(),
    });

    assert!(report.passed(), "invariant violations: {:?}", report.violations);
    assert_eq!(
        report,
        CrashpointReport {
            points: 24_660,
            seeds: SEEDS.to_vec(),
            violations: Vec::new(),
            torn_pages: 1_441_596,
            requests_torn: 1_578_225,
            pages_read: 27_307_331,
            max_recovery: SimSpan::from_ns(1_700_952),
            total_recovery: SimSpan::from_ns(31_130_168_592),
        }
    );
}

/// The crash audit of a paused run equals, field by field, the recovery
/// report of a fresh run armed to lose power at the same event, at
/// early, middle and late events of every acceptance seed.
#[test]
fn crash_audit_matches_an_armed_power_loss() {
    for seed in SEEDS {
        let mut cfg = faulty_durable_config();
        cfg.seed = seed;
        let start = |cfg: SsdConfig| {
            let mut sim = SsdSim::new(cfg);
            sim.prefill();
            sim.begin_closed_loop(workload(), DURATION);
            sim
        };
        let mut mother = start(cfg.clone());
        for at_event in [1_237, 100_000, 333_333, 777_777] {
            let step = at_event - mother.events_handled();
            assert_eq!(mother.run_events(step), RunState::Paused, "seed {seed}");
            let audit = mother.crash_audit();

            let mut armed_cfg = cfg.clone();
            armed_cfg.power_loss = PowerLossConfig { at_event, ..PowerLossConfig::none() };
            let mut armed = start(armed_cfg);
            assert_eq!(armed.run_events(u64::MAX), RunState::Halted, "seed {seed}");
            assert_eq!(armed.events_handled(), at_event);
            assert_eq!(
                armed.report().recovery,
                Some(audit),
                "seed {seed}, power loss after event {at_event}"
            );
        }
    }
}

/// The CLI's `crashpoints --ms 1 --stride 500 --seeds 1
/// --ckpt-interval-pages 256`: a sweep over a dSSD_f run that takes a
/// checkpoint every 256 data programs, so crashpoints land before,
/// while and after each checkpoint's flush. Every field is pinned.
#[test]
fn checkpointed_sweep_holds_invariants() {
    let mut base = SsdConfig::test_tiny(Architecture::DssdFnoc);
    base.durability =
        Some(DurabilityConfig { checkpoint_interval_pages: 256, ..DurabilityConfig::default() });
    let report = sweep(&CrashpointConfig {
        base,
        workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
        duration: SimSpan::from_ms(1),
        stride: 500,
        seeds: vec![1],
    });
    assert!(report.passed(), "invariant violations: {:?}", report.violations);
    assert_eq!(
        report,
        CrashpointReport {
            points: 1_057,
            seeds: vec![1],
            violations: Vec::new(),
            torn_pages: 99_971,
            requests_torn: 67_648,
            pages_read: 1_256_843,
            max_recovery: SimSpan::from_ns(1_828_296),
            total_recovery: SimSpan::from_ns(1_432_519_944),
        }
    );
}
