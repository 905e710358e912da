//! Telemetry gates: tracing must be a pure observer.
//!
//! Three layers:
//!
//! * **Perturbation freedom** — the same seed must produce bit-identical
//!   reports with tracing off, fully on, and windowed (the tracer never
//!   schedules events or draws random numbers, and the epoch sampler
//!   piggybacks on the event loop instead of injecting ticks).
//! * **Cross-check** — per-stage sums over the trace must agree with the
//!   simulator's `StageBreakdown` aggregates, both at the summary level
//!   (exact) and after a JSON export/parse round trip (within 1%).
//! * **Schema** — exported documents must pass the Chrome Trace validator.

use dssd_kernel::SimSpan;
use dssd_ssd::{Architecture, FaultConfig, SsdConfig, SsdSim, StageKind, TraceConfig};
use dssd_telemetry::chrome::chrome_trace_string;
use dssd_telemetry::json::{validate_chrome_trace, Json};
use dssd_telemetry::{Class, Stage, TraceEvent};
use dssd_workload::{AccessPattern, SyntheticWorkload};

fn traced_sim(arch: Architecture, cfg: Option<TraceConfig>) -> SsdSim {
    let mut c = SsdConfig::test_tiny(arch);
    c.gc_continuous = true;
    let mut sim = SsdSim::new(c);
    if let Some(cfg) = cfg {
        sim.enable_tracing(cfg);
    }
    sim.prefill();
    sim
}

fn run(sim: &mut SsdSim, ms: u64) {
    let wl = SyntheticWorkload::writes(AccessPattern::Random, 8);
    sim.run_closed_loop(wl, SimSpan::from_ms(ms));
}

/// Order-sensitive digest of a run (mirrors the determinism suite).
fn fingerprint(sim: &mut SsdSim) -> String {
    let p99 = sim.report_mut().latency_percentile(0.99).as_ns();
    let r = sim.report();
    format!(
        "req={} gc_pages={} gc_rounds={} io_bytes={} gc_bytes={} mean_ns={} p99_ns={} \
         events={} digest={:#x} faults={:?}",
        r.requests_completed,
        r.gc_pages_copied,
        r.gc_rounds,
        r.io_bw.total_bytes(),
        r.gc_bw.total_bytes(),
        r.mean_latency().as_ns(),
        p99,
        r.events_delivered,
        r.gc_issue_digest,
        r.faults,
    )
}

#[test]
fn tracing_off_full_and_windowed_are_bit_identical() {
    for arch in Architecture::all() {
        let mut untraced = traced_sim(arch, None);
        run(&mut untraced, 5);
        let want = fingerprint(&mut untraced);

        let full = TraceConfig { window: None, epoch: Some(SimSpan::from_ms(1)) };
        let mut traced = traced_sim(arch, Some(full));
        run(&mut traced, 5);
        assert!(traced.tracer().events_recorded() > 0, "{}: trace empty", arch.label());
        assert_eq!(
            fingerprint(&mut traced),
            want,
            "{}: full tracing perturbed the run",
            arch.label()
        );

        let windowed =
            TraceConfig { window: Some(SimSpan::from_ms(1)), epoch: None };
        let mut traced = traced_sim(arch, Some(windowed));
        run(&mut traced, 5);
        assert!(traced.tracer().events_pruned() > 0, "{}: window never pruned", arch.label());
        assert_eq!(
            fingerprint(&mut traced),
            want,
            "{}: windowed tracing perturbed the run",
            arch.label()
        );
    }
}

#[test]
fn trace_summary_cross_checks_stage_breakdown() {
    for arch in [Architecture::Baseline, Architecture::DssdBus, Architecture::DssdFnoc] {
        let mut sim = traced_sim(arch, Some(TraceConfig::default()));
        run(&mut sim, 5);
        let summary = sim.tracer().summary().expect("tracing enabled");
        let r = sim.report();

        // Same population: the tracer closes an entity exactly when the
        // simulator records it into the breakdown.
        assert_eq!(summary.count(Class::Io), r.io_breakdown.count());
        assert_eq!(summary.count(Class::Gc), r.copyback_breakdown.count());
        assert!(summary.count(Class::Gc) > 0, "{}: no GC traced", arch.label());

        // Per-stage means agree within 1% (exact sums vs f64 accumulation).
        for (class, breakdown) in
            [(Class::Io, &r.io_breakdown), (Class::Gc, &r.copyback_breakdown)]
        {
            let n = summary.count(class) as f64;
            for stage in Stage::ALL {
                let kind = StageKind::all()[stage.index()];
                let want_us = breakdown.mean_us(kind);
                let got_us = summary.stage_total_ns(class, stage) as f64 / 1e3 / n;
                let tol = (want_us * 0.01).max(1e-6);
                assert!(
                    (got_us - want_us).abs() <= tol,
                    "{}: {:?}/{} trace mean {got_us} us vs breakdown {want_us} us",
                    arch.label(),
                    class,
                    kind.label(),
                );
            }
        }
    }
}

#[test]
fn exported_json_validates_and_slice_sums_match_summary() {
    let mut sim = traced_sim(Architecture::DssdFnoc, Some(TraceConfig::default()));
    run(&mut sim, 5);
    let json = chrome_trace_string(sim.tracer());
    let stats = validate_chrome_trace(&json).expect("emitted trace must pass the validator");
    assert!(stats.spans > 0 && stats.asyncs > 0 && stats.metadata > 0);

    // Sum exported "X" slices by stage name and compare against the
    // summary's exact totals. Durations survive export at nanosecond
    // precision (fractional microseconds, three decimals), so 1% covers
    // the f64 round trip.
    let doc = dssd_telemetry::json::parse(&json).unwrap();
    let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let mut sums_us = [[0.0f64; 6]; 2];
    for ev in events {
        if ev.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = ev.get("name").and_then(Json::as_str).unwrap();
        let Some(stage) = Stage::ALL.iter().find(|s| s.label() == name) else {
            continue; // auxiliary slices ("noc hop") overlap transit time
        };
        let class = match ev.get("cat").and_then(Json::as_str) {
            Some("io") => 0,
            Some("gc") => 1,
            other => panic!("unexpected span cat {other:?}"),
        };
        sums_us[class][stage.index()] += ev.get("dur").and_then(Json::as_f64).unwrap();
    }
    let summary = sim.tracer().summary().unwrap();
    for (c, class) in [(0, Class::Io), (1, Class::Gc)] {
        for stage in Stage::ALL {
            let want_us = summary.stage_total_ns(class, stage) as f64 / 1e3;
            let got_us = sums_us[c][stage.index()];
            let tol = (want_us * 0.01).max(1e-3);
            assert!(
                (got_us - want_us).abs() <= tol,
                "{class:?}/{}: exported slices sum to {got_us} us, summary says {want_us} us",
                stage.label(),
            );
        }
    }
}

#[test]
fn fault_instants_reach_the_timeline() {
    let mut f = FaultConfig::none();
    f.read_transient_prob = 0.1;
    f.read_hard_prob = 0.001;
    f.program_fail_prob = 0.005;
    f.erase_fail_prob = 0.02;
    f.noc_degrade_prob = 0.02;
    let mut cfg = SsdConfig::test_tiny(Architecture::DssdFnoc);
    cfg.gc_continuous = true;
    cfg.faults = f;
    let mut sim = SsdSim::new(cfg);
    sim.enable_tracing(TraceConfig::default());
    sim.prefill();
    // Mixed workload so both the read-retry and program-failure paths run.
    let wl = SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.5);
    sim.run_closed_loop(wl, SimSpan::from_ms(10));

    let r = sim.report();
    assert!(r.faults.read_retries > 0 && r.faults.program_failures > 0);
    let mut names: Vec<&str> = sim
        .tracer()
        .events()
        .filter_map(|e| match e {
            TraceEvent::Instant { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    names.sort_unstable();
    names.dedup();
    for want in ["read retry", "program failure", "block retired", "gc round start"] {
        assert!(names.contains(&want), "missing instant {want:?} in {names:?}");
    }
    let json = chrome_trace_string(sim.tracer());
    validate_chrome_trace(&json).expect("fault-laden trace must still validate");
}

#[test]
fn epoch_series_samples_every_boundary() {
    let mut sim = traced_sim(
        Architecture::Dssd,
        Some(TraceConfig { window: None, epoch: Some(SimSpan::from_ms(1)) }),
    );
    run(&mut sim, 5);
    let series = sim.epoch_series().expect("epoch sampling enabled");
    assert_eq!(series.columns(), dssd_ssd::EPOCH_COLUMNS);
    // Boundaries at 1..=5 ms (the horizon boundary is sampled too).
    assert_eq!(series.len(), 5);
    for (i, row) in series.rows().iter().enumerate() {
        assert_eq!(row[0], (i + 1) as f64, "t_ms must advance by the epoch");
    }
    // The JSONL export parses line by line.
    for line in sim.epoch_series().unwrap().to_jsonl_string().lines() {
        dssd_telemetry::json::parse(line).expect("epoch JSONL line must parse");
    }
    // A busy write run must show nonzero throughput in some epoch.
    let io_col = dssd_ssd::EPOCH_COLUMNS.iter().position(|c| *c == "io_gbps").unwrap();
    assert!(series.rows().iter().any(|r| r[io_col] > 0.0));
}

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// The epoch time-series of 6 ms continuous-GC runs with read and fNoC
/// faults, pinned as row count and a hash of the JSONL bytes. Covers the
/// controller columns (`dbuf_in_use`, `ecc_util`) beside the GC and NoC
/// ones, on the three transports of copy jobs: the system bus through
/// DRAM, the dedicated bus and the fNoC.
#[test]
fn golden_epoch_series_under_gc_and_faults() {
    let column = |name: &str| {
        dssd_ssd::EPOCH_COLUMNS
            .iter()
            .position(|c| *c == name)
            .unwrap()
    };
    let jobs = column("gc_jobs_inflight");
    // Write runs: faults come from the fNoC, and only dSSD_f stages
    // copies in the dBUF.
    let (dbuf, faults) = (column("dbuf_in_use"), column("faults_per_s"));
    let mut lines = Vec::new();
    for arch in [
        Architecture::DssdFnoc,
        Architecture::DssdBus,
        Architecture::Baseline,
    ] {
        let mut c = SsdConfig::test_tiny(arch);
        c.gc_continuous = true;
        c.faults = FaultConfig {
            read_hard_prob: 0.002,
            noc_degrade_prob: 0.05,
            ..FaultConfig::none()
        };
        let mut sim = SsdSim::new(c);
        sim.enable_tracing(TraceConfig {
            window: None,
            epoch: Some(SimSpan::from_ms(1)),
        });
        sim.prefill();
        run(&mut sim, 6);
        let series = sim.epoch_series().expect("epoch sampling enabled");
        let label = arch.label();
        for col in [jobs, column("ecc_util"), dbuf, faults] {
            let seen = series.rows().iter().any(|r| r[col] > 0.0);
            let fnoc_only = col == dbuf || col == faults;
            assert!(
                seen || (fnoc_only && arch != Architecture::DssdFnoc),
                "{label}: {col}"
            );
        }
        let hash = fnv1a(series.to_jsonl_string().as_bytes());
        lines.push(format!("{label}: rows={} jsonl={hash:016x}", series.len()));
    }
    assert_eq!(lines.join("\n"), EPOCH_GOLDEN.trim());
}

const EPOCH_GOLDEN: &str = "
dSSD_f: rows=6 jsonl=f2553c8dddcfa769
dSSD_b: rows=6 jsonl=31b316967951590d
Baseline: rows=6 jsonl=3ea6a86ee4b14d78
";
