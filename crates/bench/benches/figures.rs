//! Zero-dependency benchmarks: one per reproduced table/figure, each
//! running a miniaturized version of that experiment's workload so
//! `cargo bench` doubles as a performance regression suite for the
//! simulator itself.
//!
//! The harness times each scenario with `std::time::Instant` (warmup +
//! fixed sample count, median/min/max reported) instead of pulling in
//! `criterion`, so the workspace resolves with no network access.
//! Benchmark names can be filtered by passing substrings:
//! `cargo bench --bench figures -- fig07 fig13`.
//!
//! Besides the console table, a machine-readable copy of every measured
//! scenario — median/min/max wall time plus events/sec where the
//! scenario reports its kernel event count — is written to
//! `results/bench.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dssd_bench::runner::{self, BenchRecord};
use dssd_bench::{perf_config, run_synthetic, run_trace};
use dssd_kernel::{Rng, SimSpan};
use dssd_noc::traffic::{schedule, Pattern};
use dssd_noc::{drive_counted, Network, NocConfig, TopologyKind};
use dssd_reliability::{EnduranceConfig, EnduranceSim, SuperblockPolicy};
use dssd_ssd::{Architecture, SsdConfig, SsdSim};
use dssd_workload::{msr, AccessPattern, SyntheticWorkload};

const MS: u64 = 3;
const WARMUP: usize = 1;
const SAMPLES: usize = 5;

/// Event count of the most recent run, reported by scenarios that know
/// it (via [`note_events`]) so the JSON output can derive events/sec.
/// The count is deterministic across same-seed runs, so "last run" is
/// exact, not approximate.
static EVENTS: AtomicU64 = AtomicU64::new(0);

fn note_events(n: u64) {
    EVENTS.store(n, Ordering::Relaxed);
}

/// Times `f` (WARMUP discarded runs, then SAMPLES measured runs), prints
/// `name: median [min .. max]` and appends a [`BenchRecord`] to `out`.
/// A `std::hint::black_box` on the closure result keeps the work from
/// being optimized away.
fn bench<T>(out: &mut Vec<BenchRecord>, filter: &[String], name: &str, mut f: impl FnMut() -> T) {
    if !filter.is_empty() && !filter.iter().any(|p| name.contains(p.as_str())) {
        return;
    }
    EVENTS.store(0, Ordering::Relaxed);
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let samples: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    let record = BenchRecord::from_samples(name, &samples, EVENTS.load(Ordering::Relaxed));
    println!(
        "{name:<40} {:>10.3} ms  [{:.3} .. {:.3}]",
        record.median_ms, record.min_ms, record.max_ms,
    );
    out.push(record);
}

fn synthetic(arch: Architecture, pages: u32, hit: f64) -> f64 {
    let mut cfg = perf_config(arch);
    cfg.gc_continuous = true;
    let s = run_synthetic(cfg, AccessPattern::Random, pages, 0.0, hit, SimSpan::from_ms(MS));
    note_events(s.events);
    s.io_gbps
}

fn main() {
    // `cargo bench` forwards flags like `--bench`; keep only bare
    // substring patterns as name filters.
    let filter: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let f = &filter;
    let mut records: Vec<BenchRecord> = Vec::new();

    bench(&mut records, f, "table1_config_build", || {
        SsdSim::new(SsdConfig::test_tiny(Architecture::DssdFnoc))
    });

    bench(&mut records, f, "fig02_timeline_baseline", || {
        let (series, first_gc, events) =
            dssd_bench::run_timeline(perf_config(Architecture::Baseline), 8, SimSpan::from_ms(MS));
        note_events(events);
        (series, first_gc)
    });

    for arch in Architecture::all() {
        bench(&mut records, f, &format!("fig07_architectures/{}", arch.label()), || {
            synthetic(arch, 8, 0.0)
        });
    }

    // A/B pair: the same fNoC-heavy point with the express path on
    // (default) and off, so `results/bench.json` records the express
    // speedup. Both runs produce identical reports; only the wall time
    // (and where the flit-level events are simulated) differs.
    for (tag, express) in [("express", true), ("no_express", false)] {
        bench(&mut records, f, &format!("fig08_bw_sweep_point/{tag}"), || {
            let mut cfg = perf_config(Architecture::DssdFnoc).with_onchip_factor(2.0);
            cfg.gc_continuous = true;
            cfg.noc = cfg.noc.with_express(express);
            let s = run_synthetic(cfg, AccessPattern::Random, 8, 0.0, 0.0, SimSpan::from_ms(MS));
            note_events(s.events);
            s
        });
    }

    // The Fig 8 on-chip-factor sweep fanned out through the parallel
    // runner: jobs1 vs jobsN wall times in `results/bench.json` give the
    // sweep's multicore scaling, and the per-point summaries are
    // bit-identical either way (see `runner` tests). The five-architecture
    // sweep is deliberately NOT used here: its dSSD_f point holds ~99% of
    // the events, so by Amdahl's law extra cores could never show — every
    // factor point below is a full-rate dSSD_f run of comparable weight.
    for (tag, jobs) in [("jobs1", 1), ("jobsN", dssd_kernel::parallel::default_jobs())] {
        bench(&mut records, f, &format!("sweep_runner_fig08_factors/{tag}"), || {
            let points = runner::onchip_factor_sweep(
                Architecture::DssdFnoc,
                &[1.0, 1.25, 1.5, 2.0],
                SimSpan::from_ms(MS),
            );
            let out = runner::run_sweep(&points, jobs);
            note_events(out.iter().map(|o| o.summary.events).sum());
            out.len()
        });
    }

    bench(&mut records, f, "fig09_breakdown_run", || {
        synthetic(Architecture::DssdFnoc, 8, 0.0)
    });

    // The all-DRAM-hit point: host I/O rides sysbus/DRAM while GC rides
    // the fNoC, a different event mix from the fig07 dSSD_f row.
    bench(&mut records, f, "fig10_dram_hit_tails", || {
        synthetic(Architecture::DssdFnoc, 8, 1.0)
    });

    let profile = msr::profile("prn_0").unwrap();
    bench(&mut records, f, "fig11_trace_replay", || {
        let s = run_trace(perf_config(Architecture::Baseline), profile, 20.0, SimSpan::from_ms(MS));
        note_events(s.events);
        s
    });

    // Same A/B pairing as fig08 (see above).
    for (tag, express) in [("express", true), ("no_express", false)] {
        bench(&mut records, f, &format!("fig12_noc_bandwidth_point/{tag}"), || {
            let mut cfg = perf_config(Architecture::DssdFnoc);
            cfg.gc_continuous = true;
            cfg.noc = cfg.noc.with_link_bandwidth(2_000_000_000).with_express(express);
            let s = run_synthetic(cfg, AccessPattern::Random, 8, 0.0, 1.0, SimSpan::from_ms(MS));
            note_events(s.events);
            s
        });
    }

    for kind in [TopologyKind::Mesh1D, TopologyKind::Ring, TopologyKind::Crossbar] {
        bench(&mut records, f, &format!("fig13_topologies/{kind:?}"), || {
            let cfg = NocConfig::new(kind, 8).with_bisection_bandwidth(1_000_000_000);
            let mut rng = Rng::new(1);
            let pkts = schedule(
                8,
                Pattern::UniformRandom,
                100_000_000,
                4096,
                SimSpan::from_ms(1),
                &mut rng,
            );
            let mut net = Network::new(cfg);
            let (delivered, events) = drive_counted(&mut net, pkts);
            note_events(events);
            delivered.len()
        });
    }

    // The endurance model is analytic, not event-driven: its erase count
    // is not a kernel event count, so these rows report wall time only.
    for policy in SuperblockPolicy::all() {
        bench(&mut records, f, &format!("fig14_endurance/{}", policy.label()), || {
            EnduranceSim::new(EnduranceConfig::test_small()).run(policy)
        });
    }

    bench(&mut records, f, "fig15_srt_remap_run", || {
        let mut cfg = perf_config(Architecture::DssdFnoc);
        cfg.srt_active_remaps = 256;
        let s = run_synthetic(cfg, AccessPattern::Random, 8, 0.0, 0.0, SimSpan::from_ms(MS));
        note_events(s.events);
        s
    });

    bench(&mut records, f, "fig16_srt_capacity_run", || {
        let cfg = EnduranceConfig { srt_entries: 64, ..EnduranceConfig::test_small() };
        EnduranceSim::new(cfg).run(SuperblockPolicy::Recycled)
    });

    bench(&mut records, f, "write_cache_hot_set", || {
        let mut cfg = perf_config(Architecture::Baseline);
        cfg.write_cache_pages = Some(8192);
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::mixed(AccessPattern::Random, 8, 0.5).with_working_set(4096);
        sim.run_closed_loop(wl, SimSpan::from_ms(MS));
        note_events(sim.report().events_delivered);
        sim.report().requests_completed
    });

    bench(&mut records, f, "open_loop_replay", || {
        let mut cfg = perf_config(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let wl = SyntheticWorkload::writes(AccessPattern::Random, 8).bind(sim.ftl().lpn_count());
        let mut rng = Rng::new(5);
        let sched = dssd_workload::open_loop_schedule(wl, 50_000.0, SimSpan::from_ms(MS), &mut rng);
        sim.run_trace(sched, SimSpan::from_ms(MS));
        note_events(sim.report().events_delivered);
        sim.report().requests_completed
    });

    // The live service front-end over the same machine: two tenants
    // with QoS (rate limit + qd cap + backlog threshold), so the pacer,
    // WRR arbitration, and admission control are all on the timed path.
    // Guarded by perf_guard.py alongside fig08/fig12: the front-end is
    // a per-submission loop, so a slowdown here is a pacer regression
    // even when raw run_trace throughput is unchanged.
    bench(&mut records, f, "serve_two_tenant_qos", || {
        let spec = dssd_service::ServiceSpec::parse(
            "duration_ms 3\nseed 17\nbacklog 192\n\
             tenant a iops=120000 pages=4 read=0.3 rate=400000 burst=64 qd=48 weight=3\n\
             tenant b iops=80000 pages=1 read=0.9 rate=100000 burst=16 qd=16\n",
        )
        .expect("bench spec parses");
        let mut cfg = perf_config(Architecture::DssdFnoc);
        cfg.gc_continuous = true;
        let mut sim = SsdSim::new(cfg);
        sim.prefill();
        let report = dssd_service::serve(&spec, &mut sim);
        note_events(sim.report().events_delivered);
        report.completed()
    });

    bench(&mut records, f, "workload_generation_10k", || {
        let mut w = SyntheticWorkload::writes(AccessPattern::Random, 8).bind(1 << 20);
        let mut rng = Rng::new(3);
        (0..10_000).map(|_| w.next_request(&mut rng).lpn).sum::<u64>()
    });

    // `cargo bench` sets the bench's cwd to the package dir; anchor the
    // output at the workspace root so every invocation writes the same
    // `results/bench.json`.
    let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .join("results/bench.json");
    match runner::write_bench_json(&path, "cargo bench --bench figures", &records) {
        Ok(()) => println!("\nwrote {} records to {}", records.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
