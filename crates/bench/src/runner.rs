//! Parallel sweep runner and machine-readable benchmark output.
//!
//! A *sweep* is a list of independent simulation points (same harness,
//! different config or workload knobs). Each point is a self-contained
//! deterministic run, so points can be fanned out across cores with
//! [`dssd_kernel::parallel::map_parallel`]: results come back in input
//! order and every per-point number is bit-identical to a serial run —
//! only wall-clock time changes with `jobs`.
//!
//! [`write_bench_json`] persists per-scenario wall time and events/sec
//! as `results/bench.json` without pulling in a JSON dependency.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use dssd_kernel::parallel::map_parallel;
use dssd_kernel::SimSpan;
use dssd_ssd::{Architecture, SsdConfig};
use dssd_telemetry::chrome::escape;
use dssd_workload::AccessPattern;

use crate::{perf_config, run_synthetic, PerfSummary};

/// One independent point of a sweep: a full simulator config plus the
/// closed-loop synthetic workload to drive it with.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Display label, unique within the sweep (e.g. `dSSD_f/x2.0`).
    pub label: String,
    /// Simulator configuration (architecture, geometry, faults, seed).
    pub config: SsdConfig,
    /// Spatial access pattern of the synthetic workload.
    pub pattern: AccessPattern,
    /// Pages per host request.
    pub request_pages: u32,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Fraction of reads served from DRAM.
    pub dram_hit: f64,
    /// Simulated duration of the run.
    pub duration: SimSpan,
}

impl SweepPoint {
    /// A saturating random-write point — the workload of the Fig 7/8
    /// performance sweeps.
    #[must_use]
    pub fn writes(label: impl Into<String>, config: SsdConfig, duration: SimSpan) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            config,
            pattern: AccessPattern::Random,
            request_pages: 8,
            read_fraction: 0.0,
            dram_hit: 0.0,
            duration,
        }
    }
}

/// The result of one sweep point, in the order the point was submitted.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The point's label, copied through.
    pub label: String,
    /// Deterministic run summary (identical for every `jobs` value).
    pub summary: PerfSummary,
    /// Host wall-clock time this point took. *Not* deterministic — keep
    /// it out of any output that is diffed across `--jobs` values.
    pub wall: Duration,
}

/// Runs every point and returns outcomes in input order.
///
/// `jobs = 1` runs serially on the calling thread; `jobs = 0` uses all
/// available cores. Per-point results are bit-identical across `jobs`
/// values because each simulation owns its RNG and event queue — nothing
/// is shared between points.
#[must_use]
pub fn run_sweep(points: &[SweepPoint], jobs: usize) -> Vec<SweepOutcome> {
    map_parallel(points, jobs, |_, p| {
        let t0 = Instant::now();
        let summary = run_synthetic(
            p.config.clone(),
            p.pattern,
            p.request_pages,
            p.read_fraction,
            p.dram_hit,
            p.duration,
        );
        SweepOutcome { label: p.label.clone(), summary, wall: t0.elapsed() }
    })
}

/// The standard five-architecture sweep (Fig 7a) at reduced scale.
#[must_use]
pub fn architecture_sweep(duration: SimSpan, gc_continuous: bool) -> Vec<SweepPoint> {
    Architecture::all()
        .into_iter()
        .map(|arch| {
            let mut cfg = perf_config(arch);
            cfg.gc_continuous = gc_continuous;
            SweepPoint::writes(arch.label(), cfg, duration)
        })
        .collect()
}

/// An on-chip bandwidth factor sweep (Fig 8) for one architecture.
#[must_use]
pub fn onchip_factor_sweep(
    arch: Architecture,
    factors: &[f64],
    duration: SimSpan,
) -> Vec<SweepPoint> {
    factors
        .iter()
        .map(|&factor| {
            let cfg = perf_config(arch).with_onchip_factor(factor);
            SweepPoint::writes(format!("{}/x{factor}", arch.label()), cfg, duration)
        })
        .collect()
}

/// One scenario's row in `results/bench.json`.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Scenario name (the benchmark or sweep-point label).
    pub name: String,
    /// Median wall time over the measured samples, milliseconds.
    pub median_ms: f64,
    /// Fastest sample, milliseconds.
    pub min_ms: f64,
    /// Slowest sample, milliseconds.
    pub max_ms: f64,
    /// Kernel events the scenario delivers per run (0 when the scenario
    /// has no event loop, e.g. pure workload generation).
    pub events: u64,
    /// `events / median wall time`; 0 when `events` is unknown.
    pub events_per_sec: f64,
}

impl BenchRecord {
    /// Builds a record from sampled wall times and the (deterministic)
    /// per-run event count.
    #[must_use]
    pub fn from_samples(name: impl Into<String>, samples: &[Duration], events: u64) -> BenchRecord {
        let mut sorted: Vec<Duration> = samples.to_vec();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let eps = if median.is_zero() { 0.0 } else { events as f64 / median.as_secs_f64() };
        BenchRecord {
            name: name.into(),
            median_ms: median.as_secs_f64() * 1e3,
            min_ms: sorted[0].as_secs_f64() * 1e3,
            max_ms: sorted[sorted.len() - 1].as_secs_f64() * 1e3,
            events,
            events_per_sec: eps,
        }
    }
}

/// Serializes records to JSON (no external dependency; two-space indent,
/// stable key order, one object per scenario).
#[must_use]
pub fn bench_json(context: &str, records: &[BenchRecord]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"context\": \"{}\",\n", escape(context)));
    s.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"min_ms\": {:.3}, \"max_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}}}{}\n",
            escape(&r.name),
            r.median_ms,
            r.min_ms,
            r.max_ms,
            r.events,
            r.events_per_sec,
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`bench_json`] to `path`, creating parent directories.
pub fn write_bench_json(path: &Path, context: &str, records: &[BenchRecord]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(bench_json(context, records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Vec<SweepPoint> {
        let mut points = architecture_sweep(SimSpan::from_ms(1), true);
        points.truncate(3);
        points
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        let points = tiny_sweep();
        let serial = run_sweep(&points, 1);
        let parallel = run_sweep(&points, 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label, "outcomes must keep input order");
            assert_eq!(s.summary, p.summary, "{}: jobs=4 diverged from jobs=1", s.label);
        }
    }

    #[test]
    fn sweep_outcomes_keep_input_order() {
        let points = tiny_sweep();
        let out = run_sweep(&points, 0);
        let labels: Vec<&str> = out.iter().map(|o| o.label.as_str()).collect();
        let want: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, want);
        assert!(out.iter().all(|o| o.summary.events > 0));
    }

    #[test]
    fn onchip_sweep_labels_points() {
        let pts = onchip_factor_sweep(
            Architecture::DssdFnoc,
            &[1.25, 2.0],
            SimSpan::from_ms(1),
        );
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].label, "dSSD_f/x1.25");
        assert_eq!(pts[1].label, "dSSD_f/x2");
    }

    #[test]
    fn bench_json_is_well_formed() {
        let records = vec![
            BenchRecord::from_samples(
                "fig08/\"quoted\"",
                &[Duration::from_millis(3), Duration::from_millis(1), Duration::from_millis(2)],
                10_000,
            ),
            BenchRecord::from_samples("plain", &[Duration::from_millis(4)], 0),
        ];
        let json = bench_json("unit-test", &records);
        assert!(json.contains("\"context\": \"unit-test\""));
        assert!(json.contains("fig08/\\\"quoted\\\""));
        assert!(json.contains("\"median_ms\": 2.000"));
        assert!(json.contains("\"events_per_sec\": 5000000"));
        assert!(json.contains("\"events\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // median of a single sample is that sample
        assert!(json.contains("\"median_ms\": 4.000"));
    }
}
