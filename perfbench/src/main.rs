//! End-to-end and per-layer benchmark of the dSSD simulator.
//!
//! ```text
//! dssd-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! dssd-perfbench --self-test
//! dssd-perfbench --record-fingerprints [--seeds A-B]
//! ```
//!
//! A run repeats the workload until `--seconds` of host time have passed,
//! each repetition cold: it builds its simulator on a fresh thread, so no
//! per-thread memo survives from one repetition to the next, just as none
//! survives between two `dssd-cli` processes. It prints every metric as
//! `name value unit`, then one JSON line with the check result and all
//! metrics. With `--trace 1` every second repetition is traced (its spans
//! are kept and written to `.bench_out/`); per-layer host times come from
//! the traced repetitions and the end-to-end ones from the untraced.
//! Every host time is scaled by a host-speed probe timed around its
//! repetition (`probe.rs`; `NOISE.md` has the measurements behind it).

mod check;
mod probe;
mod spans;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use dssd_kernel::SimSpan;

use crate::check::{fingerprint_errors, key, valid_metric_name, Fingerprint};
use crate::probe::{Probe, PROBE_REF_S};
use crate::workloads::{run_rep, Counter, Phases, Rep, Workload};

/// The seed the stored fingerprints of the self-test are recorded for.
const DEFAULT_SEED: u64 = 1;
/// Fewest repetitions of each kind a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::from_name(v).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{v}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--self-test") => return self_test(),
        Some("--record-fingerprints") => return record_fingerprints(&argv[1..]),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) if a.workload.is_some() => a,
        Ok(_) => {
            eprintln!("error: --workload is required");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one repetition on a fresh thread (see [`run_rep`]). A panic is
/// returned as an error, to be counted as a failed repetition.
fn cold_rep(
    w: Workload,
    seed: u64,
    span: SimSpan,
    rep: u32,
    origin: Instant,
    traced: bool,
) -> Result<Rep, String> {
    std::thread::Builder::new()
        .name(format!("rep-{rep}"))
        .spawn(move || run_rep(w, seed, span, rep, origin, traced))
        .map_err(|e| format!("cannot spawn a repetition thread: {e}"))?
        .join()
        .map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            format!("repetition {rep} panicked: {msg}")
        })
}

/// Median of `xs` (0 when empty).
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Checks every repetition against the stored fingerprint and against the
/// first repetition (fingerprint and every deterministic counter, so
/// e.g. `noc.express_forward_pops` must repeat exactly). Returns one
/// message per failed repetition.
fn check_reps(w: Workload, seed: u64, span: SimSpan, reps: &[&Rep]) -> Vec<String> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let k = key(w.name(), seed, span.as_ns());
    let mut failures = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        let mut errs = rep.violations.clone();
        errs.extend(fingerprint_errors(&k, &rep.fingerprint, &first.fingerprint));
        for (a, b) in rep.counters.iter().zip(&first.counters) {
            if a.value.to_bits() != b.value.to_bits() {
                errs.push(format!(
                    "{} differs from the first repetition: {} vs {}",
                    a.name, a.value, b.value
                ));
            }
        }
        if !errs.is_empty() {
            failures.push(format!("repetition {i}: {}", errs.join("; ")));
        }
    }
    failures
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// The base counts of a ratio, or what a metric is measured over.
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: note.into(),
    }
}

/// Base counts of the ratio counters, by name.
fn ratio_note(c: &Counter, all: &[Counter]) -> String {
    let get = |n: &str| all.iter().find(|c| c.name == n).map_or(0.0, |c| c.value);
    match c.name.as_str() {
        "ssd.chain_ratio" => format!(
            "coalesced {} / (coalesced {} + demoted {})",
            get("ssd.chain_coalesced"),
            get("ssd.chain_coalesced"),
            get("ssd.chain_demoted")
        ),
        "noc.express_payoff" => format!(
            "express_events {} / (forward_pops {} + replay_pops {})",
            get("noc.express_events"),
            get("noc.express_forward_pops"),
            get("noc.express_replay_pops")
        ),
        "service.admit_ratio" => format!(
            "completed {} / submitted {}",
            get("service.completed"),
            get("service.submitted")
        ),
        "ftl.waf" => format!(
            "(host {} + gc {}) / host {}",
            get("ftl.host_pages_written"),
            get("ftl.gc_pages_copied"),
            get("ftl.host_pages_written")
        ),
        _ => String::new(),
    }
}

fn run(a: &Args) -> Result<(), String> {
    let w = a.workload.expect("checked by the caller");
    let span = w.span();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(a.seconds);
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut panics: Vec<String> = Vec::new();
    let mut attempted = 0u32;
    let mut probe = Probe::new();
    let mut probe_s = vec![secs(probe.time())];
    loop {
        let enough = plain.len() >= MIN_REPS && (!a.trace || traced.len() >= MIN_REPS);
        if enough && Instant::now() >= deadline {
            break;
        }
        // Traced runs alternate untraced and traced repetitions, so host
        // drift hits both halves alike and their difference is the
        // tracing overhead.
        let trace_this = a.trace && attempted % 2 == 1;
        let rep = cold_rep(w, a.seed, span, attempted, origin, trace_this);
        // The probes just before and just after a repetition bracket the
        // host speed it ran at.
        let before = probe_s[probe_s.len() - 1];
        let after = secs(probe.time());
        probe_s.push(after);
        match rep {
            Ok(mut rep) => {
                rep.host_scale = PROBE_REF_S / ((before + after) / 2.0);
                if trace_this {
                    traced.push(rep)
                } else {
                    plain.push(rep)
                }
            }
            Err(e) => panics.push(e),
        }
        attempted += 1;
        if panics.len() > attempted as usize / 2 {
            return Err(format!("most repetitions panicked:\n{}", panics.join("\n")));
        }
    }

    let all: Vec<&Rep> = plain.iter().chain(&traced).collect();
    let failures = check_reps(w, a.seed, span, &all);
    let failed_reps = failures.len() + panics.len();
    for e in panics.iter().chain(&failures) {
        eprintln!("check: {e}");
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let reps_note = |n: usize| format!("median of {n} cold repetitions, probe-scaled");
    // End-to-end, from the untraced repetitions. Host times are scaled
    // to the probe's reference speed (`probe.rs`); the raw medians follow
    // as `bench.raw_*`.
    let np = plain.len();
    let sim_ms = |r: &Rep| r.sim_span.as_ns() as f64 / 1e6;
    metrics.push(metric(
        "sim_ms_per_wall_s",
        median_of(&plain, |r| sim_ms(r) / r.secs(r.phases.run())),
        "ms/s",
        reps_note(np),
    ));
    metrics.push(metric(
        "events_per_s",
        median_of(&plain, |r| r.events as f64 / r.secs(r.phases.run())),
        "1/s",
        format!("kernel events; {}", reps_note(np)),
    ));
    metrics.push(metric(
        "setup_s",
        median_of(&plain, |r| r.secs(r.phases.setup())),
        "s",
        format!("config + new + prefill + generate; {}", reps_note(np)),
    ));
    let raw = "median of the same repetitions, unscaled host time";
    metrics.push(metric(
        "bench.raw_sim_ms_per_wall_s",
        median_of(&plain, |r| sim_ms(r) / secs(r.phases.run())),
        "ms/s",
        raw,
    ));
    metrics.push(metric(
        "bench.raw_events_per_s",
        median_of(&plain, |r| r.events as f64 / secs(r.phases.run())),
        "1/s",
        raw,
    ));
    metrics.push(metric(
        "bench.raw_setup_s",
        median_of(&plain, |r| secs(r.phases.setup())),
        "s",
        raw,
    ));
    metrics.push(metric(
        "bench.probe_s",
        median(&mut probe_s),
        "s",
        format!(
            "median of {} host-speed probes; reference {PROBE_REF_S} s",
            probe_s.len()
        ),
    ));

    // Per-layer host times, from the traced repetitions when there are any.
    let layer = if a.trace { &traced } else { &plain };
    let nl = layer.len();
    let phase = |f: fn(&Phases) -> Duration| median_of(layer, |r| r.secs(f(&r.phases)));
    let per = |name: &str, f: fn(&Phases) -> Duration| metric(name, phase(f), "s", reps_note(nl));
    metrics.push(per("ssd.construct_s", |p| p.construct));
    metrics.push(per("ftl.prefill_s", |p| p.prefill));
    metrics.push(per("workload.generate_s", |p| p.generate));
    metrics.push(per("ssd.run_s", |p| p.drive));
    metrics.push(per("ssd.finish_s", |p| p.finish));
    metrics.push(per("ssd.percentile_s", |p| p.percentiles));
    metrics.push(per("telemetry.epoch_jsonl_s", |p| p.export));
    // The service layer's host time is the drive step when it serves.
    let (serve_s, us_per_sub, serve_note) = if w.is_served() {
        let per_sub = median_of(layer, |r| r.secs(r.phases.drive) * 1e6 / r.submitted as f64);
        (phase(|p| p.drive), per_sub, reps_note(nl))
    } else {
        (0.0, 0.0, "not served".to_string())
    };
    metrics.push(metric("service.serve_s", serve_s, "s", serve_note.clone()));
    metrics.push(metric(
        "service.host_us_per_submission",
        us_per_sub,
        "us",
        serve_note,
    ));
    metrics.push(metric(
        "ssd.host_ns_per_event",
        median_of(layer, |r| {
            r.secs(r.phases.drive + r.phases.finish) * 1e9 / r.events as f64
        }),
        "ns",
        "(run + finish) / kernel.events",
    ));
    metrics.push(metric(
        "kernel.host_ns_per_pop",
        median_of(layer, |r| {
            r.secs(r.phases.drive + r.phases.finish) * 1e9 / r.queue_pops as f64
        }),
        "ns",
        "(run + finish) / kernel.queue_pops",
    ));
    if a.trace {
        let total = |r: &Rep| r.secs(r.phases.setup() + r.phases.run());
        let (t, u) = (median_of(&traced, total), median_of(&plain, total));
        metrics.push(metric(
            "bench.trace_overhead_pct",
            (t - u) / u * 100.0,
            "%",
            format!("traced {t:.6} s vs untraced {u:.6} s per repetition"),
        ));
    }
    // Deterministic per-layer counters (identical in every repetition).
    if let Some(first) = all.first() {
        for c in &first.counters {
            metrics.push(metric(
                &c.name,
                c.value,
                c.unit,
                ratio_note(c, &first.counters),
            ));
        }
    }

    for m in &metrics {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name `{}`", m.name));
        }
        println!("{:<36} {:>22} {:<6} {}", m.name, m.value, m.unit, m.note);
    }

    if a.trace {
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", w.name(), a.seed);
        write_spans(&path, &traced)?;
        print_self_times(&traced);
        println!("spans: {} repetitions written to {path}", traced.len());
    }

    let attempted = attempted as usize;
    let correct = failed_reps == 0 && !plain.is_empty();
    let mut json = String::new();
    write!(
        json,
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed_reps},\"metrics\":{{"
    )
    .expect("writing to a String cannot fail");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            json,
            "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    write!(
        json,
        "}},\"meta\":{{\"workload\":\"{}\",\"seed\":{},\"sim_span_ms\":{},\"reps_untraced\":{np},\
         \"reps_traced\":{},\"available_parallelism\":{parallelism},\"profile\":\"{}\",\
         \"preconditioning\":\"prefilled to the edge of GC, write cache off: statistics include GC onset\"}}}}",
        w.name(),
        a.seed,
        span.as_ns() as f64 / 1e6,
        traced.len(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
    .expect("writing to a String cannot fail");
    println!("{json}");
    Ok(())
}

fn write_spans(path: &str, reps: &[Rep]) -> Result<(), String> {
    use std::io::Write as _;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    spans::write_jsonl(&mut w, reps.iter().map(|r| r.spans.as_slice()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    w.flush().map_err(|e| format!("cannot write {path}: {e}"))
}

/// Prints the median self time of each span name over the repetitions.
fn print_self_times(reps: &[Rep]) {
    let mut names: Vec<&'static str> = Vec::new();
    let mut per_name: Vec<Vec<f64>> = Vec::new();
    for r in reps {
        for (name, ns) in spans::self_times(&r.spans) {
            let i = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                names.push(name);
                per_name.push(Vec::new());
                names.len() - 1
            });
            per_name[i].push(ns as f64 / 1e9);
        }
    }
    println!("span self time (median s):");
    for (name, xs) in names.iter().zip(&mut per_name) {
        println!("  {name:<24} {:.6}", median(xs));
    }
}

/// One cold untraced repetition per workload at the self-test span,
/// printed as stored-fingerprint lines; with `--seeds A-B`, also one per
/// seed at the measured span.
fn record_fingerprints(argv: &[String]) -> ExitCode {
    let mut seeds = DEFAULT_SEED..=DEFAULT_SEED;
    if let [flag, range] = argv {
        let parsed = (flag == "--seeds")
            .then(|| range.split_once('-'))
            .flatten()
            .and_then(|(lo, hi)| Some(lo.parse::<u64>().ok()?..=hi.parse::<u64>().ok()?));
        match parsed {
            Some(r) => seeds = r,
            None => {
                eprintln!("error: expected --seeds A-B");
                return ExitCode::FAILURE;
            }
        }
    }
    let origin = Instant::now();
    for w in Workload::ALL {
        let mut points = vec![(DEFAULT_SEED, w.tiny_span())];
        points.extend(seeds.clone().map(|s| (s, w.span())));
        for (seed, span) in points {
            match cold_rep(w, seed, span, 0, origin, false) {
                Ok(rep) => println!("{} {}", key(w.name(), seed, span.as_ns()), rep.fingerprint),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Self-test at tiny spans: metric names are well formed, the stored
/// fingerprints reproduce, and two untraced and one traced repetition
/// agree on every counter, so the traced `model.*` values equal the
/// untraced ones.
fn self_test() -> ExitCode {
    let origin = Instant::now();
    let mut ok = true;
    for w in Workload::ALL {
        let span = w.tiny_span();
        let k = key(w.name(), DEFAULT_SEED, span.as_ns());
        let mut problems: Vec<String> = Vec::new();
        let mut reps = Vec::new();
        for (i, traced) in [false, false, true].into_iter().enumerate() {
            match cold_rep(w, DEFAULT_SEED, span, i as u32, origin, traced) {
                Ok(r) => reps.push(r),
                Err(e) => problems.push(e),
            }
        }
        if check::stored(&k).is_none() {
            problems.push(format!("no stored fingerprint for `{k}`"));
        }
        let refs: Vec<&Rep> = reps.iter().collect();
        problems.extend(check_reps(w, DEFAULT_SEED, span, &refs));
        if let (Some(untraced), Some(traced)) = (reps.first(), reps.last()) {
            if traced.spans.is_empty() || !untraced.spans.is_empty() {
                problems.push("only the traced repetition may record spans".into());
            }
            for c in &traced.counters {
                if !valid_metric_name(&c.name) {
                    problems.push(format!("invalid metric name `{}`", c.name));
                }
            }
        }
        let fp: Option<&Fingerprint> = reps.first().map(|r| &r.fingerprint);
        if problems.is_empty() {
            println!(
                "PASS {k} {}",
                fp.map(ToString::to_string).unwrap_or_default()
            );
        } else {
            ok = false;
            println!("FAIL {k}");
            for p in &problems {
                println!("  {p}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
