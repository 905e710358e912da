//! `dssd-cli` — drive the dSSD simulator from the command line.
//!
//! ```text
//! dssd-cli run        --arch dssd_f --pages 8 --ms 30 [--pattern random]
//!                     [--qd 64] [--dram-hit] [--gc-continuous] [--seed N]
//!                     [--fault-read-transient P] [--fault-read-hard P]
//!                     [--fault-program P] [--fault-erase P] [--fault-noc P]
//!                     [--fault-max-retries N] [--fault-retry-success P]
//!                     [--durable] [--journal-entries N] [--ckpt-interval-pages N]
//!                     [--power-loss-ms MS] [--power-loss-event N]
//!                     [--power-loss-mttf-ms MS]
//!                     [--snapshot-at-ms MS] [--snapshot-out FILE] [--resume FILE]
//!                     [--trace-out FILE] [--trace-window MS] [--trace-summary]
//!                     [--epoch-out FILE] [--epoch-ms MS]
//!                     [--progress] [--no-noc-express]
//!                     [--srt-remaps N] [--onchip-factor F]
//! dssd-cli sweep      [--arch all|dssd_f] [--factors 1.0,1.5,2.0] [--jobs N]
//!                     [--pages 8] [--ms 5] [--seed N] [--gc-continuous]
//!                     [--json FILE]
//! dssd-cli trace      --volume prn_0 --arch baseline [--speedup 10] [--ms 40]
//!                     [--trace-out FILE] [--trace-window MS] [--trace-summary]
//!                     [--epoch-out FILE] [--epoch-ms MS]
//!                     [--progress] [--no-noc-express]
//! dssd-cli trace      --csv FILE --arch dssd_f [--ms 40]
//! dssd-cli serve      --spec FILE [--arch dssd_f] [--batch] [--report FILE]
//!                     [--trace-out FILE] [--trace-window MS] [--trace-summary]
//!                     [--progress] [--no-noc-express]
//! dssd-cli validate   [--trace FILE] [--epochs FILE] [--service FILE]
//! dssd-cli crashpoints [--arch dssd_f] [--pages 8] [--ms 2] [--stride 500]
//!                     [--seeds 1,2,3] [--journal-entries N]
//!                     [--ckpt-interval-pages N]
//! dssd-cli endurance  [--policy recycled] [--superblocks 256] [--sigma 826.9]
//!                     [--srt 1024] [--reserved 0.07] [--journal-entries N]
//!                     [--ckpt-interval-pages N] [--power-loss-fills F]
//! dssd-cli noc        [--topology mesh|ring|crossbar] [--terminals 8]
//!                     [--pattern uniform|tornado|hotspot] [--load-mbps 150]
//!                     [--no-noc-express]
//! dssd-cli volumes
//! ```
//!
//! Telemetry flags are shared by `run` and `trace`: `--trace-out` writes a
//! Chrome Trace JSON document (load it at <https://ui.perfetto.dev>),
//! `--trace-window MS` caps the ring buffer to the last `MS` milliseconds,
//! `--epoch-out` writes the epoch time-series as JSONL (`--epoch-ms` sets
//! the sampling interval), and `--trace-summary` prints per-stage
//! p50/p99/p99.99 tables next to the `StageKind` breakdown means. Tracing
//! never perturbs a run — the same seed produces byte-identical stdout
//! with and without these flags (all telemetry status goes to stderr).
//!
//! Durability flags (`run`): `--durable` turns on the FTL metadata
//! durability model (OOB P2L, mapping journal, periodic checkpoints —
//! charged as real flash traffic); `--power-loss-ms`/`--power-loss-event`
//! cut power at a simulated instant or event ordinal, and
//! `--power-loss-mttf-ms` draws the loss instant from a dedicated
//! exponential stream; the report then includes the mount/recovery audit.
//! `--snapshot-at-ms` pauses the run mid-flight, writes a replay-cursor
//! snapshot (`--snapshot-out`, default `dssd.snap`), and continues;
//! `--resume FILE` rebuilds that paused state (pass the *same* run flags)
//! and finishes the run — stdout is byte-identical to the uninterrupted
//! run. A resumed run is neither traced nor snapshotted again, so
//! `--resume` refuses the telemetry and snapshot flags. `crashpoints`
//! pauses a running sim at every k-th event, computes the mount a power
//! loss there would run, and verifies both crash-consistency invariants
//! (no acknowledged write lost, no trimmed data resurrected).
//!
//! `serve` drives the live block-device front-end (`dssd-service`): the
//! `--spec` file declares tenants, their offered load, and their QoS
//! knobs (token-bucket rate limits, queue-depth caps, a global backlog
//! threshold). The live run submits through per-tenant SQ rings with
//! admission control; `--batch` replays the *same* deterministic
//! submission schedule as a plain `run_trace`. For a spec with no QoS
//! constraint the two modes print byte-identical stdout — CI diffs
//! exactly that. `--report FILE` (live mode) writes the per-tenant
//! `dssd-service-report-v1` JSON, checked by `validate --service`.
//!
//! `--progress` prints a once-per-second heartbeat (sim-time, events
//! processed, events/sec) to stderr; stdout stays byte-identical.
//! `--no-noc-express` disables the fNoC's contention-free express path
//! and forces pure flit-level simulation, for debugging a suspected
//! divergence. Results are meant to be bit-identical either way, but
//! two figure points differ (see DESIGN.md §10). The rest of the event
//! loop has no switch: every run uses one engine, and the simulator's
//! tests diff it against one-event-at-a-time stepping (DESIGN.md §13).
//!
//! Every subcommand rejects flags it does not read (`unknown flag --x`),
//! so a typo never silently falls back to a default.

mod args;

use std::process::ExitCode;

use args::{ArgError, Flags};
use dssd_bench::runner::{self, run_sweep, BenchRecord, SweepPoint};
use dssd_kernel::{Rng, SimSpan};
use dssd_noc::traffic::{schedule, Pattern};
use dssd_noc::{drive, Network, NocConfig, TopologyKind};
use dssd_ftl::MetaConfig;
use dssd_kernel::SimTime;
use dssd_reliability::{CrashpointConfig, EnduranceConfig, EnduranceSim, SuperblockPolicy};
use dssd_ssd::{
    Architecture, DurabilityConfig, FaultConfig, PowerLossConfig, RunPlan, SimSnapshot,
    SsdConfig, SsdSim, StageKind, TraceConfig,
};
use dssd_service::{serve, ServiceSpec};
use dssd_telemetry::json::{validate_chrome_trace, validate_epoch_jsonl, validate_service_report};
use dssd_telemetry::{chrome, Class, Stage};
use dssd_workload::{msr, AccessPattern, SyntheticWorkload, Trace};

const USAGE: &str = "usage: dssd-cli <run|sweep|trace|serve|validate|crashpoints|endurance|noc|volumes> [--flags]
run 'dssd-cli <command> --help' is not needed: every flag has a default;
see the crate docs (or the source header) for the full flag list.";

/// Value flags read by [`build_config`], shared by every subcommand that
/// builds an [`SsdConfig`] (`run`, `trace`, `serve`, `crashpoints`).
const CONFIG_FLAGS: &[&str] = &[
    "arch",
    "seed",
    "srt-remaps",
    "onchip-factor",
    "fault-read-transient",
    "fault-read-hard",
    "fault-program",
    "fault-erase",
    "fault-noc",
    "fault-max-retries",
    "fault-retry-success",
    "journal-entries",
    "ckpt-interval-pages",
    "power-loss-ms",
    "power-loss-event",
    "power-loss-mttf-ms",
];

/// Value flags read by [`trace_config`] and [`write_trace_outputs`].
const TRACE_FLAGS: &[&str] = &["trace-out", "trace-window", "epoch-out", "epoch-ms"];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "sweep" => cmd_sweep(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "validate" => cmd_validate(rest),
        "crashpoints" => cmd_crashpoints(rest),
        "endurance" => cmd_endurance(rest),
        "noc" => cmd_noc(rest),
        "volumes" => cmd_volumes(rest),
        other => Err(ArgError(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_arch(s: &str) -> Result<Architecture, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Architecture::Baseline),
        "bw" => Ok(Architecture::ExtraBandwidth),
        "dssd" => Ok(Architecture::Dssd),
        "dssd_b" | "dssdb" => Ok(Architecture::DssdBus),
        "dssd_f" | "dssdf" | "fnoc" => Ok(Architecture::DssdFnoc),
        other => Err(ArgError(format!(
            "unknown architecture `{other}` (baseline|bw|dssd|dssd_b|dssd_f)"
        ))),
    }
}

fn build_config(flags: &Flags) -> Result<SsdConfig, ArgError> {
    let arch = parse_arch(flags.get("arch").unwrap_or("dssd_f"))?;
    let mut cfg = SsdConfig::test_tiny(arch);
    cfg.gc_continuous = flags.switch("gc-continuous");
    cfg.srt_active_remaps = flags.get_or("srt-remaps", 0usize)?;
    let seed = flags.get_or("seed", cfg.seed)?;
    cfg = cfg.with_seed(seed);
    let factor = flags.get_or("onchip-factor", cfg.onchip_bw_factor)?;
    cfg = cfg.with_onchip_factor(check_factor("onchip-factor", factor)?);
    cfg.faults = build_faults(flags)?;
    build_durability(flags, &mut cfg)?;
    if flags.switch("no-noc-express") {
        // Escape hatch for debugging suspected express-path divergence:
        // force flit-level simulation (bit-identical, just slower).
        cfg.noc = cfg.noc.with_express(false);
    }
    if let Err(e) = cfg.validate() {
        return Err(ArgError(e));
    }
    Ok(cfg)
}

/// `factor` from `--flag` if it is an on-chip bandwidth factor a run can
/// use: finite and at least the baseline's 1.0.
fn check_factor(flag: &str, factor: f64) -> Result<f64, ArgError> {
    check_f64(flag, factor, factor.is_finite() && factor >= 1.0, "a finite number >= 1.0")
}

/// `value` from `--flag` if `ok`, else an error naming the flag and the
/// `want`ed range.
fn check_f64(flag: &str, value: f64, ok: bool, want: &str) -> Result<f64, ArgError> {
    if ok {
        Ok(value)
    } else {
        Err(ArgError(format!("--{flag}: `{value}` must be {want}")))
    }
}

/// Parses the durability and power-loss flags. Any of them implies
/// `--durable`; with none given the config is untouched, so default runs
/// stay bit-identical to the pre-durability simulator.
fn build_durability(flags: &Flags, cfg: &mut SsdConfig) -> Result<(), ArgError> {
    let wants = flags.switch("durable")
        || ["journal-entries", "ckpt-interval-pages", "power-loss-ms", "power-loss-event",
            "power-loss-mttf-ms"]
        .iter()
        .any(|k| flags.get(k).is_some());
    if !wants {
        return Ok(());
    }
    let mut d = DurabilityConfig::default();
    d.journal_entries_per_page = flags.get_or("journal-entries", d.journal_entries_per_page)?;
    d.checkpoint_interval_pages =
        flags.get_or("ckpt-interval-pages", d.checkpoint_interval_pages)?;
    cfg.durability = Some(d);
    let mut pl = PowerLossConfig::none();
    if let Some(at) = ms_flag(flags, "power-loss-ms")? {
        pl.at = SimTime::ZERO + at;
    }
    pl.at_event = flags.get_or("power-loss-event", 0u64)?;
    if let Some(mttf) = ms_flag(flags, "power-loss-mttf-ms")? {
        pl.mean_time_to_loss = mttf;
    }
    cfg.power_loss = pl;
    Ok(())
}

/// The span of `--key MS`, or `None` when the flag is absent or 0 (off).
/// NaN, negative, infinite and past-the-clock values are errors: cast to
/// nanoseconds they would silently turn the feature off or saturate to
/// an instant the run never reaches.
fn ms_flag(flags: &Flags, key: &str) -> Result<Option<SimSpan>, ArgError> {
    let ms: f64 = flags.get_or(key, 0.0)?;
    let ns = ms * 1e6;
    if !(ns >= 0.0 && ns < u64::MAX as f64) {
        return Err(ArgError(format!(
            "--{key}: `{ms}` must be a finite number >= 0 that fits the nanosecond clock"
        )));
    }
    Ok((ms > 0.0).then(|| SimSpan::from_ns(ns as u64)))
}

/// `--key MS` (or `default` when absent), a whole number of
/// milliseconds, with its span. A count whose nanoseconds do not fit the
/// clock is an error: the product would wrap to a short span in release
/// builds and panic in debug ones.
fn whole_ms(flags: &Flags, key: &str, default: u64) -> Result<(u64, SimSpan), ArgError> {
    let ms: u64 = flags.get_or(key, default)?;
    let ns = ms
        .checked_mul(1_000_000)
        .ok_or_else(|| ArgError(format!("--{key}: `{ms}` ms overflows the nanosecond clock")))?;
    Ok((ms, SimSpan::from_ns(ns)))
}

fn build_faults(flags: &Flags) -> Result<FaultConfig, ArgError> {
    let mut f = FaultConfig::none();
    f.read_transient_prob = flags.get_or("fault-read-transient", 0.0)?;
    f.read_hard_prob = flags.get_or("fault-read-hard", 0.0)?;
    f.program_fail_prob = flags.get_or("fault-program", 0.0)?;
    f.erase_fail_prob = flags.get_or("fault-erase", 0.0)?;
    f.noc_degrade_prob = flags.get_or("fault-noc", 0.0)?;
    f.max_read_retries = flags.get_or("fault-max-retries", f.max_read_retries)?;
    f.retry_success_prob = flags.get_or("fault-retry-success", f.retry_success_prob)?;
    if let Some(err) = f.validate() {
        return Err(ArgError(err));
    }
    Ok(f)
}

fn print_report(sim: &mut SsdSim) {
    let p99 = sim.report_mut().latency_percentile(0.99);
    let p999 = sim.report_mut().latency_percentile(0.999);
    let r = sim.report();
    println!("requests      {}", r.requests_completed);
    println!("io bandwidth  {:.3} GB/s", r.io_bandwidth_gbps());
    println!("gc bandwidth  {:.3} GB/s", r.gc_bandwidth_gbps());
    println!("gc rounds     {}", r.gc_rounds);
    println!("mean latency  {}", r.mean_latency());
    println!("p99 latency   {p99}");
    println!("p99.9 latency {p999}");
    println!(
        "sysbus util   io {:.1}% / gc {:.1}%",
        r.sysbus_io_utilization().min(1.0) * 100.0,
        r.sysbus_gc_utilization().min(1.0) * 100.0
    );
    if let Some(eol) = r.end_of_life {
        println!("END OF LIFE at {:.1} ms", eol.as_ms_f64());
    }
    if let Some(m) = sim.meta_stats() {
        println!();
        println!("durability model:");
        println!(
            "  journal        {} pages flushed ({} entries)",
            m.journal_pages, m.journal_entries
        );
        println!(
            "  checkpoints    {} taken ({} flash pages)",
            m.checkpoints, m.checkpoint_pages
        );
    }
    if let Some(rec) = r.recovery {
        println!();
        println!("POWER LOSS at {:.3} ms:", rec.power_loss_at.as_ms_f64());
        println!("  requests torn     {}", rec.requests_torn);
        println!("  page programs torn {}", rec.torn_pages);
        println!(
            "  mount scan        {} ckpt + {} journal + {} oob pages",
            rec.checkpoint_pages, rec.journal_pages_replayed, rec.oob_pages_scanned
        );
        println!("  journal entries   {} replayed", rec.journal_entries_replayed);
        println!("  recovery time     {}", rec.recovery_time);
        println!(
            "  invariants        {}",
            if rec.invariants_hold() {
                "OK (no acked write lost, no trim resurrected)".to_string()
            } else {
                format!(
                    "VIOLATED ({} acked writes lost, {} trims resurrected)",
                    rec.lost_acked_writes, rec.resurrected_trims
                )
            }
        );
    }
    let c = r.faults;
    if c != Default::default() {
        println!();
        println!("fault injection:");
        println!(
            "  read retries        {} ({} recovered, {} uncorrectable)",
            c.read_retries, c.reads_recovered, c.uncorrectable_reads
        );
        println!("  retry latency added {}", c.retry_latency);
        println!(
            "  program failures    {} / erase failures {}",
            c.program_failures, c.erase_failures
        );
        println!(
            "  blocks retired      {} ({} superblocks retired online, {} remapped)",
            c.blocks_retired, c.superblocks_retired, r.dynamic_remaps
        );
        if c.noc_faults > 0 {
            println!("  noc packets delayed {}", c.noc_faults);
        }
        println!("  requests failed     {}", c.requests_failed);
    }
    println!();
    println!("io breakdown (mean us/stage):");
    for s in StageKind::all() {
        let v = r.io_breakdown.mean_us(s);
        if v > 0.005 {
            println!("  {:<11} {v:>9.1}", s.label());
        }
    }
    if r.copyback_breakdown.count() > 0 {
        println!("copyback breakdown (mean us/stage):");
        for s in StageKind::all() {
            let v = r.copyback_breakdown.mean_us(s);
            if v > 0.005 {
                println!("  {:<11} {v:>9.1}", s.label());
            }
        }
    }
}

/// Parses the shared telemetry flags into a [`TraceConfig`], or `None`
/// when no telemetry flag was given (untraced runs pay nothing).
fn trace_config(flags: &Flags) -> Result<Option<TraceConfig>, ArgError> {
    let wants_trace = flags.get("trace-out").is_some()
        || flags.get("trace-window").is_some()
        || flags.switch("trace-summary");
    let wants_epoch = flags.get("epoch-out").is_some() || flags.get("epoch-ms").is_some();
    if !wants_trace && !wants_epoch {
        return Ok(None);
    }
    let window = flags
        .get("trace-window")
        .map(|_| whole_ms(flags, "trace-window", 0).map(|(_, span)| span))
        .transpose()?;
    if window == Some(SimSpan::ZERO) {
        return Err(ArgError("--trace-window must be >= 1 ms".into()));
    }
    let epoch = if wants_epoch {
        let (ms, span) = whole_ms(flags, "epoch-ms", 1)?;
        if ms == 0 {
            return Err(ArgError("--epoch-ms must be >= 1".into()));
        }
        Some(span)
    } else {
        None
    };
    Ok(Some(TraceConfig { window, epoch }))
}

/// Writes the requested telemetry artifacts after a traced run.
///
/// Every status line goes to *stderr*: a traced run's stdout must stay
/// byte-identical to an untraced same-seed run (CI diffs exactly that).
/// Only `--trace-summary` adds stdout output, and only when asked.
fn write_trace_outputs(sim: &mut SsdSim, flags: &Flags) -> Result<(), ArgError> {
    if let Some(path) = flags.get("trace-out") {
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
        let mut w = std::io::BufWriter::new(file);
        chrome::write_chrome_trace(sim.tracer(), &mut w)
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!(
            "trace: {} events to {path} ({} pruned by the window, {} unfinished) \
             — load at ui.perfetto.dev",
            sim.tracer().events().count(),
            sim.tracer().events_pruned(),
            sim.tracer().open_entities(),
        );
    }
    if let Some(path) = flags.get("epoch-out") {
        let series = sim
            .epoch_series()
            .ok_or_else(|| ArgError("--epoch-out requires epoch sampling".into()))?;
        let file = std::fs::File::create(path)
            .map_err(|e| ArgError(format!("cannot create {path}: {e}")))?;
        let mut w = std::io::BufWriter::new(file);
        series
            .write_jsonl(&mut w)
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        eprintln!("trace: {} epoch samples to {path}", series.len());
    }
    if flags.switch("trace-summary") {
        print_trace_summary(sim);
    }
    Ok(())
}

/// The `--trace-summary` report: per-class completion counts and latency
/// tails, then a per-stage table with trace percentiles next to the
/// simulator's own `StageKind` breakdown means for cross-checking.
fn print_trace_summary(sim: &mut SsdSim) {
    let Some(summary) = sim.tracer().summary() else {
        return;
    };
    let r = sim.report();
    println!();
    println!("trace summary:");
    for (class, label, breakdown) in [
        (Class::Io, "host i/o", &r.io_breakdown),
        (Class::Gc, "gc copyback", &r.copyback_breakdown),
    ] {
        let n = summary.count(class);
        if n == 0 {
            continue;
        }
        // Percentiles need `&mut` (lazy sort / bucket walk); summaries are
        // log-bucketed, so the clone is a few kilobytes.
        let mut lat = summary.latency(class).clone();
        println!(
            "  {label}: {n} completed, {} failed; latency p50 {} / p99 {} / p99.99 {}",
            summary.failed(class),
            lat.percentile(0.5),
            lat.percentile(0.99),
            lat.percentile(0.9999),
        );
        println!(
            "    {:<11} {:>10} {:>10} {:>10} {:>10} {:>13}",
            "stage", "p50 us", "p99 us", "p99.99 us", "mean us", "breakdown us"
        );
        for stage in Stage::ALL {
            if summary.stage_total_ns(class, stage) == 0 {
                continue;
            }
            let mut h = summary.stage_hist(class, stage).clone();
            let mean_us = summary.stage_total_ns(class, stage) as f64 / 1e3 / n as f64;
            println!(
                "    {:<11} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>13.1}",
                stage.label(),
                h.percentile(0.5).as_us_f64(),
                h.percentile(0.99).as_us_f64(),
                h.percentile(0.9999).as_us_f64(),
                mean_us,
                breakdown.mean_us(StageKind::all()[stage.index()]),
            );
        }
    }
}

/// `validate` — check exported telemetry against its schema (the same
/// validators the test suite uses). `--trace FILE` checks a Chrome Trace
/// JSON document; `--epochs FILE` checks an epoch time-series JSONL
/// export (flat numeric objects, uniform columns, strictly increasing
/// `t_ms`). CI runs both on freshly exported files.
fn cmd_validate(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(rest, &[], &["trace", "epochs", "service"])?;
    if flags.get("trace").is_none()
        && flags.get("epochs").is_none()
        && flags.get("service").is_none()
    {
        return Err(ArgError(
            "validate needs --trace FILE, --epochs FILE and/or --service FILE".into(),
        ));
    }
    if let Some(path) = flags.get("trace") {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let stats = validate_chrome_trace(&doc)
            .map_err(|e| ArgError(format!("{path}: invalid trace: {e}")))?;
        println!(
            "{path}: valid ({} events: {} slices, {} async, {} instants, {} metadata)",
            stats.events, stats.spans, stats.asyncs, stats.instants, stats.metadata
        );
    }
    if let Some(path) = flags.get("epochs") {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let stats = validate_epoch_jsonl(&doc)
            .map_err(|e| ArgError(format!("{path}: invalid epoch series: {e}")))?;
        println!(
            "{path}: valid ({} samples, {} columns, monotonic t_ms)",
            stats.rows, stats.columns
        );
    }
    if let Some(path) = flags.get("service") {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let stats = validate_service_report(&doc)
            .map_err(|e| ArgError(format!("{path}: invalid service report: {e}")))?;
        println!(
            "{path}: valid ({} tenants: {} submitted, {} completed, {} rejected)",
            stats.tenants, stats.submitted, stats.completed, stats.rejected
        );
    }
    Ok(())
}

/// `crashpoints` — the dhara-style crash-consistency sweep: step a mother
/// run, pause it every `--stride` events, audit the mount a power loss
/// there would run, and verify it recovers with both invariants intact.
/// Exits non-zero on any violation.
fn cmd_crashpoints(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &["gc-continuous", "no-noc-express"],
        &[CONFIG_FLAGS, &["pages", "ms", "stride", "seeds"]].concat(),
    )?;
    let mut base = build_config(&flags)?;
    if base.durability.is_none() {
        base.durability = Some(DurabilityConfig::default());
    }
    base.power_loss = PowerLossConfig::none();
    let pages = flags.get_at_least("pages", 8u32, 1)?;
    let (ms, duration) = whole_ms(&flags, "ms", 2)?;
    let stride = flags.get_or("stride", 500u64)?;
    if stride == 0 {
        return Err(ArgError("--stride must be >= 1".into()));
    }
    let seeds: Vec<u64> = match flags.get("seeds") {
        None => vec![1, 2, 3],
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--seeds: cannot parse `{t}`")))
            })
            .collect::<Result<_, _>>()?,
    };
    let config = CrashpointConfig {
        workload: SyntheticWorkload::writes(AccessPattern::Random, pages).with_queue_depth(64),
        duration,
        stride,
        seeds,
        base,
    };
    println!(
        "crashpoint sweep on {}: {} ms, every {} events, seeds {:?}",
        config.base.architecture.label(),
        ms,
        stride,
        config.seeds
    );
    let report = dssd_reliability::sweep(&config);
    println!("crashpoints    {}", report.points);
    println!("requests torn  {}", report.requests_torn);
    println!("programs torn  {}", report.torn_pages);
    println!("mount reads    {} pages", report.pages_read);
    println!(
        "recovery time  mean {} / max {}",
        report.mean_recovery(),
        report.max_recovery
    );
    if report.passed() {
        println!("invariants     OK across all {} points", report.points);
        Ok(())
    } else {
        for v in &report.violations {
            eprintln!(
                "VIOLATION seed {} event {} at {:.3} ms: {} acked writes lost, \
                 {} trims resurrected",
                v.seed,
                v.events,
                v.at.as_ms_f64(),
                v.lost_acked_writes,
                v.resurrected_trims
            );
        }
        Err(ArgError(format!(
            "{} of {} crashpoints violated recovery invariants",
            report.violations.len(),
            report.points
        )))
    }
}

fn cmd_run(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &[
            "dram-hit",
            "durable",
            "gc-continuous",
            "no-noc-express",
            "no-prefill",
            "progress",
            "reads",
            "trace-summary",
        ],
        &[
            CONFIG_FLAGS,
            TRACE_FLAGS,
            &["pages", "ms", "qd", "pattern", "resume", "snapshot-at-ms", "snapshot-out"],
        ]
        .concat(),
    )?;
    if flags.get("resume").is_some() {
        // A resumed run is rebuilt untraced and takes no new snapshot.
        let dropped = TRACE_FLAGS.iter().chain(&["snapshot-at-ms", "snapshot-out"]);
        let given = dropped
            .copied()
            .find(|&f| flags.get(f).is_some())
            .or(flags.switch("trace-summary").then_some("trace-summary"));
        if let Some(flag) = given {
            return Err(ArgError(format!("--{flag} cannot be combined with --resume")));
        }
    }
    let cfg = build_config(&flags)?;
    let tracing = trace_config(&flags)?;
    let pages = flags.get_at_least("pages", 8u32, 1)?;
    let (ms, duration) = whole_ms(&flags, "ms", 30)?;
    let qd = flags.get_at_least("qd", 64usize, 1)?;
    let snapshot_at = ms_flag(&flags, "snapshot-at-ms")?.map(|span| SimTime::ZERO + span);
    let pattern = match flags.get("pattern").unwrap_or("random") {
        "random" | "rand" => AccessPattern::Random,
        "sequential" | "seq" => AccessPattern::Sequential,
        p => return Err(ArgError(format!("unknown pattern `{p}`"))),
    };
    let read_fraction = if flags.switch("reads") { 1.0 } else { 0.0 };
    println!(
        "running {} for {ms} ms: {pages}-page {:?} requests, QD {qd}\n",
        cfg.architecture.label(),
        pattern
    );
    let mut wl = SyntheticWorkload::mixed(pattern, pages, read_fraction).with_queue_depth(qd);
    if flags.switch("dram-hit") {
        wl = wl.with_dram_hit_fraction(1.0);
    }
    let plan = RunPlan { workload: wl.clone(), duration };
    let mut sim = if let Some(path) = flags.get("resume") {
        // Rebuild the snapshotted state by deterministic replay; the
        // remaining flags must match the snapshotting invocation.
        let bytes =
            std::fs::read(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
        let snap = SimSnapshot::from_bytes(&bytes)
            .map_err(|e| ArgError(format!("{path}: {e}")))?;
        let mut sim = snap.restore(cfg, &plan).map_err(|e| ArgError(format!("{path}: {e}")))?;
        eprintln!(
            "resumed {} events ({:.3} ms) from {path}",
            snap.cursor(),
            snap.taken_at().as_ms_f64()
        );
        sim.set_progress(flags.switch("progress"));
        sim
    } else {
        let mut sim = SsdSim::new(cfg);
        sim.set_progress(flags.switch("progress"));
        if let Some(tc) = tracing {
            sim.enable_tracing(tc);
        }
        if !flags.switch("no-prefill") {
            sim.prefill();
        }
        sim.begin_closed_loop(wl, duration);
        if let Some(at) = snapshot_at {
            sim.run_until(at);
            if sim.halted() {
                eprintln!("snapshot skipped: power loss struck before {} ms", at.as_ms_f64());
            } else {
                let snap = SimSnapshot::capture(&sim, &plan);
                let path = flags.get("snapshot-out").unwrap_or("dssd.snap");
                std::fs::write(path, snap.to_bytes())
                    .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
                eprintln!(
                    "snapshot: {} events ({:.3} ms) to {path}",
                    snap.cursor(),
                    snap.taken_at().as_ms_f64()
                );
            }
        }
        sim
    };
    sim.run_events(u64::MAX);
    sim.finish_run();
    print_report(&mut sim);
    write_trace_outputs(&mut sim, &flags)?;
    Ok(())
}

/// `sweep` — fan independent simulation points out across cores.
///
/// The per-point numbers are bit-identical for every `--jobs` value
/// (each point owns its RNG and event queue), so the printed table can
/// be diffed across `--jobs` settings; CI does exactly that. Wall-clock
/// times are only recorded in the optional `--json` output.
fn cmd_sweep(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &["gc-continuous"],
        &["jobs", "ms", "pages", "factors", "arch", "seed", "json"],
    )?;
    let jobs = flags.get_or("jobs", 0usize)?; // 0 = all available cores
    let (ms, duration) = whole_ms(&flags, "ms", 5)?;
    let pages = flags.get_at_least("pages", 8u32, 1)?;
    let factors: Vec<f64> = match flags.get("factors") {
        None => vec![1.0],
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--factors: cannot parse `{t}`")))
            })
            .collect::<Result<_, _>>()?,
    };
    let archs: Vec<Architecture> = match flags.get("arch") {
        None | Some("all") => Architecture::all().to_vec(),
        Some(a) => vec![parse_arch(a)?],
    };
    let mut points = Vec::new();
    for &arch in &archs {
        for &factor in &factors {
            check_factor("factors", factor)?;
            let mut cfg = SsdConfig::test_tiny(arch);
            cfg.gc_continuous = flags.switch("gc-continuous");
            let seed = flags.get_or("seed", cfg.seed)?;
            cfg = cfg.with_seed(seed);
            if factor > 1.0 {
                cfg = cfg.with_onchip_factor(factor);
            }
            let label = format!("{}/x{factor}", arch.label());
            let mut p = SweepPoint::writes(label, cfg, duration);
            p.request_pages = pages;
            points.push(p);
        }
    }
    println!("sweep: {} points, {pages}-page random writes, {ms} ms each", points.len());
    let out = run_sweep(&points, jobs);
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "point", "io GB/s", "gc GB/s", "mean us", "p99 us", "requests", "events"
    );
    for o in &out {
        let s = o.summary;
        println!(
            "{:<16} {:>9.3} {:>9.3} {:>9.1} {:>9.1} {:>9} {:>10}",
            o.label, s.io_gbps, s.gc_gbps, s.mean_us, s.p99_us, s.requests, s.events
        );
    }
    if let Some(path) = flags.get("json") {
        let records: Vec<BenchRecord> = out
            .iter()
            .map(|o| BenchRecord::from_samples(o.label.clone(), &[o.wall], o.summary.events))
            .collect();
        runner::write_bench_json(std::path::Path::new(path), "dssd-cli sweep", &records)
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        println!("wrote {} records to {path}", records.len());
    }
    Ok(())
}

fn cmd_trace(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &["gc-continuous", "no-noc-express", "progress", "trace-summary"],
        &[CONFIG_FLAGS, TRACE_FLAGS, &["ms", "speedup", "csv", "volume"]].concat(),
    )?;
    let mut cfg = build_config(&flags)?;
    cfg.gc_continuous = true;
    let tracing = trace_config(&flags)?;
    let (ms, duration) = whole_ms(&flags, "ms", 40)?;
    let speedup: f64 = flags.get_or("speedup", 10.0)?;
    if !(speedup.is_finite() && speedup > 0.0) {
        return Err(ArgError(format!("--speedup: `{speedup}` must be a finite number > 0")));
    }
    // The replay covers `ms` of the accelerated trace: `ms * speedup` of
    // the original, which must fit the nanosecond clock.
    let original_ns = duration.as_ns() as f64 * speedup;
    if original_ns >= u64::MAX as f64 {
        return Err(ArgError(format!(
            "--speedup: {ms} ms at {speedup}x overflows the nanosecond clock"
        )));
    }
    let trace: Trace = match (flags.get("csv"), flags.get("volume")) {
        (Some(path), _) => std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?
            .parse()
            .map_err(|e| ArgError(format!("{e}")))?,
        (None, volume) => {
            let name = volume.unwrap_or("prn_0");
            let profile = msr::profile(name)
                .ok_or_else(|| ArgError(format!("unknown volume `{name}` (try `volumes`)")))?;
            profile.synthesize(SimSpan::from_ns(original_ns as u64), flags.get_or("seed", 42u64)?)
        }
    };
    println!(
        "replaying {} records ({:.0}% reads) at {speedup}x on {} for {ms} ms\n",
        trace.len(),
        trace.read_ratio() * 100.0,
        cfg.architecture.label()
    );
    let page_bytes = cfg.geometry.page_bytes;
    let mut sim = SsdSim::new(cfg);
    sim.set_progress(flags.switch("progress"));
    if let Some(tc) = tracing {
        sim.enable_tracing(tc);
    }
    sim.prefill();
    let requests = trace
        .accelerate(speedup)
        .to_requests(page_bytes, sim.ftl().lpn_count());
    sim.run_trace(requests, duration);
    print_report(&mut sim);
    write_trace_outputs(&mut sim, &flags)?;
    Ok(())
}

/// `serve` — the live multi-tenant front-end. Parses a tenant spec,
/// drives the simulator through per-tenant SQ rings with QoS and
/// admission control, and prints the standard device report. With
/// `--batch` the *same* deterministic submission schedule is replayed
/// as a plain `run_trace`; for a spec with no QoS constraint, live and
/// batch stdout are byte-identical (the CI serve-smoke job diffs them).
/// All service-mode accounting goes to stderr or `--report FILE` so the
/// diffable stdout stays mode-independent.
fn cmd_serve(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &["batch", "gc-continuous", "no-noc-express", "progress", "trace-summary"],
        &[CONFIG_FLAGS, TRACE_FLAGS, &["spec", "report"]].concat(),
    )?;
    let cfg = build_config(&flags)?;
    let tracing = trace_config(&flags)?;
    let path = flags
        .get("spec")
        .ok_or_else(|| ArgError("serve needs --spec FILE".into()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let spec = ServiceSpec::parse(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    let batch = flags.switch("batch");
    if batch && flags.get("report").is_some() {
        return Err(ArgError(
            "--report needs the live front-end (drop --batch)".into(),
        ));
    }
    let arch = cfg.architecture;
    let mut sim = SsdSim::new(cfg);
    spec.check_fits(sim.ftl().lpn_count())
        .map_err(|e| ArgError(format!("{path}: {e}")))?;
    println!(
        "serving {} tenants on {} for {} ms\n",
        spec.tenants.len(),
        arch.label(),
        spec.duration.as_ns() as f64 / 1e6
    );
    sim.set_progress(flags.switch("progress"));
    if let Some(tc) = tracing {
        sim.enable_tracing(tc);
    }
    sim.prefill();
    if batch {
        let plan = spec.batch_requests(sim.ftl().lpn_count());
        sim.run_trace(plan, spec.duration);
    } else {
        let mut report = serve(&spec, &mut sim);
        for t in &report.tenants {
            eprintln!(
                "serve: tenant {} — {} submitted, {} completed, {} rejected, \
                 {} throttled, {} expired",
                t.name, t.submitted, t.completed, t.rejected, t.throttled, t.expired
            );
        }
        if let Some(out) = flags.get("report") {
            std::fs::write(out, report.to_json())
                .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
            eprintln!("serve: per-tenant report to {out}");
        }
    }
    print_report(&mut sim);
    write_trace_outputs(&mut sim, &flags)?;
    Ok(())
}

fn cmd_endurance(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &[],
        &[
            "superblocks",
            "sigma",
            "mean",
            "srt",
            "reserved",
            "seed",
            "journal-entries",
            "ckpt-interval-pages",
            "power-loss-fills",
            "policy",
        ],
    )?;
    let mut cfg = EnduranceConfig::paper_tlc();
    cfg.superblocks = flags.get_or("superblocks", cfg.superblocks)?;
    let sigma = flags.get_or("sigma", cfg.pe_sigma)?;
    cfg.pe_sigma =
        check_f64("sigma", sigma, sigma.is_finite() && sigma >= 0.0, "a finite number >= 0")?;
    let mean = flags.get_or("mean", cfg.pe_mean)?;
    cfg.pe_mean = check_f64("mean", mean, mean.is_finite() && mean > 0.0, "a finite number > 0")?;
    cfg.srt_entries = flags.get_or("srt", cfg.srt_entries)?;
    cfg.reserved_fraction = flags.get_or("reserved", cfg.reserved_fraction)?;
    cfg.seed = flags.get_or("seed", cfg.seed)?;
    // Metadata-journal accounting and power-loss injection: any of the
    // three flags arms the journal model.
    let journal_entries = flags.get_or("journal-entries", 0u32)?;
    let ckpt_interval = flags.get_or("ckpt-interval-pages", 0u64)?;
    let fills = flags.get_or("power-loss-fills", 0.0f64)?;
    cfg.mean_fills_between_power_loss =
        check_f64("power-loss-fills", fills, fills >= 0.0, "a number >= 0")?;
    if journal_entries > 0 || ckpt_interval > 0 || cfg.mean_fills_between_power_loss > 0.0 {
        cfg.journal = Some(MetaConfig {
            journal_entries_per_page: if journal_entries > 0 { journal_entries } else { 256 },
            checkpoint_interval_pages: ckpt_interval,
            page_bytes: cfg.page_bytes,
        });
    }
    cfg.validate().map_err(ArgError)?;
    let policies: Vec<SuperblockPolicy> = match flags.get("policy") {
        None | Some("all") => SuperblockPolicy::all().to_vec(),
        Some("baseline") => vec![SuperblockPolicy::Baseline],
        Some("recycled") => vec![SuperblockPolicy::Recycled],
        Some("reserved") | Some("reserv") => vec![SuperblockPolicy::Reserved],
        Some("was") => vec![SuperblockPolicy::WearAware],
        Some(p) => return Err(ArgError(format!("unknown policy `{p}`"))),
    };
    println!(
        "{} superblocks, P/E ~ N({}, {}^2), SRT {} entries\n",
        cfg.superblocks, cfg.pe_mean, cfg.pe_sigma, cfg.srt_entries
    );
    println!(
        "{:<9} {:>13} {:>13} {:>13} {:>8}",
        "policy", "first bad", "at 5% bad", "total", "remaps"
    );
    for policy in policies {
        let r = EnduranceSim::new(cfg).run(policy);
        let tb = |b: u64| format!("{:.2} TB", b as f64 / 1e12);
        println!(
            "{:<9} {:>13} {:>13} {:>13} {:>8}",
            policy.label(),
            r.first_bad_bytes().map(tb).unwrap_or_else(|| "-".into()),
            tb(r.written_at_bad_fraction(0.05).unwrap_or(r.total_written)),
            tb(r.total_written),
            r.remap_events,
        );
        if cfg.journal.is_some() {
            let replay_max = r
                .power_loss_points
                .iter()
                .map(|p| p.journal_pages_replayed)
                .max()
                .unwrap_or(0);
            println!(
                "          {} power losses, {} journal + {} ckpt pages, \
                 worst mount replays {} pages",
                r.power_loss_points.len(),
                r.journal_pages,
                r.checkpoint_pages,
                replay_max,
            );
        }
    }
    Ok(())
}

fn cmd_noc(rest: &[String]) -> Result<(), ArgError> {
    let flags = Flags::parse(
        rest,
        &["no-noc-express"],
        &["topology", "terminals", "pattern", "load-mbps", "ms", "bisection", "buffer", "seed"],
    )?;
    let topology = match flags.get("topology").unwrap_or("mesh") {
        "mesh" | "mesh1d" => TopologyKind::Mesh1D,
        "ring" => TopologyKind::Ring,
        "crossbar" | "xbar" => TopologyKind::Crossbar,
        t => return Err(ArgError(format!("unknown topology `{t}`"))),
    };
    let terminals = flags.get_or("terminals", 8usize)?;
    let pattern = match flags.get("pattern").unwrap_or("uniform") {
        "uniform" | "random" => Pattern::UniformRandom,
        "tornado" => Pattern::Tornado,
        "hotspot" => Pattern::Hotspot,
        "bitrev" | "bitreverse" => Pattern::BitReverse,
        p => return Err(ArgError(format!("unknown pattern `{p}`"))),
    };
    let load_mbps = flags.get_or("load-mbps", 150u64)?;
    let load = load_mbps.checked_mul(1_000_000).ok_or_else(|| {
        ArgError(format!(
            "--load-mbps: `{load_mbps}` MB/s overflows bytes per second"
        ))
    })?;
    let (_, duration) = whole_ms(&flags, "ms", 2)?;
    let config = NocConfig::new(topology, terminals)
        .with_bisection_bandwidth(flags.get_or("bisection", 2_000_000_000u64)?)
        .with_input_buffer_flits(flags.get_or("buffer", 4usize)?)
        .with_express(!flags.switch("no-noc-express"));
    config.validate().map_err(ArgError)?;
    let mut rng = Rng::new(flags.get_or("seed", 7u64)?);
    let packets = schedule(terminals, pattern, load, 4096, duration, &mut rng);
    let offered = packets.len();
    let mut net = Network::new(config);
    let delivered = drive(&mut net, packets);
    let end = delivered.iter().map(|d| d.at).max().unwrap_or_default();
    let bytes: u64 = delivered.iter().map(|d| d.packet.bytes).sum();
    println!("{topology:?}, {terminals} terminals, {pattern:?} @ {load_mbps} MB/s/node");
    println!("offered   {offered} packets");
    println!("delivered {} packets", delivered.len());
    println!(
        "throughput {:.3} GB/s",
        bytes as f64 / end.as_secs_f64().max(1e-12) / 1e9
    );
    println!("mean latency {}", net.stats().mean_latency());
    println!("mean hops    {:.2}", net.stats().mean_hops());
    Ok(())
}

fn cmd_volumes(rest: &[String]) -> Result<(), ArgError> {
    Flags::parse(rest, &[], &[])?;
    println!(
        "{:<8} {:>10} {:>9} {:>10} {:>8} {:>6}",
        "volume", "read%", "read KiB", "write KiB", "IOPS", "class"
    );
    for p in msr::PROFILES {
        println!(
            "{:<8} {:>10.0} {:>9.0} {:>10.0} {:>8.0} {:>6}",
            p.name,
            p.read_ratio * 100.0,
            p.read_kib,
            p.write_kib,
            p.iops,
            if p.is_read_intensive() { "read" } else { "write" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `dssd-cli serve --spec FILE` on a spec written to a
    /// temporary file.
    fn serve_spec(name: &str, spec: &str) -> Result<(), ArgError> {
        let file = format!("dssd-cli-{}-{name}.spec", std::process::id());
        let path = std::env::temp_dir().join(file);
        std::fs::write(&path, spec).expect("temp dir is writable");
        let out = cmd_serve(&["--spec".into(), path.display().to_string()]);
        let _ = std::fs::remove_file(&path);
        out
    }

    #[test]
    fn serve_rejects_specs_it_cannot_run() {
        let huge = "duration_ms 1\ntenant a iops=1000 pages=4000000000\n";
        let e = serve_spec("huge-request", huge).unwrap_err();
        assert!(e.0.contains("cannot hold a 4000000000 page request of tenant a"), "{e}");
        let e = serve_spec("inf-iops", "duration_ms 1\ntenant a iops=inf\n").unwrap_err();
        assert!(e.0.contains("iops"), "{e}");
        let e = serve_spec("huge-duration", "duration_ms 1e30\ntenant a iops=1\n").unwrap_err();
        assert!(e.0.contains("nanosecond clock"), "{e}");
    }

    /// Runs subcommand `cmd` on `args` and returns the error it must
    /// report.
    fn rejected(cmd: fn(&[String]) -> Result<(), ArgError>, args: &[&str]) -> ArgError {
        cmd(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn run_rejects_flags_it_cannot_run() {
        let e = rejected(cmd_run, &["--pages", "0"]);
        assert!(e.0.contains("--pages must be >= 1"), "{e}");
        let e = rejected(cmd_run, &["--qd", "0"]);
        assert!(e.0.contains("--qd must be >= 1"), "{e}");
        for factor in ["0.5", "NaN", "inf"] {
            let e = rejected(cmd_run, &["--onchip-factor", factor]);
            assert!(e.0.contains("must be a finite number >= 1.0"), "{factor}: {e}");
        }
        for flag in ["--snapshot-at-ms", "--power-loss-ms", "--power-loss-mttf-ms"] {
            for ms in ["nan", "-1", "-3", "inf", "1e300"] {
                let e = rejected(cmd_run, &[flag, ms]);
                assert!(e.0.contains("fits the nanosecond clock"), "{flag} {ms}: {e}");
            }
        }
    }

    /// The flash-side express switch is gone with the chain walk it
    /// turned off; every subcommand that used to read it now refuses it.
    #[test]
    fn retired_engine_switch_is_an_unknown_flag() {
        type Cmd = fn(&[String]) -> Result<(), ArgError>;
        let cmds: [(&str, Cmd); 4] = [
            ("run", cmd_run),
            ("trace", cmd_trace),
            ("serve", cmd_serve),
            ("crashpoints", cmd_crashpoints),
        ];
        for (name, cmd) in cmds {
            let e = rejected(cmd, &["--no-flash-express"]);
            assert_eq!(e.0, "unknown flag --no-flash-express", "{name}");
        }
    }

    #[test]
    fn sweep_and_crashpoints_reject_empty_requests() {
        let e = rejected(cmd_sweep, &["--pages", "0"]);
        assert!(e.0.contains("--pages must be >= 1"), "{e}");
        for factor in ["0.5", "nan", "inf"] {
            let e = rejected(cmd_sweep, &["--factors", factor]);
            assert!(e.0.contains("must be a finite number >= 1.0"), "{factor}: {e}");
        }
        let e = rejected(cmd_crashpoints, &["--pages", "0"]);
        assert!(e.0.contains("--pages must be >= 1"), "{e}");
    }

    #[test]
    fn trace_rejects_speedups_it_cannot_replay() {
        for speedup in ["0", "-1", "nan", "inf"] {
            let e = rejected(cmd_trace, &["--speedup", speedup]);
            assert!(e.0.contains("must be a finite number > 0"), "{speedup}: {e}");
        }
        let e = rejected(cmd_trace, &["--speedup", "1e300"]);
        assert!(e.0.contains("overflows the nanosecond clock"), "{e}");
    }

    #[test]
    fn endurance_rejects_degenerate_configs() {
        for n in ["0", "1"] {
            let e = rejected(cmd_endurance, &["--superblocks", n]);
            assert!(e.0.contains("too few"), "{n}: {e}");
        }
        for r in ["1", "1.5"] {
            let e = rejected(cmd_endurance, &["--reserved", r]);
            assert!(e.0.contains("[0, 1)"), "{r}: {e}");
        }
        let e = rejected(cmd_endurance, &["--srt", "0"]);
        assert!(e.0.contains("SRT needs at least one entry"), "{e}");
    }

    #[test]
    fn noc_rejects_flags_it_cannot_run() {
        let noc = |args: &[&str]| {
            cmd_noc(&args.iter().map(|a| (*a).to_string()).collect::<Vec<_>>()).unwrap_err()
        };
        let e = noc(&["--terminals", "1"]);
        assert!(e.0.contains("at least two terminals"), "{e}");
        let e = noc(&["--buffer", "0"]);
        assert!(e.0.contains("at least one flit"), "{e}");
        let e = noc(&["--topology", "crossbar", "--terminals", "33"]);
        assert!(e.0.contains("at most 32 terminals"), "{e}");
    }
}
