//! The four benchmark workloads and one cold repetition of each.
//!
//! Every workload runs on the reduced-scale ULL drive the figure binaries
//! use (`SsdConfig::test_tiny`), prefilled to the edge of GC (Sec 6.1
//! preconditioning) with the modelled write cache off, so the statistics
//! of every repetition include GC onset.

use std::hint::black_box;
use std::time::{Duration, Instant};

use dssd_kernel::{SimSpan, SimTime};
use dssd_service::{ServiceReport, ServiceSpec};
use dssd_ssd::{Architecture, RunState, SsdConfig, SsdSim, StageKind, TraceConfig};
use dssd_workload::{msr, AccessPattern, Request, SyntheticWorkload};

use crate::check::Fingerprint;
use crate::spans::{Recorder, Span};

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// dSSD_f, continuous GC, closed-loop random 8-page writes at QD 64,
    /// no telemetry (Figs 7/8): GC copyback crosses the fNoC.
    FnocGcWrite,
    /// dSSD_f, continuous GC, every host request a DRAM hit (Fig 10a),
    /// with the span tracer on a 1 ms window and 1 ms epoch sampling.
    FnocDramhitEpoch,
    /// The live service front-end on dSSD_f: two Poisson tenants with
    /// token buckets, qd caps and a backlog threshold.
    ServeTwoTenantQos,
    /// The Baseline architecture (no fNoC) replaying the synthesized MSR
    /// `prn_0` volume open-loop at 20x (Fig 11).
    BaselineTraceReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FnocGcWrite,
        Workload::FnocDramhitEpoch,
        Workload::ServeTwoTenantQos,
        Workload::BaselineTraceReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FnocGcWrite => "fnoc_gc_write",
            Workload::FnocDramhitEpoch => "fnoc_dramhit_epoch",
            Workload::ServeTwoTenantQos => "serve_two_tenant_qos",
            Workload::BaselineTraceReplay => "baseline_trace_replay",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated span of one measured repetition. Chosen so one cold
    /// repetition takes 0.3-0.6 s of host time on a 2-vCPU x86-64 VM,
    /// which leaves 25 or more repetitions per 15 s run.
    pub fn span(self) -> SimSpan {
        SimSpan::from_ms(match self {
            Workload::FnocGcWrite => 8,
            Workload::FnocDramhitEpoch => 4,
            Workload::ServeTwoTenantQos => 4,
            Workload::BaselineTraceReplay => 800,
        })
    }

    /// Simulated span of the self-test's repetitions.
    pub fn tiny_span(self) -> SimSpan {
        SimSpan::from_ms(match self {
            Workload::BaselineTraceReplay => 10,
            _ => 1,
        })
    }

    /// Whether the drive step goes through the service front-end.
    pub fn is_served(self) -> bool {
        self == Workload::ServeTwoTenantQos
    }

    fn config(self, seed: u64) -> SsdConfig {
        let arch = match self {
            Workload::BaselineTraceReplay => Architecture::Baseline,
            _ => Architecture::DssdFnoc,
        };
        let mut cfg = SsdConfig::test_tiny(arch).with_seed(seed);
        // The trace replay keeps Fig 11's on-demand GC: it starts when
        // the replay drains the free pool, not continuously.
        cfg.gc_continuous = self != Workload::BaselineTraceReplay;
        cfg.write_cache_pages = None;
        cfg
    }

    /// The user-facing telemetry this workload runs with, as
    /// `dssd-cli run --trace-window 1 --epoch-out FILE` sets it.
    fn telemetry(self) -> Option<TraceConfig> {
        (self == Workload::FnocDramhitEpoch).then_some(TraceConfig {
            window: Some(SimSpan::from_ms(1)),
            epoch: Some(SimSpan::from_ms(1)),
        })
    }
}

/// Host time of each phase of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Config, `SsdSim::new` and `enable_tracing`.
    pub construct: Duration,
    /// `SsdSim::prefill`.
    pub prefill: Duration,
    /// Workload input generation, up to the first event.
    pub generate: Duration,
    /// `begin_*` and `run_events`, or `dssd_service::serve`.
    pub drive: Duration,
    /// `finish_run`.
    pub finish: Duration,
    /// Latency percentile queries.
    pub percentiles: Duration,
    /// `EpochSeries::to_jsonl_string`.
    pub export: Duration,
}

impl Phases {
    /// Set-up: everything before the first simulated event.
    pub fn setup(&self) -> Duration {
        self.construct + self.prefill + self.generate
    }

    /// Everything a user waits for after set-up, up to exported results.
    pub fn run(&self) -> Duration {
        self.drive + self.finish + self.percentiles + self.export
    }
}

/// A deterministic quantity read from a layer's public accessors.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one cold repetition.
#[derive(Debug)]
pub struct Rep {
    pub phases: Phases,
    /// Simulated time covered by the run.
    pub sim_span: SimSpan,
    /// Kernel events delivered (queue pops plus coalesced and express
    /// events; never erase operations).
    pub events: u64,
    /// Queue pops only: events minus chain-coalesced and NoC express events.
    pub queue_pops: u64,
    /// Host submissions through the service front-end (0 when unserved).
    pub submitted: u64,
    pub counters: Vec<Counter>,
    pub fingerprint: Fingerprint,
    /// Invariant violations found in this repetition.
    pub violations: Vec<String>,
    pub spans: Vec<Span>,
    /// Factor converting this repetition's host seconds to seconds at the
    /// probe's reference speed (set by the caller; 1 until then).
    pub host_scale: f64,
}

impl Rep {
    /// `d` in probe-scaled seconds.
    pub fn secs(&self, d: Duration) -> f64 {
        d.as_secs_f64() * self.host_scale
    }
}

enum Input {
    Closed(SyntheticWorkload),
    Trace(Vec<(SimTime, Request)>),
    Serve(ServiceSpec),
}

fn serve_spec(seed: u64, span: SimSpan) -> ServiceSpec {
    let text = format!(
        "duration_ms {}\nseed {seed}\nbacklog 192\n\
         tenant a iops=120000 pages=4 read=0.3 rate=400000 burst=64 qd=48 weight=3\n\
         tenant b iops=80000 pages=1 read=0.9 rate=100000 burst=16 qd=16\n",
        span.as_ns() as f64 / 1e6
    );
    ServiceSpec::parse(&text).expect("the benchmark's service spec is valid")
}

/// Generates the workload's inputs; returns them with the count of host
/// requests generated before the first event (0 for a closed loop, which
/// generates its requests inside the run).
fn generate(w: Workload, seed: u64, span: SimSpan, sim: &SsdSim) -> (Input, usize) {
    let writes = || SyntheticWorkload::writes(AccessPattern::Random, 8).with_queue_depth(64);
    match w {
        Workload::FnocGcWrite => (Input::Closed(writes()), 0),
        Workload::FnocDramhitEpoch => (Input::Closed(writes().with_dram_hit_fraction(1.0)), 0),
        Workload::ServeTwoTenantQos => {
            let spec = serve_spec(seed, span);
            // `serve` expands the same schedule again internally; this
            // expansion is the workload layer's generation cost.
            let n = spec.schedule(sim.ftl().lpn_count()).len();
            (Input::Serve(spec), n)
        }
        Workload::BaselineTraceReplay => {
            let speedup = 20.0;
            let profile = msr::profile("prn_0").expect("prn_0 is a built-in MSR volume");
            let original = SimSpan::from_ns((span.as_ns() as f64 * speedup) as u64);
            let trace = profile.synthesize(original, seed).accelerate(speedup);
            let page_bytes = sim.config().geometry.page_bytes;
            let reqs = trace.to_requests(page_bytes, sim.ftl().lpn_count());
            let n = reqs.len();
            (Input::Trace(reqs), n)
        }
    }
}

fn drive(sim: &mut SsdSim, input: Input, span: SimSpan) -> (RunState, Option<ServiceReport>) {
    match input {
        Input::Closed(wl) => {
            sim.begin_closed_loop(wl, span);
            (sim.run_events(u64::MAX), None)
        }
        Input::Trace(reqs) => {
            sim.begin_open_loop(span);
            for (t, r) in reqs {
                sim.inject_arrival(t, r);
            }
            (sim.run_events(u64::MAX), None)
        }
        Input::Serve(spec) => {
            let report = dssd_service::serve(&spec, sim);
            (RunState::Done, Some(report))
        }
    }
}

/// Latency quantiles queried after the run, in µs.
struct Quantiles {
    p50: f64,
    p99: f64,
    p9999: f64,
    tenant_p99: Vec<f64>,
}

fn quantiles(sim: &mut SsdSim, service: Option<&mut ServiceReport>) -> Quantiles {
    let r = sim.report_mut();
    Quantiles {
        p50: r.latency_percentile(0.5).as_us_f64(),
        p99: r.latency_percentile(0.99).as_us_f64(),
        p9999: r.latency_percentile(0.9999).as_us_f64(),
        tenant_p99: service.map_or_else(Vec::new, |s| {
            s.tenants
                .iter_mut()
                .map(|t| t.latency.percentile(0.99).as_us_f64())
                .collect()
        }),
    }
}

/// Runs one cold repetition on the calling thread. Call it on a fresh
/// thread: the NoC's per-thread express timeline memo then starts empty,
/// as it does for a `dssd-cli` process.
pub fn run_rep(
    w: Workload,
    seed: u64,
    span: SimSpan,
    rep: u32,
    origin: Instant,
    traced: bool,
) -> Rep {
    let mut rec = Recorder::new(origin, rep, traced);
    let mut ph = Phases::default();
    let drive_name = if w.is_served() {
        "service.serve"
    } else {
        "ssd.run"
    };
    let (mut rep_out, _) = rec.span("rep", |rec| {
        let ((mut sim, input, generated), _) = rec.span("setup", |rec| {
            let (mut sim, d) = rec.span("ssd.construct", |_| {
                let mut sim = SsdSim::new(w.config(seed));
                if let Some(tc) = w.telemetry() {
                    sim.enable_tracing(tc);
                }
                sim
            });
            ph.construct = d;
            ph.prefill = rec.span("ftl.prefill", |_| sim.prefill()).1;
            let ((input, generated), d) =
                rec.span("workload.generate", |_| generate(w, seed, span, &sim));
            ph.generate = d;
            (sim, input, generated)
        });
        let ((state, mut service, q), _) = rec.span("run", |rec| {
            let ((state, mut service), d) = rec.span(drive_name, |_| drive(&mut sim, input, span));
            ph.drive = d;
            ph.finish = rec
                .span("ssd.finish", |_| black_box(sim.finish_run().elapsed))
                .1;
            let (q, d) = rec.span("ssd.percentiles", |_| quantiles(&mut sim, service.as_mut()));
            ph.percentiles = d;
            ph.export = rec
                .span("telemetry.epoch_jsonl", |_| {
                    black_box(sim.epoch_series().map(|s| s.to_jsonl_string()))
                })
                .1;
            (state, service, q)
        });
        let (out, _) = rec.span("bench.collect", |_| {
            collect(&sim, state, service.as_mut(), &q, generated)
        });
        out
    });
    rep_out.phases = ph;
    rep_out.spans = rec.into_spans();
    rep_out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn stage_name(s: StageKind) -> String {
    s.label().replace(' ', "_")
}

fn collect(
    sim: &SsdSim,
    state: RunState,
    service: Option<&mut ServiceReport>,
    q: &Quantiles,
    generated: usize,
) -> Rep {
    let r = sim.report();
    let mut c: Vec<Counter> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        c.push(Counter {
            name: name.to_string(),
            value,
            unit,
        });
    };

    let events = r.events_delivered;
    let (coalesced, demoted) = sim.flash_express_diag();
    let noc = sim.noc();
    let express_events = noc.map_or(0, |n| n.express_events());
    let queue_pops = events - coalesced - express_events;
    put("kernel.events", events as f64, "count");
    put("kernel.queue_pops", queue_pops as f64, "count");

    put("ssd.chain_coalesced", coalesced as f64, "count");
    put("ssd.chain_demoted", demoted as f64, "count");
    put(
        "ssd.chain_ratio",
        ratio(coalesced as f64, (coalesced + demoted) as f64),
        "ratio",
    );

    let stats = noc.map(|n| n.stats());
    let diag = noc.map(|n| n.express_diag()).unwrap_or_default();
    put(
        "noc.injected",
        stats.map_or(0, |s| s.injected) as f64,
        "count",
    );
    put(
        "noc.flit_hops",
        stats.map_or(0, |s| s.flit_hops) as f64,
        "count",
    );
    put(
        "noc.credit_stalls",
        stats.map_or(0, |s| s.credit_stalls) as f64,
        "count",
    );
    put(
        "noc.max_link_util",
        noc.map_or(0.0, |n| n.max_link_utilization(r.elapsed)),
        "ratio",
    );
    put("noc.express_events", express_events as f64, "count");
    put("noc.express_granted", diag.granted as f64, "count");
    put("noc.express_demoted", diag.demoted as f64, "count");
    put("noc.express_cache_hits", diag.cache_hits as f64, "count");
    put(
        "noc.express_forward_pops",
        diag.forward_pops as f64,
        "count",
    );
    put("noc.express_replay_pops", diag.replay_pops as f64, "count");
    put(
        "noc.express_payoff",
        ratio(
            express_events as f64,
            (diag.forward_pops + diag.replay_pops) as f64,
        ),
        "ratio",
    );

    let f = sim.ftl().stats();
    let waf = ratio(
        (f.host_pages_written + f.gc_pages_copied) as f64,
        f.host_pages_written as f64,
    );
    put(
        "ftl.host_pages_written",
        f.host_pages_written as f64,
        "count",
    );
    put("ftl.gc_pages_copied", f.gc_pages_copied as f64, "count");
    put("ftl.gc_rounds", f.gc_rounds as f64, "count");
    put("ftl.erases", f.erases as f64, "count");
    put("ftl.stale_copies", f.stale_copies as f64, "count");
    put("ftl.waf", waf, "ratio");

    put("workload.requests", generated as f64, "count");

    let tenants: Vec<(String, [u64; 4])> = service.as_ref().map_or_else(Vec::new, |s| {
        s.tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    [t.submitted, t.completed, t.rejected, t.expired],
                )
            })
            .collect()
    });
    let sum = |pick: fn(&dssd_service::TenantReport) -> u64| -> u64 {
        service
            .as_ref()
            .map_or(0, |s| s.tenants.iter().map(pick).sum())
    };
    let (submitted, completed) = (sum(|t| t.submitted), sum(|t| t.completed));
    let (rejected, expired, failed) = (sum(|t| t.rejected), sum(|t| t.expired), sum(|t| t.failed));
    put("service.submitted", submitted as f64, "count");
    put("service.completed", completed as f64, "count");
    put("service.rejected", rejected as f64, "count");
    put("service.throttled", sum(|t| t.throttled) as f64, "count");
    put("service.expired", expired as f64, "count");
    put("service.failed", failed as f64, "count");
    put(
        "service.admit_ratio",
        ratio(completed as f64, submitted as f64),
        "ratio",
    );
    for (tenant, name) in ["a", "b"].iter().enumerate() {
        let p99 = q.tenant_p99.get(tenant).copied().unwrap_or(0.0);
        put(&format!("service.p99_us.{name}"), p99, "us");
    }

    let tracer = sim.tracer();
    let epoch_rows = sim.epoch_series().map_or(0, |s| s.len());
    put(
        "telemetry.events_recorded",
        tracer.events_recorded() as f64,
        "count",
    );
    put(
        "telemetry.events_pruned",
        tracer.events_pruned() as f64,
        "count",
    );
    put("telemetry.epoch_rows", epoch_rows as f64, "count");

    put("model.io_gbps", r.io_bandwidth_gbps(), "GB/s");
    put("model.gc_gbps", r.gc_bandwidth_gbps(), "GB/s");
    put("model.mean_us", r.mean_latency().as_us_f64(), "us");
    put("model.p99_us", q.p99, "us");
    put("model.p9999_us", q.p9999, "us");
    put("model.requests", r.requests_completed as f64, "count");
    put("model.sysbus_io_util", r.sysbus_io_utilization(), "ratio");
    put("model.sysbus_gc_util", r.sysbus_gc_utilization(), "ratio");
    for s in StageKind::all() {
        put(
            &format!("model.io_stage.{}_us", stage_name(s)),
            r.io_breakdown.mean_us(s),
            "us",
        );
    }
    for s in StageKind::all() {
        put(
            &format!("model.copyback_stage.{}_us", stage_name(s)),
            r.copyback_breakdown.mean_us(s),
            "us",
        );
    }

    let mut violations = Vec::new();
    if state != RunState::Done {
        violations.push(format!("run ended {state:?}, not Done"));
    }
    if r.requests_completed == 0 {
        violations.push("no host request completed".into());
    }
    if r.faults.requests_failed != 0 || failed != 0 {
        violations.push(format!(
            "{} device / {failed} service requests failed with faults off",
            r.faults.requests_failed
        ));
    }
    if !(q.p50 <= q.p99 && q.p99 <= q.p9999) {
        violations.push(format!(
            "latency quantiles out of order: p50 {} p99 {} p99.99 {}",
            q.p50, q.p99, q.p9999
        ));
    }
    if waf < 1.0 {
        violations.push(format!("write amplification {waf} below 1"));
    }
    for (name, [sub, comp, rej, exp]) in &tenants {
        if *sub != comp + rej + exp {
            violations.push(format!(
                "tenant {name}: submitted {sub} != completed {comp} + rejected {rej} + expired {exp}"
            ));
        }
    }

    Rep {
        phases: Phases::default(),
        sim_span: r.elapsed,
        events,
        queue_pops,
        submitted,
        counters: c,
        fingerprint: Fingerprint {
            events,
            state_digest: sim.state_digest(),
            gc_issue_digest: r.gc_issue_digest,
            requests_completed: r.requests_completed,
            tenants,
        },
        violations,
        spans: Vec::new(),
        host_scale: 1.0,
    }
}
