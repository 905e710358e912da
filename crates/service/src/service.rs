//! The live front-end: a virtual-time pacer that drives the steppable
//! simulator from per-tenant submission rings under QoS admission
//! control.
//!
//! # Pacer protocol
//!
//! The service walks the merged submission schedule instant by instant.
//! For each distinct instant `t` it:
//!
//! 1. advances the simulator with
//!    [`run_until_before`](SsdSim::run_until_before)`(t)` — every event
//!    strictly before `t` is processed, nothing at `t` has popped — and
//!    folds the completion log into the tenants' reports;
//! 2. retry-dispatches queued SQ heads whose token buckets refilled,
//!    arbitrated weighted-round-robin across tenants;
//! 3. processes the submissions arriving at `t` in spec order:
//!    admission control first (a violation is counted as `rejected` —
//!    rejections are explicit outcomes, never silent drops), then
//!    *immediate dispatch* when the tenant's SQ is empty and its bucket
//!    is ready, else the entry waits in the SQ (`throttled`);
//! 4. re-arms a retry instant per throttled tenant at its head's exact
//!    bucket-ready time.
//!
//! # Determinism
//!
//! A service run is bit-identical to [`SsdSim::run_trace`] over
//! [`ServiceSpec::batch_requests`] whenever no QoS constraint binds:
//! arrivals are injected at [`ARRIVAL_RANK`](dssd_kernel::ARRIVAL_RANK)
//! (pop order ignores *push* time), step 3 dispatches unthrottled
//! submissions synchronously in spec order (so injection order equals
//! batch order even at shared instants, where weighted round robin
//! would interleave tenants differently), and the closing
//! `run_events(u64::MAX)` reproduces the batch run's beyond-horizon
//! event accounting. QoS only ever *delays* arrivals through steps 2/4
//! — the simulator underneath executes the same deterministic machine.

use std::collections::BTreeSet;

use dssd_kernel::SimTime;
use dssd_ssd::SsdSim;
use dssd_telemetry::{Class, Stage, Track};
use dssd_workload::Op;

use crate::qos::{TokenBucket, WrrArbiter};
use crate::report::{ServiceReport, TenantReport};
use crate::ring::{SubmissionQueue, Sqe};
use crate::spec::{Namespace, ServiceSpec};

/// Trace-span id namespace for tenant completion spans: the high bit
/// keeps them disjoint from live request ids (slab keys), so a tenant
/// span is never buffered under an open request's lifecycle.
const TENANT_SPAN_ID: u64 = 1 << 63;

/// Per-tenant front-end state.
struct TenantState {
    sq: SubmissionQueue,
    bucket: TokenBucket,
    ns: Namespace,
    /// In-flight + queued cap; 0 = unlimited.
    qd_cap: usize,
    /// Dispatched to the device, completion not yet folded in.
    inflight: usize,
    report: TenantReport,
}

impl TenantState {
    /// Queue depth as admission control sees it.
    fn depth(&self) -> usize {
        self.inflight + self.sq.len()
    }
}

/// Dispatch record correlating a device completion tag back to the
/// submission it finishes. The simulator tags completions in start
/// order, which equals injection order, so `tag` indexes this table.
struct Dispatched {
    tenant: u16,
    submitted: SimTime,
    op: Op,
}

/// Runs the spec's arrival schedule live against `sim` (already
/// configured and prefilled; `begin_open_loop` .. `finish_run` happen
/// inside). Returns the per-tenant service report; the simulator's own
/// [`RunReport`](dssd_ssd::RunReport) stays available via
/// [`SsdSim::report`] for comparison against a batch run.
///
/// # Panics
///
/// Panics if the drive is too small to give every tenant a namespace
/// (see [`ServiceSpec::namespaces`]).
pub fn serve(spec: &ServiceSpec, sim: &mut SsdSim) -> ServiceReport {
    let lpns = sim.ftl().lpn_count();
    let schedule = spec.schedule(lpns);
    let namespaces = spec.namespaces(lpns);
    let weights: Vec<u32> = spec.tenants.iter().map(|t| t.weight).collect();
    let mut arb = WrrArbiter::new(&weights);
    let mut tenants: Vec<TenantState> = spec
        .tenants
        .iter()
        .zip(namespaces)
        .map(|(t, ns)| TenantState {
            sq: SubmissionQueue::new(spec.sq_depth),
            // Burst at least one whole request, else the bucket's level
            // caps below the head's cost and it can never dispatch.
            bucket: TokenBucket::new(
                t.rate_pages_per_sec,
                t.burst_pages.max(u64::from(t.pages)),
            ),
            ns,
            qd_cap: t.qd_cap,
            inflight: 0,
            report: TenantReport::new(t.name.clone()),
        })
        .collect();

    let mut tag_map: Vec<Dispatched> = Vec::with_capacity(schedule.len());
    let mut dispatched_total: u64 = 0;
    let mut completed_total: u64 = 0;
    // Pending bucket-refill instants; each is some queued head's exact
    // ready time, so arriving there always dispatches at least one entry.
    let mut retries: BTreeSet<SimTime> = BTreeSet::new();

    sim.set_completion_log(true);
    sim.begin_open_loop(spec.duration);
    let horizon = sim.horizon();

    let mut next_sub = 0usize;
    loop {
        let sub_at = schedule.get(next_sub).map(|s| s.at);
        let retry_at = retries.first().copied();
        let t = match (sub_at, retry_at) {
            (Some(s), Some(r)) => s.min(r),
            (Some(s), None) => s,
            (None, Some(r)) => r,
            (None, None) => break,
        };

        // 1. Advance to (not into) t; free slots for completions < t.
        sim.run_until_before(t);
        drain_completions(sim, &mut tenants, &tag_map, &mut completed_total, spec.warmup);

        // 2. Refilled buckets release queued heads, WRR-arbitrated.
        if retries.remove(&t) {
            while let Some(i) = arb.grant(|i| {
                let ts = &tenants[i];
                ts.sq.peek().is_some_and(|(_, _, sqe)| {
                    ts.bucket.ready_at(t, sqe.pages) <= t
                })
            }) {
                let ts = &mut tenants[i];
                let (_, submitted, sqe) = ts.sq.pop().expect("granted an empty queue");
                dispatch(sim, ts, &mut tag_map, i as u16, submitted, sqe, t);
                dispatched_total += 1;
            }
        }

        // 3. Submissions at t, in spec order.
        while let Some(sub) = schedule.get(next_sub).filter(|s| s.at == t) {
            next_sub += 1;
            let i = sub.tenant as usize;
            let backlog = (dispatched_total - completed_total) as usize;
            let ts = &mut tenants[i];
            ts.report.submitted += 1;
            let over_qd = ts.qd_cap > 0 && ts.depth() >= ts.qd_cap;
            let over_backlog = spec.backlog_limit > 0 && backlog >= spec.backlog_limit;
            if over_qd || over_backlog || ts.sq.is_full() {
                ts.report.rejected += 1;
                sim.tracer_mut().instant(Track::Tenant(sub.tenant), "busy", t);
                continue;
            }
            let was_empty = ts.sq.is_empty();
            let cid = ts.sq.submit(t, sub.sqe).expect("fullness checked above");
            if was_empty && ts.bucket.ready_at(t, sub.sqe.pages) <= t {
                let (cid2, submitted, sqe) = ts.sq.pop().expect("just submitted");
                debug_assert_eq!(cid2, cid);
                dispatch(sim, ts, &mut tag_map, sub.tenant, submitted, sqe, t);
                dispatched_total += 1;
            } else {
                ts.report.throttled += 1;
                sim.tracer_mut().instant(Track::Tenant(sub.tenant), "throttled", t);
            }
        }

        // 4. Re-arm a retry at each queued head's bucket-ready instant.
        for ts in &tenants {
            if let Some((_, _, sqe)) = ts.sq.peek() {
                let ready = ts.bucket.ready_at(t, sqe.pages);
                debug_assert!(ready > t, "ready head left queued at {t:?}");
                if ready <= horizon {
                    retries.insert(ready);
                }
            }
        }
    }

    // Run out the clock exactly as a batch run would, then settle.
    sim.run_events(u64::MAX);
    drain_completions(sim, &mut tenants, &tag_map, &mut completed_total, spec.warmup);
    sim.finish_run();

    let mut report = ServiceReport { duration: spec.duration, tenants: Vec::new() };
    for mut ts in tenants {
        // Whatever the horizon cut off — queued behind a dry bucket or
        // dispatched but unfinished — is accounted, not dropped.
        ts.report.expired = (ts.sq.len() + ts.inflight) as u64;
        ts.report.assert_conserved();
        report.tenants.push(ts.report);
    }
    report
}

/// Maps a queue entry onto the tenant's namespace and injects it into
/// the simulator, charging the token bucket and recording the tag
/// correlation.
fn dispatch(
    sim: &mut SsdSim,
    ts: &mut TenantState,
    tag_map: &mut Vec<Dispatched>,
    tenant: u16,
    submitted: SimTime,
    sqe: Sqe,
    now: SimTime,
) {
    ts.bucket.consume(now, sqe.pages);
    let injected = sim.inject_arrival(now, ts.ns.map(sqe));
    debug_assert!(injected, "dispatch instant past the horizon");
    ts.inflight += 1;
    tag_map.push(Dispatched { tenant, submitted, op: sqe.op });
}

/// Folds the simulator's completion log into the owning tenants'
/// reports. Completions submitted inside the warmup window are counted
/// but kept out of the latency percentiles.
fn drain_completions(
    sim: &mut SsdSim,
    tenants: &mut [TenantState],
    tag_map: &[Dispatched],
    completed_total: &mut u64,
    warmup: dssd_kernel::SimSpan,
) {
    let completions = sim.take_completions();
    if completions.is_empty() {
        return;
    }
    let tracer = sim.tracer_mut();
    for c in completions {
        let d = &tag_map[c.tag as usize];
        let ts = &mut tenants[d.tenant as usize];
        ts.inflight -= 1;
        *completed_total += 1;
        ts.report.completed += 1;
        ts.report.failed += u64::from(c.failed);
        if d.submitted >= SimTime::ZERO + warmup {
            ts.report.latency.record(c.at.saturating_since(d.submitted));
        }
        tracer.span_named(
            Class::Io,
            TENANT_SPAN_ID | c.tag,
            Track::Tenant(d.tenant),
            Stage::SystemBus,
            match d.op {
                Op::Read => "read",
                Op::Write => "write",
            },
            d.submitted,
            c.at.saturating_since(d.submitted),
        );
    }
}
