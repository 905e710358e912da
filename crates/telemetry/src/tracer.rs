//! The span tracer: per-entity buffering, a windowed ring buffer, and
//! run-level summary statistics.
//!
//! # Design
//!
//! Spans are buffered *per open entity* (request or GC job) while the
//! entity is in flight, and flushed into the shared ring buffer only when
//! the entity completes. This has two important consequences:
//!
//! * Entities still in flight when the simulation horizon is reached never
//!   reach the export buffer, so per-stage sums over an exported trace
//!   agree exactly with the simulator's completion-only `StageBreakdown`.
//! * Windowed pruning (`window` in [`TraceConfig`]) bounds the ring buffer
//!   by wall-clock span of retained events, while open-entity buffers are
//!   naturally bounded by the queue depth, so million-request runs cannot
//!   accumulate unbounded memory.
//!
//! The tracer is strictly observational: it never schedules events, draws
//! random numbers, or feeds anything back into the simulation, so enabling
//! it cannot perturb a deterministic run.

use std::collections::VecDeque;

use dssd_kernel::stats::Histogram;
use dssd_kernel::{FxHashMap, SimSpan, SimTime};

use crate::span::{Class, Stage, TraceEvent, Track};

/// Configuration handed to the simulator when enabling tracing.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceConfig {
    /// Keep only events newer than `latest - window`. `None` keeps all.
    pub window: Option<SimSpan>,
    /// Epoch sampling interval for the time-series probe. `None` disables
    /// epoch sampling.
    pub epoch: Option<SimSpan>,
}

/// Per-class, per-stage latency summary accumulated at entity completion.
///
/// Stage histograms record the *per-entity total* nanoseconds spent in each
/// stage (including zero for untouched stages), mirroring the semantics of
/// the simulator's `StageBreakdown`, so means cross-check exactly. Exact
/// per-stage sums are kept separately in `u128` so the cross-check does not
/// depend on histogram bucketing.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    stage_hist: [[Histogram; 6]; 2],
    stage_total_ns: [[u128; 6]; 2],
    latency: [Histogram; 2],
    count: [u64; 2],
    failed: [u64; 2],
}

impl TraceSummary {
    fn new() -> Self {
        // Log-bucketed mode bounds summary memory regardless of run length.
        let hist = || Histogram::log_bucketed();
        TraceSummary {
            stage_hist: [
                std::array::from_fn(|_| hist()),
                std::array::from_fn(|_| hist()),
            ],
            stage_total_ns: [[0; 6]; 2],
            latency: [hist(), hist()],
            count: [0; 2],
            failed: [0; 2],
        }
    }

    fn class_index(class: Class) -> usize {
        match class {
            Class::Io => 0,
            Class::Gc => 1,
        }
    }

    fn record(&mut self, class: Class, latency: SimSpan, failed: bool, totals: &[SimSpan; 6]) {
        let c = Self::class_index(class);
        self.count[c] += 1;
        self.failed[c] += u64::from(failed);
        self.latency[c].record(latency);
        for (i, t) in totals.iter().enumerate() {
            self.stage_hist[c][i].record(*t);
            self.stage_total_ns[c][i] += u128::from(t.as_ns());
        }
    }

    /// Entities of `class` completed.
    #[must_use]
    pub fn count(&self, class: Class) -> u64 {
        self.count[Self::class_index(class)]
    }

    /// Entities of `class` that completed in a failed state.
    #[must_use]
    pub fn failed(&self, class: Class) -> u64 {
        self.failed[Self::class_index(class)]
    }

    /// End-to-end latency histogram for `class`.
    #[must_use]
    pub fn latency(&self, class: Class) -> &Histogram {
        &self.latency[Self::class_index(class)]
    }

    /// Per-entity time-in-stage histogram for `class` / `stage`.
    #[must_use]
    pub fn stage_hist(&self, class: Class, stage: Stage) -> &Histogram {
        &self.stage_hist[Self::class_index(class)][stage.index()]
    }

    /// Exact total nanoseconds spent by completed `class` entities in
    /// `stage` — the cross-check quantity against `StageBreakdown`.
    #[must_use]
    pub fn stage_total_ns(&self, class: Class, stage: Stage) -> u128 {
        self.stage_total_ns[Self::class_index(class)][stage.index()]
    }
}

#[derive(Debug, Clone)]
struct OpenEntity {
    buf: Vec<TraceEvent>,
    began: SimTime,
}

#[derive(Debug, Clone)]
struct Inner {
    window: Option<SimSpan>,
    events: VecDeque<TraceEvent>,
    open: [FxHashMap<u64, OpenEntity>; 2],
    summary: TraceSummary,
    latest: SimTime,
    recorded: u64,
    pruned: u64,
}

impl Inner {
    /// Buffers a slice with its open entity, or records it directly when
    /// the entity is not open; zero-duration slices are dropped.
    #[inline]
    #[allow(clippy::too_many_arguments)] // the slice's fields, unpacked
    fn span(
        &mut self,
        class: Class,
        id: u64,
        track: Track,
        stage: Stage,
        name: &'static str,
        start: SimTime,
        dur: SimSpan,
    ) {
        if dur == SimSpan::ZERO {
            return;
        }
        let ev = TraceEvent::Span {
            track,
            stage,
            name,
            class,
            id,
            start,
            dur,
        };
        if let Some(open) = self.open[TraceSummary::class_index(class)].get_mut(&id) {
            open.buf.push(ev);
        } else {
            self.push(ev);
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let ts = ev.ts();
        if ts > self.latest {
            self.latest = ts;
        }
        self.events.push_back(ev);
        self.recorded += 1;
        if let Some(w) = self.window {
            let cutoff = self.latest.saturating_since(SimTime::ZERO + w);
            let cutoff = SimTime::ZERO + cutoff;
            while let Some(front) = self.events.front() {
                if front.ts() < cutoff {
                    self.events.pop_front();
                    self.pruned += 1;
                } else {
                    break;
                }
            }
        }
    }
}

/// The span tracer. Disabled by default; every recording method is an
/// inlined early-return when disabled, so the hot path costs one branch.
#[derive(Debug, Default, Clone)]
pub struct Tracer {
    inner: Option<Box<Inner>>,
}

impl Tracer {
    /// A disabled tracer (the default state).
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer with the given configuration.
    #[must_use]
    pub fn enabled(config: TraceConfig) -> Self {
        Tracer {
            inner: Some(Box::new(Inner {
                window: config.window,
                events: VecDeque::new(),
                open: [FxHashMap::default(), FxHashMap::default()],
                summary: TraceSummary::new(),
                latest: SimTime::ZERO,
                recorded: 0,
                pruned: 0,
            })),
        }
    }

    /// Whether the tracer is recording.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open an entity lifecycle (host request or GC job).
    #[inline]
    pub fn begin(&mut self, class: Class, id: u64, name: &'static str, t: SimTime) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let track = match class {
            Class::Io => Track::Requests,
            Class::Gc => Track::GcJobs,
        };
        let mut buf = Vec::with_capacity(8);
        buf.push(TraceEvent::Begin {
            track,
            class,
            id,
            name,
            t,
        });
        inner.open[TraceSummary::class_index(class)].insert(id, OpenEntity { buf, began: t });
    }

    /// Record a resource slice owned by an open entity. Zero-duration
    /// slices are elided from the timeline (they still count toward the
    /// summary via the totals passed to [`Tracer::end`]).
    #[inline]
    pub fn span(
        &mut self,
        class: Class,
        id: u64,
        track: Track,
        stage: Stage,
        start: SimTime,
        dur: SimSpan,
    ) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.span(class, id, track, stage, stage.label(), start, dur);
        }
    }

    /// Record an auxiliary slice with an explicit name distinct from every
    /// [`Stage::label`], so it renders on the timeline without inflating
    /// name-keyed per-stage sums (e.g. per-hop fNoC link occupancy, which
    /// overlaps the end-to-end transit span).
    #[inline]
    #[allow(clippy::too_many_arguments)] // `span` plus an explicit name
    pub fn span_named(
        &mut self,
        class: Class,
        id: u64,
        track: Track,
        stage: Stage,
        name: &'static str,
        start: SimTime,
        dur: SimSpan,
    ) {
        if let Some(inner) = self.inner.as_deref_mut() {
            debug_assert!(
                Stage::ALL.iter().all(|s| s.label() != name),
                "auxiliary span name collides with a stage label"
            );
            inner.span(class, id, track, stage, name, start, dur);
        }
    }

    /// Close an entity lifecycle, flushing its buffered spans into the
    /// ring buffer and folding its per-stage totals into the summary.
    ///
    /// `totals` are the entity's accumulated per-stage times, indexed by
    /// [`Stage::index`] — the same values the simulator feeds its
    /// `StageBreakdown`.
    #[inline]
    pub fn end(
        &mut self,
        class: Class,
        id: u64,
        name: &'static str,
        t: SimTime,
        failed: bool,
        totals: &[SimSpan; 6],
    ) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        let track = match class {
            Class::Io => Track::Requests,
            Class::Gc => Track::GcJobs,
        };
        let c = TraceSummary::class_index(class);
        if let Some(open) = inner.open[c].remove(&id) {
            let latency = t.saturating_since(open.began);
            inner.summary.record(class, latency, failed, totals);
            for ev in open.buf {
                inner.push(ev);
            }
        }
        inner.push(TraceEvent::End {
            track,
            class,
            id,
            name,
            t,
            failed,
        });
    }

    /// Record an instant marker. Instants bypass entity buffering so
    /// faults remain on the timeline even if their owner never completes.
    #[inline]
    pub fn instant(&mut self, track: Track, name: &'static str, t: SimTime) {
        let Some(inner) = self.inner.as_deref_mut() else {
            return;
        };
        inner.push(TraceEvent::Instant { track, name, t });
    }

    /// Retained (flushed, unpruned) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.inner.iter().flat_map(|i| i.events.iter())
    }

    /// Completion-time summary, if the tracer is enabled.
    #[must_use]
    pub fn summary(&self) -> Option<&TraceSummary> {
        self.inner.as_deref().map(|i| &i.summary)
    }

    /// Total events flushed to the ring buffer over the run.
    #[must_use]
    pub fn events_recorded(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.recorded)
    }

    /// Events evicted by the `--trace-window` cap.
    #[must_use]
    pub fn events_pruned(&self) -> u64 {
        self.inner.as_deref().map_or(0, |i| i.pruned)
    }

    /// Entities begun but not yet ended (in flight at the horizon).
    #[must_use]
    pub fn open_entities(&self) -> usize {
        self.inner
            .as_deref()
            .map_or(0, |i| i.open[0].len() + i.open[1].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    fn d(ns: u64) -> SimSpan {
        SimSpan::from_ns(ns)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        tr.begin(Class::Io, 1, "read", t(0));
        tr.span(Class::Io, 1, Track::SysBus, Stage::SystemBus, t(0), d(10));
        tr.end(Class::Io, 1, "read", t(10), false, &[SimSpan::ZERO; 6]);
        tr.instant(Track::Faults, "x", t(5));
        assert!(!tr.is_enabled());
        assert_eq!(tr.events_recorded(), 0);
        assert!(tr.summary().is_none());
    }

    #[test]
    fn spans_flush_only_on_completion() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.begin(Class::Io, 7, "write", t(0));
        tr.span(Class::Io, 7, Track::SysBus, Stage::SystemBus, t(0), d(100));
        // Nothing flushed while in flight.
        assert_eq!(tr.events().count(), 0);
        assert_eq!(tr.open_entities(), 1);
        let mut totals = [SimSpan::ZERO; 6];
        totals[Stage::SystemBus.index()] = d(100);
        tr.end(Class::Io, 7, "write", t(100), false, &totals);
        assert_eq!(tr.open_entities(), 0);
        // begin + span + end.
        assert_eq!(tr.events().count(), 3);
        let s = tr.summary().unwrap();
        assert_eq!(s.count(Class::Io), 1);
        assert_eq!(s.stage_total_ns(Class::Io, Stage::SystemBus), 100);
        assert_eq!(s.latency(Class::Io).mean(), d(100));
    }

    #[test]
    fn unfinished_entities_never_reach_the_ring() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.begin(Class::Gc, 3, "copyback", t(0));
        tr.span(Class::Gc, 3, Track::NocTransit, Stage::Noc, t(0), d(50));
        assert_eq!(tr.events().count(), 0);
        assert_eq!(tr.open_entities(), 1);
        assert_eq!(tr.summary().unwrap().count(Class::Gc), 0);
    }

    #[test]
    fn zero_duration_spans_are_elided() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.begin(Class::Io, 1, "read", t(0));
        tr.span(Class::Io, 1, Track::Dram, Stage::Dram, t(0), SimSpan::ZERO);
        tr.end(Class::Io, 1, "read", t(1), false, &[SimSpan::ZERO; 6]);
        assert_eq!(tr.events().count(), 2); // begin + end only
    }

    #[test]
    fn window_prunes_old_events() {
        let mut tr = Tracer::enabled(TraceConfig {
            window: Some(d(100)),
            epoch: None,
        });
        for i in 0..10 {
            tr.instant(Track::Sim, "tick", t(i * 50));
        }
        assert_eq!(tr.events_recorded(), 10);
        assert!(tr.events_pruned() > 0);
        let cutoff = t(450 - 100);
        assert!(tr.events().all(|e| e.ts() >= cutoff));
    }

    #[test]
    fn failed_entities_are_counted() {
        let mut tr = Tracer::enabled(TraceConfig::default());
        tr.begin(Class::Io, 9, "read", t(0));
        tr.end(Class::Io, 9, "read", t(5), true, &[SimSpan::ZERO; 6]);
        let s = tr.summary().unwrap();
        assert_eq!(s.count(Class::Io), 1);
        assert_eq!(s.failed(Class::Io), 1);
    }
}
