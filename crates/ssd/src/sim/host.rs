//! The host front-end (Sec 4): closed- and open-loop admission, the read
//! and write legs of host requests from the system bus down to the dies
//! and back (with the read retries and program-failure re-allocation
//! that keep a leg going after a media fault), the DRAM write cache and
//! its background flush, and TinyTail's RAIN parity and read
//! reconstruction.

use std::collections::VecDeque;

use dssd_ctrl::EccVerdict;
use dssd_flash::{DieAddr, FlashOpKind, PageAddr};
use dssd_ftl::{AllocGroup, GcPolicy, Lpn, META_NO_TICKET};
use dssd_kernel::{SimSpan, SimTime, Slab};
use dssd_telemetry::{Class, Track};
use dssd_workload::{Op, Request, SyntheticWorkload};

use super::observe::SpanOwner;
use super::resources::Hop;
use super::{Completion, Ev, LegId, ReqId, SsdSim, CLASS_IO};
use crate::cache::WriteCache;
use crate::faults::FaultInjector;
use crate::metrics::{StageKind, StageTotals};
use crate::SsdConfig;

/// The host seam: every host request in flight with its legs, and the
/// front-end state around them.
#[derive(Debug, Default)]
pub(super) struct Host {
    requests: Slab<ReqState>,
    /// Host read and write groups in flight; their events carry the key.
    read_legs: Slab<ReadLeg>,
    write_legs: Slab<WriteLeg>,
    /// Reused buffers of the write path: the allocation groups of one
    /// `Ftl::write_pages` call, and the LPNs `write_or_park` allocates.
    alloc_groups: Vec<AllocGroup>,
    lpn_buf: Vec<Lpn>,
    /// Reused buffers of the durable write path: the tickets of one
    /// `Ftl::write_pages` call, one per allocation group, and the
    /// emptied ticket lists of finished requests, for new requests.
    ticket_buf: Vec<u32>,
    spare_tickets: Vec<Vec<u32>>,
    /// Reused buffer of the read path: a host read's pages grouped for
    /// multi-plane reads, as the `(effective die, page row, effective
    /// channel)` key of each page with its (pre-remap) address, sorted
    /// by key.
    read_groups: Vec<((usize, u32, u32), PageAddr)>,
    cache: Option<WriteCache>,
    flush_backlog: VecDeque<Lpn>,
    /// Host writes waiting for free space: `(request, LPNs, attempt)`.
    blocked_writes: VecDeque<(ReqId, Vec<Lpn>, u32)>,
    /// Write groups awaiting re-allocation after a program failure.
    blocked_rewrites: VecDeque<(ReqId, Vec<Lpn>, u32)>,
    outstanding: usize,
    /// Start-order counter backing [`Completion::tag`].
    next_tag: u64,
    /// The closed-loop workload; `None` in an open-loop run.
    workload: Option<SyntheticWorkload>,
    /// Completion log for embedding front-ends; `None` (the default)
    /// records nothing.
    completions: Option<Vec<Completion>>,
    /// Data pages written since TinyTail's last parity page.
    parity_pending_pages: u32,
}

impl Host {
    pub(super) fn new(config: &SsdConfig) -> Self {
        Host { cache: config.write_cache_pages.map(WriteCache::new), ..Host::default() }
    }

    /// Host requests in flight.
    pub(super) fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Request `req` as the owner of a span ([`Observe::span`]).
    pub(super) fn owner(&mut self, req: ReqId) -> SpanOwner<'_> {
        (self.requests.get_mut(req).map(|r| &mut r.stages), Class::Io, req)
    }
}

/// One host request in flight.
#[derive(Debug, Clone)]
struct ReqState {
    op: Op,
    arrived: SimTime,
    /// Start-order index, reported in [`Completion`]s.
    tag: u64,
    pages_left: u32,
    total_pages: u32,
    stages: StageTotals,
    /// The request completed but lost data (read retries or program
    /// attempts exhausted) — surfaced to the host as a failure.
    failed: bool,
    /// Durability-model tickets of this request's write groups; redeemed
    /// (ack or discard) when the request completes. Empty when the model
    /// is disabled.
    tickets: Vec<u32>,
}

/// One host read group in flight: enough context for the ECC stage to
/// classify the decode and for read-retries to re-sense the same die.
#[derive(Debug, Clone, Copy)]
pub(super) struct ReadLeg {
    req: ReqId,
    pages: u32,
    /// Effective (post-SRT-remap) channel, for bus and ECC routing.
    pub(super) channel: u32,
    /// Effective die index, for retry re-senses.
    die: usize,
    /// Representative logical address of the group (pre-remap, so fault
    /// bookkeeping resolves through the SRT like every other path).
    pub(super) addr: PageAddr,
    /// 0 on the first sense; incremented per read-retry.
    pub(super) attempt: u32,
    /// Hard failure (injected media fault or worn-out block): retries
    /// cannot recover it.
    pub(super) hard: bool,
}

/// One host write group in flight, with enough context to re-allocate
/// and re-issue it if the program fails.
#[derive(Debug, Clone)]
struct WriteLeg {
    req: ReqId,
    die: usize,
    pages: u32,
    /// Effective (post-SRT-remap) channel, for flash-bus routing.
    channel: u32,
    /// The group's logical first address (pre-remap).
    addr: PageAddr,
    /// The group's LPNs, carried only when fault injection is enabled (a
    /// failed program re-allocates them through `Ftl::write_pages`).
    lpns: Option<Vec<Lpn>>,
    /// 1 on the first program; incremented per re-allocation.
    attempt: u32,
    /// Durability-model ticket for this group
    /// ([`dssd_ftl::META_NO_TICKET`] when the model is disabled).
    ticket: u32,
}

fn op_name(op: Op) -> &'static str {
    match op {
        Op::Read => "read",
        Op::Write => "write",
    }
}

impl SsdSim {
    /// Read hits observed by the DRAM write-buffer cache, if enabled.
    #[must_use]
    pub fn cache_hits(&self) -> Option<u64> {
        self.host.cache.as_ref().map(WriteCache::hits)
    }

    /// Enables (or disables) the completion log drained by
    /// [`SsdSim::take_completions`]. Observational only: the log never
    /// schedules events or draws random numbers.
    pub fn set_completion_log(&mut self, on: bool) {
        self.host.completions = on.then(Vec::new);
    }

    /// Drains completions recorded since the last drain. Empty unless
    /// [`SsdSim::set_completion_log`] enabled the log.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        match self.host.completions.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Arms a closed-loop run without driving it: pair with
    /// [`SsdSim::run_events`] / [`SsdSim::run_until`] to step the
    /// simulation (snapshots, crashpoint sweeps), then
    /// [`SsdSim::finish_run`]. `begin` + `run_events(u64::MAX)` +
    /// `finish_run` is exactly [`SsdSim::run_closed_loop`].
    pub fn begin_closed_loop(&mut self, workload: SyntheticWorkload, duration: SimSpan) {
        self.host.workload = Some(workload.bind(self.ftl.lpn_count()));
        self.begin_open_loop(duration);
        self.queue.push(SimTime::ZERO, Ev::Admit);
    }

    pub(super) fn admit_closed_loop(&mut self) {
        let Some(qd) = self.host.workload.as_ref().map(|wl| wl.queue_depth()) else { return };
        while self.host.outstanding < qd && self.now <= self.horizon() {
            let r = self.host.workload.as_mut().expect("checked above").next_request(&mut self.rng);
            self.start_request(r);
        }
        self.check_gc();
        self.pump_gc();
    }

    pub(super) fn start_request(&mut self, r: Request) {
        self.host.outstanding += 1;
        let tag = self.host.next_tag;
        self.host.next_tag += 1;
        let id = self.host.requests.insert(ReqState {
            op: r.op,
            arrived: self.now,
            tag,
            pages_left: r.pages,
            total_pages: r.pages,
            stages: StageTotals::default(),
            failed: false,
            tickets: self.host.spare_tickets.pop().unwrap_or_default(),
        });
        self.observe.tracer.begin(Class::Io, id.to_bits(), op_name(r.op), self.now);
        if r.dram_hit {
            self.serve_from_dram(id, r.pages);
            return;
        }
        match r.op {
            Op::Write => self.start_write(id, r),
            Op::Read => self.start_read(id, r),
        }
    }

    /// `pages` of request `id` cross the system bus to be served from
    /// DRAM.
    fn serve_from_dram(&mut self, id: ReqId, pages: u32) {
        let done = self.stage(Class::Io, id, Hop::SysBus, pages);
        self.queue.push(done, Ev::DramHitAtDram { req: id, pages });
    }

    fn start_write(&mut self, id: ReqId, r: Request) {
        self.host.lpn_buf.clear();
        self.host.lpn_buf.extend(r.lpns().map(|l| l % self.ftl.lpn_count()));
        if let Some(cache) = self.host.cache.as_mut() {
            // Write-back buffering: the write is acknowledged from DRAM;
            // dirty pages flush to flash in the background.
            for &lpn in &self.host.lpn_buf {
                cache.write(lpn);
            }
            self.serve_from_dram(id, r.pages);
            self.pump_flush();
        } else if self.write_or_park(id, 1, None) {
            self.charge_parity(r.pages);
        } else {
            // Out of space: the request stalls until GC frees a
            // superblock — this is where baseline tail latency explodes.
            self.check_gc();
        }
    }

    /// Allocates flash pages for the LPNs in the LPN buffer, written by
    /// request `req`, and issues one write leg per allocated group, or —
    /// out of space — parks a copy of them until a GC round frees a
    /// superblock and returns false. A fresh host write (`rewrite_at` of
    /// `None`) first crosses the system bus (host DMA); after a failed
    /// program the data still sits in the controller, so re-allocated
    /// groups enter the flash path at `rewrite_at`. `attempt` seeds each
    /// group's program-failure budget, and the LPNs ride along only when
    /// fault injection may fail a program.
    fn write_or_park(&mut self, req: ReqId, attempt: u32, rewrite_at: Option<SimTime>) -> bool {
        let host = &mut self.host;
        if !self.ftl.write_pages(&host.lpn_buf, &mut host.alloc_groups) {
            let parked = match rewrite_at {
                Some(_) => &mut host.blocked_rewrites,
                None => &mut host.blocked_writes,
            };
            parked.push_back((req, host.lpn_buf.clone(), attempt));
            return false;
        }
        // One durability ticket per group (none with the model off),
        // redeemed when the request completes.
        self.ftl.meta_drain_tickets(&mut host.ticket_buf);
        if let Some(st) = host.requests.get_mut(req) {
            st.tickets.extend_from_slice(&host.ticket_buf);
        }
        let carry = self.repair.injector.is_some();
        let mut off = 0usize;
        for i in 0..self.host.alloc_groups.len() {
            let g = &self.host.alloc_groups[i];
            let (pages, addr) = (g.len() as u32, g.addr(0));
            let lpns = carry.then(|| self.host.lpn_buf[off..off + pages as usize].to_vec());
            off += pages as usize;
            let at = match rewrite_at {
                Some(at) => at,
                None => self.stage(Class::Io, req, Hop::SysBus, pages),
            };
            let leg = self.host.write_legs.insert(WriteLeg {
                req,
                die: self.effective_die_index(addr),
                pages,
                channel: self.effective_addr(addr).channel,
                addr,
                lpns,
                attempt,
                ticket: self.host.ticket_buf.get(i).copied().unwrap_or(META_NO_TICKET),
            });
            self.queue.push(at, Ev::WriteAtCtrl { leg });
        }
        true
    }

    /// Re-issues the writes parked on space, now that a GC round freed a
    /// superblock: first the cache flush, then the host writes (each
    /// keeps its original arrival time), then the write groups parked by
    /// a program failure.
    pub(super) fn resume_writes(&mut self) {
        self.pump_flush();
        for (id, lpns, attempt) in std::mem::take(&mut self.host.blocked_writes) {
            self.host.lpn_buf = lpns;
            self.write_or_park(id, attempt, None);
        }
        for (id, lpns, attempt) in std::mem::take(&mut self.host.blocked_rewrites) {
            self.host.lpn_buf = lpns;
            self.write_or_park(id, attempt, Some(self.now));
        }
    }

    /// TinyTail maintains RAIN parity so reads can bypass GC-blocked
    /// chips: every stripe of data pages costs one extra parity-page
    /// write through the normal bus + flash path (the paper's "cost:
    /// FTL, parity pages for RAIN"). The parity write occupies resources
    /// but nothing waits on it, so it is charged analytically.
    fn charge_parity(&mut self, pages: u32) {
        if !matches!(self.config.ftl.policy, GcPolicy::TinyTail { .. }) {
            return;
        }
        self.host.parity_pending_pages += pages;
        let stripe = self.config.geometry.planes.max(1);
        while self.host.parity_pending_pages >= stripe {
            self.host.parity_pending_pages -= stripe;
            let die = self.rng.index(self.config.geometry.total_dies() as usize);
            let ch = self.config.geometry.die_at(die).channel as usize;
            self.program_unwaited(ch, die, 1);
        }
    }

    /// Books a program of `pages` on `die`, behind channel `ch`, that
    /// nothing waits on: the data crosses the system bus and the flash
    /// bus, then the die programs it. Parity and cache flushes occupy
    /// the resources like host writes but schedule no events.
    fn program_unwaited(&mut self, ch: usize, die: usize, pages: u32) {
        let bus_done = self.occupy(Hop::SysBus, self.now, pages, CLASS_IO);
        let done = self.occupy(Hop::Bus(ch), bus_done, pages, CLASS_IO);
        let lat = self.array_latency(FlashOpKind::Program, pages);
        self.occupy(Hop::Die(die, lat), done, pages, CLASS_IO);
    }

    fn start_read(&mut self, id: ReqId, r: Request) {
        // Group the request's pages by (die, page row) to exploit
        // multi-plane reads where the FTL laid pages out that way. The
        // fault injector draws per group, so groups issue in key order;
        // the stable sort keeps each group's first page in front, and
        // that page's address stands for the group.
        self.host.read_groups.clear();
        let mut unmapped = 0u32;
        let mut cached = 0u32;
        for lpn in r.lpns() {
            let lpn = lpn % self.ftl.lpn_count();
            if self.host.cache.as_mut().is_some_and(|c| c.read(lpn)) {
                cached += 1;
                continue;
            }
            match self.ftl.translate(lpn) {
                Some(raw) => {
                    let addr = self.effective_addr(raw);
                    let die = self.config.geometry.die_index(addr.die_addr());
                    self.host.read_groups.push(((die, addr.page, addr.channel), raw));
                }
                None => unmapped += 1,
            }
        }
        self.host.read_groups.sort_by_key(|&(key, _)| key);
        if cached > 0 {
            // Write-buffer hits are served from DRAM.
            self.serve_from_dram(id, cached);
        }
        if unmapped > 0 {
            // Never-written pages are served from the controller (real
            // drives return zeroes without touching flash): charge the
            // system-bus crossing only.
            self.deliver(id, Hop::SysBus, unmapped);
        }
        let mut next = 0;
        while let Some(&(key @ (die, _row, channel), raw)) = self.host.read_groups.get(next) {
            let len = self.host.read_groups[next..].iter().take_while(|g| g.0 == key).count();
            next += len;
            let pages = len as u32;
            // TinyTail: a read whose chip is busy with (partial) GC is
            // served by RAIN reconstruction — the k-1 stripe peers are
            // read from the other channels and XORed at the front end,
            // a (k-1)x read amplification that is the scheme's price for
            // never blocking behind GC.
            if matches!(self.config.ftl.policy, GcPolicy::TinyTail { .. })
                && self.gc.copying_on(channel as usize)
            {
                self.reconstruct_read(id, pages, channel);
                continue;
            }
            let lat = self.array_latency(FlashOpKind::Read, pages);
            let done = self.stage(Class::Io, id, Hop::Die(die, lat), pages);
            let leg = ReadLeg { req: id, pages, channel, die, addr: raw, attempt: 0, hard: false };
            let leg = self.host.read_legs.insert(leg);
            self.queue.push(done, Ev::ReadAtBus { leg });
        }
    }

    /// RAIN read reconstruction: read the stripe fragments from every
    /// other channel, move them to the front end, and complete the read
    /// once the slowest fragment has arrived and been XORed.
    fn reconstruct_read(&mut self, id: ReqId, pages: u32, blocked_channel: u32) {
        let geo = self.config.geometry;
        let now = self.now;
        let mut latest = now;
        let mut chip_span = SimSpan::ZERO;
        let mut bus_span = SimSpan::ZERO;
        for c in 0..geo.channels {
            if c == blocked_channel {
                continue;
            }
            // One fragment read per peer channel, on one of its dies.
            let local = self.rng.range_u64(0..(geo.ways * geo.dies) as u64) as u32;
            let die =
                geo.die_index(DieAddr { channel: c, way: local % geo.ways, die: local / geo.ways });
            let lat = self.array_latency(FlashOpKind::Read, pages);
            let die_done = self.occupy(Hop::Die(die, lat), now, pages, CLASS_IO);
            chip_span = chip_span.max(die_done - now);
            let done = self.occupy(Hop::Bus(c as usize), die_done, pages, CLASS_IO);
            bus_span = bus_span.max(done - now);
            latest = latest.max(done);
        }
        // Reconstruction aggregates max-of-peers times, so its slices
        // render on the front-end (system bus) lane rather than a single
        // die/channel lane; the per-stage attribution is unchanged.
        let (bus_start, bus) = (now + chip_span, bus_span.saturating_sub(chip_span));
        self.observe.span(self.host.owner(id), StageKind::FlashChip, Track::SysBus, now, chip_span);
        self.observe.span(self.host.owner(id), StageKind::FlashBus, Track::SysBus, bus_start, bus);
        // All fragments cross the system bus to be XORed at the front end.
        let done = self.occupy(Hop::SysBus, latest, pages * (geo.channels - 1), CLASS_IO);
        let sysbus = done - latest;
        self.observe.span(self.host.owner(id), StageKind::SystemBus, Track::SysBus, latest, sysbus);
        self.queue.push(done, Ev::PagesDone { req: id, pages });
    }

    pub(super) fn write_at_ctrl(&mut self, id: LegId) {
        let leg = &self.host.write_legs[id];
        let (req, hop, pages) = (leg.req, Hop::Bus(leg.channel as usize), leg.pages);
        let done = self.stage(Class::Io, req, hop, pages);
        self.queue.push(done, Ev::WriteAtDie { leg: id });
    }

    /// Programs one host write group, with an optional injected failure
    /// surfacing in the status read after the program time was spent.
    pub(super) fn write_at_die(&mut self, id: LegId) {
        let leg = self.host.write_legs.remove(id).expect("unknown write leg");
        let lat = self.array_latency(FlashOpKind::Program, leg.pages);
        let done = self.stage(Class::Io, leg.req, Hop::Die(leg.die, lat), leg.pages);
        if self.repair.injector.as_mut().is_some_and(FaultInjector::program_fails) {
            // The failure surfaces in the status read after program time.
            self.observe.tracer.instant(Track::Faults, "program failure", done);
            self.report.faults.program_failures += 1;
            self.handle_program_failure(leg, done);
            return;
        }
        // The group's OOB becomes durable when the program completes at
        // `done`; a crash before then tears these pages.
        self.ftl.meta_mark_programmed(leg.ticket, done);
        self.pump_meta();
        self.queue.push(done, Ev::PagesDone { req: leg.req, pages: leg.pages });
    }

    pub(super) fn read_at_bus(&mut self, id: LegId) {
        let leg = self.host.read_legs[id];
        let done = self.stage(Class::Io, leg.req, Hop::Bus(leg.channel as usize), leg.pages);
        self.queue.push(done, Ev::ReadAtEcc { leg: id });
    }

    /// The last stage of `pages` of request `req`, on `hop`: a read
    /// group's system-bus crossing or a DRAM hit's access.
    pub(super) fn deliver(&mut self, req: ReqId, hop: Hop, pages: u32) {
        let done = self.stage(Class::Io, req, hop, pages);
        self.queue.push(done, Ev::PagesDone { req, pages });
    }

    pub(super) fn finish_pages(&mut self, req: ReqId, pages: u32) {
        let state = self.host.requests.get_mut(req).expect("unknown request");
        state.pages_left -= pages;
        if state.pages_left > 0 {
            return;
        }
        let mut state = self.host.requests.remove(req).expect("looked up above");
        self.host.outstanding -= 1;
        // Redeem the durability tickets: a successful completion is the
        // host acknowledgement (the recovery oracle's ground truth); a
        // failed one guarantees nothing and is discarded.
        for &ticket in &state.tickets {
            if state.failed {
                self.ftl.meta_discard(ticket);
            } else {
                self.ftl.meta_ack(ticket);
            }
        }
        if state.tickets.capacity() > 0 {
            state.tickets.clear();
            self.host.spare_tickets.push(state.tickets);
        }
        if state.failed {
            self.report.faults.requests_failed += 1;
        }
        self.close_spans(Class::Io, req, op_name(state.op), state.failed, &state.stages);
        let latency = self.now - state.arrived;
        self.report.io_latency.record(latency);
        match state.op {
            Op::Read => self.report.read_latency.record(latency),
            Op::Write => self.report.write_latency.record(latency),
        }
        self.report.io_bw.record(self.now, self.page_bytes(state.total_pages));
        self.report.requests_completed += 1;
        if let Some(log) = self.host.completions.as_mut() {
            log.push(Completion { tag: state.tag, at: self.now, failed: state.failed });
        }
        if self.host.workload.is_some() {
            self.queue.push(self.now, Ev::Admit);
        }
        self.check_gc();
        self.pump_gc();
    }

    /// Flushes dirty cache pages to flash in the background: the flush
    /// traffic occupies the system bus, flash buses and dies exactly like
    /// host writes, but nothing waits on it, so it is charged
    /// analytically (no completion events).
    pub(super) fn pump_flush(&mut self) {
        if self.host.cache.is_none() {
            return;
        }
        loop {
            let mut batch: Vec<Lpn> = self.host.flush_backlog.drain(..).collect();
            if batch.is_empty() {
                let cache = self.host.cache.as_mut().expect("checked above");
                if !cache.needs_flush() {
                    return;
                }
                batch = cache.take_dirty(64);
                if batch.is_empty() {
                    return;
                }
            }
            if !self.ftl.write_pages(&batch, &mut self.host.alloc_groups) {
                // Out of space: keep the batch and wait for GC.
                self.host.flush_backlog = batch.into();
                self.check_gc();
                return;
            }
            for i in 0..self.host.alloc_groups.len() {
                let g = &self.host.alloc_groups[i];
                let (pages, addr) = (g.len() as u32, g.addr(0));
                let ch = self.effective_addr(addr).channel as usize;
                self.program_unwaited(ch, self.effective_die_index(addr), pages);
            }
            self.check_gc();
        }
    }

    // ------------------------------------------------------------------
    // Media faults on a leg: read retries and program failures
    // ------------------------------------------------------------------

    /// The ECC stage of a host read group: decode timing, then — when
    /// fault injection is enabled — an in-band verdict that can trigger a
    /// read-retry or an uncorrectable-read recovery.
    pub(super) fn read_at_ecc(&mut self, id: LegId) {
        let mut leg = self.host.read_legs.remove(id).expect("unknown read leg");
        let done = self.stage(Class::Io, leg.req, Hop::Ecc(leg.channel as usize), leg.pages);
        match self.read_verdict(&mut leg) {
            EccVerdict::Clean | EccVerdict::Corrected => {
                if leg.attempt > 0 {
                    // A retry pulled the data back under the correction
                    // threshold.
                    self.report.faults.reads_recovered += 1;
                }
                self.queue.push(done, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
            }
            EccVerdict::Uncorrectable if leg.attempt < self.config.faults.max_read_retries => {
                self.schedule_read_retry(leg, done);
            }
            EccVerdict::Uncorrectable => self.fail_read(leg, done),
        }
    }

    /// Issues one read-retry: the die is re-sensed with escalated latency
    /// (deeper reference-voltage sweeps), then the data crosses the flash
    /// bus to the ECC engine again.
    fn schedule_read_retry(&mut self, mut leg: ReadLeg, at: SimTime) {
        leg.attempt += 1;
        let base = self.array_latency(FlashOpKind::Read, leg.pages);
        let factor = self.config.faults.retry_latency_factor.powi(leg.attempt as i32);
        let lat = SimSpan::from_ns((base.as_ns() as f64 * factor).round() as u64);
        let done = self.occupy(Hop::Die(leg.die, lat), at, leg.pages, CLASS_IO);
        let (owner, track) = (self.host.owner(leg.req), Track::Die(leg.die as u32));
        self.observe.span(owner, StageKind::FlashChip, track, at, done - at);
        self.observe.tracer.instant(Track::Faults, "read retry", at);
        self.report.faults.read_retries += 1;
        self.report.faults.retry_latency += done - at;
        let leg = self.host.read_legs.insert(leg);
        self.queue.push(done, Ev::ReadAtBus { leg });
    }

    /// Retries exhausted: the read is uncorrectable. The failing block is
    /// retired, the request is marked failed for the report, and the
    /// (front-end-reconstructed) data still crosses the system bus so the
    /// request completes instead of hanging.
    fn fail_read(&mut self, leg: ReadLeg, at: SimTime) {
        self.observe.tracer.instant(Track::Faults, "uncorrectable read", at);
        self.report.faults.uncorrectable_reads += 1;
        if let Some(st) = self.host.requests.get_mut(leg.req) {
            st.failed = true;
        }
        self.mark_block_bad(leg.addr.block_addr());
        self.queue.push(at, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
    }

    /// A program reported failure: retire the block, then re-allocate and
    /// re-issue the group — or complete the request as failed once the
    /// attempt budget is spent.
    fn handle_program_failure(&mut self, leg: WriteLeg, at: SimTime) {
        // A failed program leaves no durable OOB record and journals no
        // mapping op; the re-allocation below issues a fresh ticket.
        self.ftl.meta_mark_torn(leg.ticket);
        // With its attempts spent, the write completes, but its request
        // is surfaced to the host as failed.
        let max_attempts = self.config.faults.max_program_attempts;
        let exhausted = leg.attempt >= max_attempts || leg.lpns.is_none();
        if let Some(st) = self.host.requests.get_mut(leg.req) {
            if let Some(pos) = st.tickets.iter().position(|&t| t == leg.ticket) {
                st.tickets.swap_remove(pos);
            }
            st.failed |= exhausted;
        }
        self.mark_block_bad(leg.addr.block_addr());
        let Some(lpns) = leg.lpns.filter(|_| !exhausted) else {
            self.queue.push(at, Ev::PagesDone { req: leg.req, pages: leg.pages });
            return;
        };
        self.host.lpn_buf = lpns;
        if !self.write_or_park(leg.req, leg.attempt + 1, Some(at)) {
            // No space for the re-allocation: it waits for GC.
            self.check_gc();
        }
    }
}

#[cfg(test)]
impl SsdSim {
    /// Request conservation: every started request has completed or is
    /// in flight, and every read leg, write leg and parked write or
    /// rewrite belongs to a request in flight.
    fn audit_requests(&self) {
        let host = &self.host;
        assert_eq!(host.outstanding, host.requests.len(), "outstanding vs live requests");
        let settled = self.report.requests_completed + host.outstanding as u64;
        assert_eq!(host.next_tag, settled, "started vs completed + outstanding");
        let reads = host.read_legs.iter().map(|(_, l)| l.req);
        let writes = host.write_legs.iter().map(|(_, l)| l.req);
        let parked = host.blocked_writes.iter().chain(&host.blocked_rewrites).map(|p| p.0);
        for req in reads.chain(writes).chain(parked) {
            assert!(host.requests.contains(req), "a leg or parked write outlived {req:?}");
        }
    }
}

#[cfg(test)]
mod tests {
    use dssd_kernel::SimSpan;
    use dssd_workload::{AccessPattern, SyntheticWorkload};

    use crate::{Architecture, FaultConfig, RunState, SsdConfig, SsdSim};

    /// The request-conservation audit, the GC law and, on dSSD_f, the
    /// fNoC's credit law hold after every single event, on every
    /// architecture, with faults off and on (read retries, program
    /// re-allocation, erase failures, delayed packets). The dSSD_f runs
    /// demote express groups with faults off and on.
    #[test]
    fn requests_are_conserved_after_every_event() {
        let mut faults = FaultConfig::none();
        faults.read_transient_prob = 0.05;
        faults.read_hard_prob = 0.005;
        faults.program_fail_prob = 0.02;
        faults.erase_fail_prob = 0.05;
        faults.noc_degrade_prob = 0.05;
        for arch in Architecture::all() {
            for faults in [FaultConfig::none(), faults] {
                let mut cfg = SsdConfig::test_tiny(arch);
                cfg.faults = faults;
                cfg.gc_continuous = true;
                let mut sim = SsdSim::new(cfg);
                sim.prefill();
                let wl = SyntheticWorkload::mixed(AccessPattern::Random, 4, 0.5);
                sim.begin_closed_loop(wl, SimSpan::from_us(400));
                let mut events = 0u64;
                while sim.run_events(1) == RunState::Paused {
                    sim.audit_requests();
                    sim.audit_gc();
                    if let Some(net) = sim.noc() {
                        assert_eq!(net.audit_credits(), Ok(()), "after {events} events");
                    }
                    events += 1;
                }
                if let Some(net) = sim.noc() {
                    assert!(net.express_diag().demoted > 0, "no express group demoted");
                }
                assert!(events > 1_000, "{}: only {events} events", arch.label());
                assert!(sim.report().requests_completed > 0, "{}", arch.label());
            }
        }
    }
}
