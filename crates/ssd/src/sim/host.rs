//! The host front-end (Sec 4): closed- and open-loop admission, the read
//! and write legs of host requests from the system bus down to the dies
//! and back, the DRAM write cache and its background flush, and
//! TinyTail's RAIN parity and read reconstruction.

use dssd_flash::{DieAddr, FlashOpKind, PageAddr};
use dssd_ftl::{GcPolicy, Lpn, META_NO_TICKET};
use dssd_kernel::{SimSpan, SimTime};
use dssd_telemetry::{Class, Track};
use dssd_workload::{Op, Request};

use super::resources::Hop;
use super::{Completion, Ev, LegId, ReqId, SsdSim, CLASS_IO};
use crate::cache::WriteCache;
use crate::metrics::{StageKind, StageTotals};

/// A host read's pages grouped for multi-plane reads: the `(effective
/// die, page row, effective channel)` key of each page with its
/// (pre-remap) address, sorted by key.
pub(super) type ReadGroups = Vec<((usize, u32, u32), PageAddr)>;

/// One host request in flight.
#[derive(Debug, Clone)]
pub(super) struct ReqState {
    op: Op,
    arrived: SimTime,
    /// Start-order index, reported in [`Completion`]s.
    tag: u64,
    pages_left: u32,
    total_pages: u32,
    pub(super) stages: StageTotals,
    /// The request completed but lost data (read retries or program
    /// attempts exhausted) — surfaced to the host as a failure.
    pub(super) failed: bool,
    /// Durability-model tickets of this request's write groups; redeemed
    /// (ack or discard) when the request completes. Empty when the model
    /// is disabled.
    pub(super) tickets: Vec<u32>,
}

/// One host read group in flight: enough context for the ECC stage to
/// classify the decode and for read-retries to re-sense the same die.
#[derive(Debug, Clone, Copy)]
pub(super) struct ReadLeg {
    pub(super) req: ReqId,
    pub(super) pages: u32,
    /// Effective (post-SRT-remap) channel, for bus and ECC routing.
    pub(super) channel: u32,
    /// Effective die index, for retry re-senses.
    pub(super) die: usize,
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
pub(super) struct WriteLeg {
    pub(super) req: ReqId,
    pub(super) die: usize,
    pub(super) pages: u32,
    /// Effective (post-SRT-remap) channel, for flash-bus routing.
    pub(super) channel: u32,
    /// The group's logical first address (pre-remap).
    pub(super) addr: PageAddr,
    /// The group's LPNs, carried only when fault injection is enabled (a
    /// failed program re-allocates them through `Ftl::write_pages`).
    pub(super) lpns: Option<Vec<Lpn>>,
    /// 1 on the first program; incremented per re-allocation.
    pub(super) attempt: u32,
    /// Durability-model ticket for this group
    /// ([`dssd_ftl::META_NO_TICKET`] when the model is disabled).
    pub(super) ticket: u32,
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
        self.cache.as_ref().map(WriteCache::hits)
    }

    /// Enables (or disables) the completion log drained by
    /// [`SsdSim::take_completions`]. Observational only: the log never
    /// schedules events or draws random numbers.
    pub fn set_completion_log(&mut self, on: bool) {
        self.completions = on.then(Vec::new);
    }

    /// Drains completions recorded since the last drain. Empty unless
    /// [`SsdSim::set_completion_log`] enabled the log.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        match self.completions.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    pub(super) fn admit_closed_loop(&mut self) {
        let Some(mut wl) = self.workload.take() else { return };
        let qd = wl.queue_depth();
        while self.outstanding < qd && self.now <= self.horizon {
            let r = wl.next_request(&mut self.rng);
            self.start_request(r);
        }
        self.workload = Some(wl);
        self.check_gc();
        self.pump_gc();
    }

    pub(super) fn start_request(&mut self, r: Request) {
        self.outstanding += 1;
        let tag = self.next_tag;
        self.next_tag += 1;
        let id = self.requests.insert(ReqState {
            op: r.op,
            arrived: self.now,
            tag,
            pages_left: r.pages,
            total_pages: r.pages,
            stages: StageTotals::default(),
            failed: false,
            tickets: Vec::new(),
        });
        self.tracer.begin(Class::Io, id.to_bits(), op_name(r.op), self.now);
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
        let mut lpns = std::mem::take(&mut self.lpn_buf);
        lpns.clear();
        lpns.extend(r.lpns().map(|l| l % self.ftl.lpn_count()));
        if let Some(cache) = self.cache.as_mut() {
            // Write-back buffering: the write is acknowledged from DRAM;
            // dirty pages flush to flash in the background.
            for &lpn in &lpns {
                cache.write(lpn);
            }
            self.serve_from_dram(id, r.pages);
            self.pump_flush();
        } else if self.write_or_park(id, &lpns, 1, None) {
            self.charge_parity(r.pages);
        } else {
            // Out of space: the request stalls until GC frees a
            // superblock — this is where baseline tail latency explodes.
            self.check_gc();
        }
        self.lpn_buf = lpns;
    }

    /// Allocates flash pages for `lpns` of request `req` and issues one
    /// write leg per allocated group, or — out of space — parks a copy
    /// of them until a GC round frees a superblock and returns false. A
    /// fresh host write (`rewrite_at` of `None`) first crosses the system
    /// bus (host DMA); after a failed program the data still sits in the
    /// controller, so re-allocated groups enter the flash path at
    /// `rewrite_at`. `attempt` seeds each group's program-failure
    /// budget, and the LPNs ride along only when fault injection may
    /// fail a program.
    pub(super) fn write_or_park(
        &mut self,
        req: ReqId,
        lpns: &[Lpn],
        attempt: u32,
        rewrite_at: Option<SimTime>,
    ) -> bool {
        let mut groups = std::mem::take(&mut self.alloc_groups);
        if !self.ftl.write_pages(lpns, &mut groups) {
            self.alloc_groups = groups;
            let parked = match rewrite_at {
                Some(_) => &mut self.blocked_rewrites,
                None => &mut self.blocked_writes,
            };
            parked.push_back((req, lpns.to_vec(), attempt));
            return false;
        }
        // One durability ticket per group (none with the model off),
        // redeemed when the request completes.
        let tickets = self.ftl.meta_drain_tickets();
        if let Some(st) = self.requests.get_mut(req) {
            st.tickets.extend_from_slice(&tickets);
        }
        let carry = self.injector.is_some();
        let mut off = 0usize;
        for (i, g) in groups.iter().enumerate() {
            let pages = g.len() as u32;
            let lpns = carry.then(|| lpns[off..off + g.len()].to_vec());
            off += g.len();
            let at = match rewrite_at {
                Some(at) => at,
                None => self.stage(Class::Io, req, Hop::SysBus, pages),
            };
            let addr = g.addr(0);
            let leg = self.write_legs.insert(WriteLeg {
                req,
                die: self.effective_die_index(addr),
                pages,
                channel: self.effective_addr(addr).channel,
                addr,
                lpns,
                attempt,
                ticket: tickets.get(i).copied().unwrap_or(META_NO_TICKET),
            });
            self.queue.push(at, Ev::WriteAtCtrl { leg });
        }
        self.alloc_groups = groups;
        true
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
        self.parity_pending_pages += pages;
        let stripe = self.config.geometry.planes.max(1);
        while self.parity_pending_pages >= stripe {
            self.parity_pending_pages -= stripe;
            let bus_done = self.occupy(Hop::SysBus, self.now, 1, CLASS_IO);
            let die = self.rng.index(self.dies.len());
            let ch = self.config.geometry.die_at(die).channel as usize;
            let done = self.occupy(Hop::Bus(ch), bus_done, 1, CLASS_IO);
            let lat = self.array_latency(FlashOpKind::Program, 1);
            self.dies.occupy(die, done, lat);
        }
    }

    fn start_read(&mut self, id: ReqId, r: Request) {
        // Group the request's pages by (die, page row) to exploit
        // multi-plane reads where the FTL laid pages out that way. The
        // fault injector draws per group, so groups issue in key order;
        // the stable sort keeps each group's first page in front, and
        // that page's address stands for the group.
        let mut groups = std::mem::take(&mut self.read_groups);
        groups.clear();
        let mut unmapped = 0u32;
        let mut cached = 0u32;
        for lpn in r.lpns() {
            let lpn = lpn % self.ftl.lpn_count();
            if self.cache.as_mut().is_some_and(|c| c.read(lpn)) {
                cached += 1;
                continue;
            }
            match self.ftl.translate(lpn) {
                Some(raw) => {
                    let addr = self.effective_addr(raw);
                    let die = self.effective_die_index_raw(addr);
                    groups.push(((die, addr.page, addr.channel), raw));
                }
                None => unmapped += 1,
            }
        }
        groups.sort_by_key(|&(key, _)| key);
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
        for group in groups.chunk_by(|a, b| a.0 == b.0) {
            let ((die, _row, channel), raw) = group[0];
            let pages = group.len() as u32;
            // TinyTail: a read whose chip is busy with (partial) GC is
            // served by RAIN reconstruction — the k-1 stripe peers are
            // read from the other channels and XORed at the front end,
            // a (k-1)x read amplification that is the scheme's price for
            // never blocking behind GC.
            if matches!(self.config.ftl.policy, GcPolicy::TinyTail { .. })
                && self
                    .gc
                    .as_ref()
                    .is_some_and(|g| g.channel_inflight[channel as usize] > 0)
            {
                self.reconstruct_read(id, pages, channel);
                continue;
            }
            let lat = self.array_latency(FlashOpKind::Read, pages);
            let done = self.stage(Class::Io, id, Hop::Die(die, lat), pages);
            let leg = ReadLeg { req: id, pages, channel, die, addr: raw, attempt: 0, hard: false };
            let leg = self.read_legs.insert(leg);
            self.queue.push(done, Ev::ReadAtBus { leg });
        }
        self.read_groups = groups;
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
        let bus = bus_span.saturating_sub(chip_span);
        self.span(Class::Io, id, StageKind::FlashChip, Track::SysBus, now, chip_span);
        self.span(Class::Io, id, StageKind::FlashBus, Track::SysBus, now + chip_span, bus);
        // All fragments cross the system bus to be XORed at the front end.
        let done = self.occupy(Hop::SysBus, latest, pages * (geo.channels - 1), CLASS_IO);
        self.span(Class::Io, id, StageKind::SystemBus, Track::SysBus, latest, done - latest);
        self.queue.push(done, Ev::PagesDone { req: id, pages });
    }

    pub(super) fn write_at_ctrl(&mut self, id: LegId) {
        let leg = &self.write_legs[id];
        let (req, hop, pages) = (leg.req, Hop::Bus(leg.channel as usize), leg.pages);
        let done = self.stage(Class::Io, req, hop, pages);
        self.queue.push(done, Ev::WriteAtDie { leg: id });
    }

    /// Programs one host write group, with an optional injected failure
    /// surfacing in the status read after the program time was spent.
    pub(super) fn write_at_die(&mut self, id: LegId) {
        let leg = self.write_legs.remove(id).expect("unknown write leg");
        let lat = self.array_latency(FlashOpKind::Program, leg.pages);
        let done = self.stage(Class::Io, leg.req, Hop::Die(leg.die, lat), leg.pages);
        if self.injector.as_mut().is_some_and(|i| i.program_fails()) {
            // The failure surfaces in the status read after program time.
            self.tracer.instant(Track::Faults, "program failure", done);
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
        let leg = self.read_legs[id];
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
        let state = self.requests.get_mut(req).expect("unknown request");
        state.pages_left -= pages;
        if state.pages_left > 0 {
            return;
        }
        let state = self.requests.remove(req).unwrap();
        self.outstanding -= 1;
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
        if let Some(log) = self.completions.as_mut() {
            log.push(Completion { tag: state.tag, at: self.now, failed: state.failed });
        }
        if self.workload.is_some() {
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
        if self.cache.is_none() {
            return;
        }
        loop {
            let mut batch: Vec<Lpn> = self.flush_backlog.drain(..).collect();
            if batch.is_empty() {
                let cache = self.cache.as_mut().unwrap();
                if !cache.needs_flush() {
                    return;
                }
                batch = cache.take_dirty(64);
                if batch.is_empty() {
                    return;
                }
            }
            let mut groups = std::mem::take(&mut self.alloc_groups);
            if !self.ftl.write_pages(&batch, &mut groups) {
                // Out of space: keep the batch and wait for GC.
                self.alloc_groups = groups;
                self.flush_backlog = batch.into();
                self.check_gc();
                return;
            }
            for g in &groups {
                let pages = g.len() as u32;
                let ch = self.effective_addr(g.addr(0)).channel as usize;
                let die = self.effective_die_index(g.addr(0));
                let bus_done = self.occupy(Hop::SysBus, self.now, pages, CLASS_IO);
                let done = self.occupy(Hop::Bus(ch), bus_done, pages, CLASS_IO);
                let lat = self.array_latency(FlashOpKind::Program, pages);
                self.dies.occupy(die, done, lat);
            }
            self.alloc_groups = groups;
            self.check_gc();
        }
    }
}
