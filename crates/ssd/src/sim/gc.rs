//! GC and global copyback (Sec 4.2, Fig 4): rounds and their copy jobs,
//! each job's legs from the source die through its architecture's
//! transport to the destination program, dBUF back-pressure, the
//! copyback command tracking in the source controller, erase, and the
//! WAS endurance scan that shares the read path.

use std::collections::BTreeMap;

use dssd_ctrl::{CommandId, CommandKind, CommandQueue, CopybackStage, DecoupledController};
use dssd_flash::{FlashOpKind, PageAddr};
use dssd_ftl::{CopyGroup, GcPolicy, GcRound, Lpn};
use dssd_kernel::{SimSpan, SimTime};
use dssd_telemetry::{Class, Track};

use super::resources::Hop;
use super::{Ev, JobId, SsdSim, CLASS_SCAN};
use crate::metrics::StageKind;
use crate::pending::PendingCopies;
use crate::Architecture;

/// Maximum concurrent WAS scan reads.
const SCAN_INFLIGHT: usize = 128;

#[derive(Debug, Clone)]
pub(super) struct CopyJob {
    /// `(lpn, src, dst)` triples; all sources on one die/row, all
    /// destinations on one die/row.
    pages: Vec<(Lpn, PageAddr, PageAddr)>,
    src: PageAddr,
    dst: PageAddr,
    pub(super) spans: Vec<(StageKind, SimSpan)>,
    /// Outstanding fNoC packets for this job.
    pub(super) packets_in_flight: u32,
    /// Whether a source-side dBUF reservation is held.
    holds_src_dbuf: bool,
    /// The copyback command tracking this job in the source controller's
    /// command queue.
    cmd: CommandId,
}

#[derive(Debug, Clone)]
pub(super) struct GcState {
    round: GcRound,
    pub(super) pending: PendingCopies,
    copies_done: usize,
    copies_expected: usize,
    erases_outstanding: usize,
    /// In-flight copy jobs per source channel, indexed by channel number.
    /// A flat `Vec` (not a hash map) so scheduling never observes
    /// iteration-order effects.
    pub(super) channel_inflight: Vec<usize>,
    /// A retirement round: on completion the victim superblock is
    /// permanently retired instead of recycled into the free pool.
    retiring: bool,
}

impl SsdSim {
    /// The decoupled controller command queue of `channel` (inspection).
    #[must_use]
    pub fn command_queue(&self, channel: usize) -> &CommandQueue {
        self.controllers[channel].queue()
    }

    /// The decoupled controller of `channel` (inspection).
    #[must_use]
    pub fn controller(&self, channel: usize) -> &DecoupledController {
        &self.controllers[channel]
    }

    pub(super) fn check_gc(&mut self) {
        if self.gc.is_some() || self.report.end_of_life.is_some() {
            return;
        }
        if !self.pending_retire.is_empty() {
            // Failed superblocks jump the queue: they must leave the
            // allocator pools before normal space reclamation resumes.
            self.pump_retirement();
            if self.gc.is_some() {
                return;
            }
        }
        if !self.config.gc_continuous && !self.ftl.needs_gc() {
            return;
        }
        let Some(round) = self.ftl.start_gc_round() else { return };
        self.begin_round(round, false);
    }

    /// Installs `round` as the active GC state and starts pumping copies.
    /// A `retiring` round permanently retires its victim on completion
    /// instead of recycling it into the free pool.
    pub(super) fn begin_round(&mut self, mut round: GcRound, retiring: bool) {
        self.report.first_gc_at.get_or_insert(self.now);
        let marker = if retiring { "gc round start (retiring)" } else { "gc round start" };
        self.tracer.instant(Track::Sim, marker, self.now);
        let mut groups = std::mem::take(&mut round.groups);
        if matches!(self.config.ftl.policy, GcPolicy::TinyTail { .. }) {
            // Partial GC proceeds channel by channel.
            groups.sort_by_key(|g| g.src_die.channel);
        }
        let channels = self.config.geometry.channels as usize;
        self.gc = Some(GcState {
            copies_expected: round.valid_pages,
            round,
            pending: PendingCopies::new(groups, channels),
            copies_done: 0,
            erases_outstanding: 0,
            channel_inflight: vec![0; channels],
            retiring,
        });
        self.pump_gc();
    }

    pub(super) fn pump_gc(&mut self) {
        if self.report.end_of_life.is_some() {
            return;
        }
        loop {
            let Some(gc) = &self.gc else { return };
            if gc.pending.is_empty() {
                self.maybe_finish_round();
                return;
            }
            let host_idle = self.outstanding == 0;
            let must = self.ftl.must_gc();
            let policy = self.config.ftl.policy;
            if !policy.allows_issue(host_idle, must) {
                return;
            }
            let limit = policy.channel_limit(self.config.geometry.channels as usize);

            // Take the first issuable group. (dBUF back-pressure is
            // applied later, at the flash-bus transfer into the buffer —
            // the page read itself only occupies the die's page register.)
            let gc = self.gc.as_mut().expect("checked above");
            let Some(group) = gc.pending.pop_issuable(&gc.channel_inflight, limit) else {
                return;
            };
            self.issue_copy(group);
        }
    }

    fn issue_copy(&mut self, group: CopyGroup) {
        let want = group.pages.len() as u32;
        let Some(dst_group) = self.ftl.try_alloc_gc_group(want) else {
            // No erased superblock left to copy into: the device has
            // reached end of life. GC stops; writes block permanently.
            self.tracer.instant(Track::Sim, "end of life", self.now);
            self.report.end_of_life.get_or_insert(self.now);
            self.gc = None;
            return;
        };
        let take = dst_group.len().min(group.pages.len());

        // If the allocator returned fewer slots (die row boundary), the
        // remainder goes back to the pending queue as its own group.
        if take < group.pages.len() {
            let rest = CopyGroup {
                src_die: group.src_die,
                pages: group.pages[take..].to_vec(),
            };
            if let Some(gc) = &mut self.gc {
                gc.pending.push_front(rest);
            }
        }

        let pages: Vec<(Lpn, PageAddr, PageAddr)> = group.pages[..take]
            .iter()
            .zip(dst_group.addrs.iter())
            .map(|(&(lpn, src), &dst)| (lpn, src, dst))
            .collect();
        let src = pages[0].1;
        let dst = pages[0].2;
        let src_ch = group.src_die.channel;

        let dst_node = self.effective_addr(dst).channel as usize;
        let src_node = self.effective_addr(src).channel as usize;
        let cmd = self.controllers[src_node]
            .queue_mut()
            .submit(CommandKind::Copyback { dst_node });
        let id = self.jobs.insert(CopyJob {
            pages,
            src,
            dst,
            spans: Vec::new(),
            packets_in_flight: 0,
            holds_src_dbuf: false,
            cmd,
        });
        self.tracer.begin(Class::Gc, id.to_bits(), "copyback", self.now);
        if let Some(gc) = &mut self.gc {
            gc.channel_inflight[src_ch as usize] += 1;
        }
        // Fold (time, source channel) of every issued copy into a rolling
        // digest: two runs with identical GC scheduling traces — and only
        // those — produce the same value.
        let sample = self.now.as_ns() ^ (u64::from(src_ch) << 48);
        self.report.gc_issue_digest =
            (self.report.gc_issue_digest ^ sample).wrapping_mul(0x0000_0100_0000_01B3);

        // Source read (multi-plane).
        let die = self.effective_die_index(src);
        let lat = self.array_latency(FlashOpKind::Read, take as u32);
        let done = self.stage(Class::Gc, id, Hop::Die(die, lat), take as u32);
        self.queue.push(done, Ev::CopyAtSrcBus { job: id });
    }

    /// Job `job`'s page count and the (post-remap) channel of its source,
    /// or of its destination when `dst`.
    pub(super) fn job_side(&self, job: JobId, dst: bool) -> (u32, usize) {
        let j = &self.jobs[job];
        let addr = if dst { j.dst } else { j.src };
        (j.pages.len() as u32, self.effective_addr(addr).channel as usize)
    }

    pub(super) fn copy_at_src_bus(&mut self, job: JobId) {
        self.cmd_advance_to(job, CopybackStage::ReadDone);
        let (pages, ch) = self.job_side(job, false);
        // dSSD_f: the pages move from the die's page register into the
        // dBUF; without free slots the transfer waits (back-pressure,
        // resumed when a slot frees).
        if self.config.architecture == Architecture::DssdFnoc && !self.jobs[job].holds_src_dbuf {
            let n = pages as usize;
            if self.controllers[ch].dbuf().available() < n {
                self.dbuf_waiters[ch].push_back(job);
                return;
            }
            for _ in 0..n {
                assert!(self.controllers[ch].dbuf_mut().try_reserve());
            }
            self.jobs[job].holds_src_dbuf = true;
        }
        let done = self.stage(Class::Gc, job, Hop::Bus(ch), pages);
        self.queue.push(done, Ev::CopyAtEcc { job });
    }

    pub(super) fn copy_at_ecc(&mut self, job: JobId) {
        let (pages, ch) = self.job_side(job, false);
        let done = self.stage(Class::Gc, job, Hop::Ecc(ch), pages);
        self.queue.push(done, Ev::CopyTransport { job });
    }

    /// Routes a checked copy to its destination controller over the
    /// architecture's GC path (the crate docs' table).
    pub(super) fn copy_transport(&mut self, job: JobId) {
        self.cmd_advance_to(job, CopybackStage::EccDone);
        let (pages, src_ch) = self.job_side(job, false);
        let (_, dst_ch) = self.job_side(job, true);
        match self.config.architecture {
            Architecture::Baseline | Architecture::ExtraBandwidth => {
                // ctrl -> system bus -> DRAM -> system bus -> ctrl, one
                // transaction per scattered page.
                let done = self.stage(Class::Gc, job, Hop::SysBusPages, pages);
                self.queue.push(done, Ev::CopyAtDram { job });
            }
            // Same-channel copies never leave the controller (dSSD_f
            // releases the dBUF at the destination program).
            _ if src_ch == dst_ch => self.queue.push(self.now, Ev::CopyAtDstBus { job }),
            Architecture::DssdFnoc => self.send_packets(job, src_ch, dst_ch),
            arch => {
                // Controller to controller: the group was gathered in the
                // source dBUF, so it crosses as one burst, over the
                // system bus or dSSD_b's dedicated bus.
                let hop = if arch == Architecture::Dssd { Hop::SysBus } else { Hop::GcBus };
                let done = self.stage(Class::Gc, job, hop, pages);
                self.queue.push(done, Ev::CopyAtDstBus { job });
            }
        }
    }

    pub(super) fn copy_at_dram(&mut self, job: JobId) {
        let (pages, _) = self.job_side(job, false);
        let done = self.stage(Class::Gc, job, Hop::DramPages, pages);
        self.queue.push(done, Ev::CopyFromDram { job });
    }

    pub(super) fn copy_from_dram(&mut self, job: JobId) {
        let (pages, _) = self.job_side(job, false);
        let done = self.stage(Class::Gc, job, Hop::SysBusPages, pages);
        self.queue.push(done, Ev::CopyAtDstBus { job });
    }

    pub(super) fn copy_at_dst_bus(&mut self, job: JobId) {
        let (pages, ch) = self.job_side(job, true);
        let done = self.stage(Class::Gc, job, Hop::Bus(ch), pages);
        self.queue.push(done, Ev::CopyAtDstDie { job });
    }

    pub(super) fn copy_at_dst_die(&mut self, job: JobId) {
        self.cmd_advance_to(job, CopybackStage::WriteIssued);
        // The data now sits in the destination die's page register:
        // same-channel copies can free their dBUF slots here rather than
        // waiting out the program.
        self.release_src_dbuf(job);
        let pages = self.jobs[job].pages.len() as u32;
        let die = self.effective_die_index(self.jobs[job].dst);
        let lat = self.array_latency(FlashOpKind::Program, pages);
        let done = self.stage(Class::Gc, job, Hop::Die(die, lat), pages);
        self.queue.push(done, Ev::CopyDone { job });
    }

    pub(super) fn release_src_dbuf(&mut self, job: JobId) {
        let j = &mut self.jobs[job];
        if !j.holds_src_dbuf {
            return;
        }
        j.holds_src_dbuf = false;
        let (n, ch) = self.job_side(job, false);
        for _ in 0..n {
            self.controllers[ch].dbuf_mut().release();
        }
        self.wake_dbuf_waiters(ch);
        self.pump_gc();
    }

    /// Re-attempts the flash-bus transfer of copies stalled on dBUF
    /// space at `channel`.
    fn wake_dbuf_waiters(&mut self, channel: usize) {
        while let Some(job) = self.dbuf_waiters[channel].pop_front() {
            let need = self.jobs[job].pages.len();
            if self.controllers[channel].dbuf().available() < need {
                self.dbuf_waiters[channel].push_front(job);
                break;
            }
            self.queue.push(self.now, Ev::CopyAtSrcBus { job });
        }
    }

    pub(super) fn copy_done(&mut self, job: JobId) {
        self.cmd_advance_to(job, CopybackStage::Done);
        let (n, src_ch) = self.job_side(job, false);
        let j = self.jobs.remove(job).expect("unknown copy job");
        self.controllers[src_ch].queue_mut().retire(j.cmd);
        debug_assert!(!j.holds_src_dbuf, "dBUF released before program");
        for &(lpn, src, dst) in &j.pages {
            self.ftl.complete_copy_at(lpn, src, dst, self.now);
        }
        self.pump_meta();
        self.report.gc_pages_copied += u64::from(n);
        self.report.gc_bw.record(self.now, self.page_bytes(n));
        self.close_spans(Class::Gc, job, "copyback", false, &j.spans);
        if let Some(gc) = &mut self.gc {
            gc.copies_done += j.pages.len();
            gc.channel_inflight[j.src.channel as usize] -= 1;
        }
        self.maybe_finish_round();
        self.pump_gc();
    }

    fn maybe_finish_round(&mut self) {
        let Some(gc) = &self.gc else { return };
        if !gc.pending.is_empty()
            || gc.copies_done < gc.copies_expected
            || gc.erases_outstanding > 0
        {
            return;
        }
        if gc.round.erases.is_empty() {
            self.finish_round();
            return;
        }
        // Erase each die's sub-blocks as one multi-plane erase. Ordered
        // map: TLC-style latency ranges draw the RNG per erase, so the
        // iteration order must be deterministic.
        let mut per_die: BTreeMap<usize, u32> = BTreeMap::new();
        for b in &gc.round.erases {
            *per_die.entry(self.effective_die_index(b.page(0))).or_insert(0) += 1;
        }
        self.gc.as_mut().unwrap().erases_outstanding = per_die.len();
        for planes in per_die.into_values() {
            // Erase suspension: the erase delays the GC round by its full
            // latency but host operations preempt it, so the die is not
            // modeled as blocked (standard controller technique — without
            // it every architecture's p99 is pinned at tBERS).
            let lat = self.array_latency(FlashOpKind::Erase, planes);
            self.queue.push(self.now + lat, Ev::EraseDone);
        }
    }

    pub(super) fn erase_done(&mut self) {
        let gc = self.gc.as_mut().expect("erase without round");
        gc.erases_outstanding -= 1;
        if gc.erases_outstanding == 0 {
            self.finish_round();
        }
    }

    fn finish_round(&mut self) {
        let gc = self.gc.take().expect("finishing absent round");
        self.tracer.instant(Track::Sim, "gc round done", self.now);
        self.report.gc_rounds += 1;
        if gc.retiring {
            // Relocation complete: erase the victim's blocks and retire
            // the superblock for good.
            self.ftl.finish_gc_round_retiring(&gc.round);
            self.finish_retirement(gc.round.victim);
        } else {
            self.ftl.finish_gc_round(&gc.round);
            self.apply_wear(&gc.round);
        }
        self.pump_flush();
        // Retry the writes blocked on space now that a superblock is free
        // (each keeps its original arrival time), then the write groups
        // parked by a program failure.
        for (id, lpns, attempt) in std::mem::take(&mut self.blocked_writes) {
            self.write_or_park(id, lpns, attempt, None);
        }
        for (id, lpns, attempt) in std::mem::take(&mut self.blocked_rewrites) {
            self.write_or_park(id, lpns, attempt, Some(self.now));
        }
        self.pump_meta();
        self.check_gc();
        self.pump_gc();
    }

    /// Advances job `job`'s copyback command until it reaches `target`.
    pub(super) fn cmd_advance_to(&mut self, job: JobId, target: CopybackStage) {
        let Some(j) = self.jobs.get(job) else { return };
        let ch = self.effective_addr(j.src).channel as usize;
        let cmd = j.cmd;
        while self.controllers[ch].queue().stage(cmd).is_some_and(|s| s < target) {
            self.controllers[ch].queue_mut().advance(cmd);
        }
    }

    // ------------------------------------------------------------------
    // WAS endurance scan (Fig 14c)
    // ------------------------------------------------------------------

    pub(super) fn arm_scan(&mut self) {
        if let Some(was) = self.config.was_scan {
            self.queue.push(SimTime::ZERO + was.interval, Ev::ScanTick);
        }
    }

    pub(super) fn scan_tick(&mut self) {
        let Some(was) = self.config.was_scan else { return };
        self.scan_remaining += was.tracked_blocks;
        self.pump_scan();
        let next = self.now + was.interval;
        if next <= self.horizon {
            self.queue.push(next, Ev::ScanTick);
        }
    }

    pub(super) fn pump_scan(&mut self) {
        while self.scan_remaining > 0 && self.scan_inflight < SCAN_INFLIGHT {
            self.scan_remaining -= 1;
            self.scan_inflight += 1;
            // One page read from a random die, through flash bus, system
            // bus and into DRAM — the software path WAS must take.
            let die = self.rng.index(self.dies.len());
            let ch = self.config.geometry.die_at(die).channel as usize;
            let read = self.array_latency(FlashOpKind::Read, 1);
            let mut done = self.occupy(Hop::Die(die, read), self.now, 1, CLASS_SCAN);
            for hop in [Hop::Bus(ch), Hop::SysBus, Hop::Dram] {
                done = self.occupy(hop, done, 1, CLASS_SCAN);
            }
            self.queue.push(done, Ev::ScanReadDone);
        }
    }
}
