//! GC and global copyback (Sec 4.2, Fig 4): rounds and their copy jobs,
//! each job's legs from the source die through its architecture's
//! transport to the destination program, dBUF back-pressure, erase, and
//! the WAS endurance scan that shares the read path. A copy job's chain
//! of events is the paper's copyback command status (`R`, `RE`, `N`,
//! `W`): each leg's event marks the stage it reached.

use std::collections::{BTreeMap, VecDeque};

use dssd_ctrl::DecoupledController;
use dssd_flash::{FlashOpKind, PageAddr};
use dssd_ftl::{AllocGroup, CopyGroup, GcPolicy, GcRound};
use dssd_kernel::Slab;
use dssd_telemetry::{Class, Track};

use super::resources::Hop;
use super::{Ev, JobId, SsdSim, CLASS_SCAN};
use crate::metrics::StageTotals;
use crate::pending::PendingCopies;
use crate::{Architecture, SsdConfig};

/// Maximum concurrent WAS scan reads.
const SCAN_INFLIGHT: usize = 128;

/// The GC seam: the copy jobs in flight, the active round, the copies
/// stalled on dBUF space, and the WAS scan.
#[derive(Debug, Default)]
pub(super) struct Gc {
    jobs: Slab<CopyJob>,
    round: Option<GcState>,
    /// Copies waiting for dBUF slots, per source channel.
    dbuf_waiters: Vec<VecDeque<JobId>>,
    scan_remaining: u64,
    scan_inflight: usize,
}

impl Gc {
    pub(super) fn new(config: &SsdConfig) -> Self {
        let dbuf_waiters = vec![VecDeque::new(); config.geometry.channels as usize];
        Gc { dbuf_waiters, ..Gc::default() }
    }

    /// Copy job `job`, while it is in flight.
    pub(super) fn job(&mut self, job: JobId) -> Option<&mut CopyJob> {
        self.jobs.get_mut(job)
    }

    /// Whether a GC round is active.
    pub(super) fn in_round(&self) -> bool {
        self.round.is_some()
    }

    /// Whether the active round has copies in flight from `channel`.
    pub(super) fn copying_on(&self, channel: usize) -> bool {
        self.round.as_ref().is_some_and(|g| g.channel_inflight[channel] > 0)
    }

    /// The epoch probe's GC columns: whether a round is active, its
    /// pending copy groups, and the copy jobs in flight.
    pub(super) fn epoch_columns(&self) -> [f64; 3] {
        let pending = self.round.as_ref().map_or(0, |g| g.pending.len());
        [f64::from(u8::from(self.in_round())), pending as f64, self.jobs.len() as f64]
    }
}

#[derive(Debug, Clone)]
pub(super) struct CopyJob {
    /// The `(lpn, source)` pages, all on one die and row.
    src: CopyGroup,
    /// Their destinations, page for page, on one die and row.
    dst: AllocGroup,
    pub(super) stages: StageTotals,
    /// Outstanding fNoC packets for this job.
    pub(super) packets_in_flight: u32,
    /// Whether a source-side dBUF reservation is held.
    holds_src_dbuf: bool,
}

impl CopyJob {
    /// The job's first source page.
    fn src_addr(&self) -> PageAddr {
        self.src.pages()[0].1
    }
}

#[derive(Debug, Clone)]
struct GcState {
    round: GcRound,
    pending: PendingCopies,
    copies_done: usize,
    copies_expected: usize,
    erases_outstanding: usize,
    /// In-flight copy jobs per source channel, indexed by channel number.
    /// A flat `Vec` (not a hash map) so scheduling never observes
    /// iteration-order effects.
    channel_inflight: Vec<usize>,
    /// A retirement round: on completion the victim superblock is
    /// permanently retired instead of recycled into the free pool.
    retiring: bool,
}

impl SsdSim {
    /// The decoupled controller of `channel` (inspection).
    #[must_use]
    pub fn controller(&self, channel: usize) -> &DecoupledController {
        &self.res.controllers[channel]
    }

    pub(super) fn check_gc(&mut self) {
        if self.gc.in_round() || self.report.end_of_life.is_some() {
            return;
        }
        // Failed superblocks jump the queue: they must leave the
        // allocator pools before normal space reclamation resumes.
        self.pump_retirement();
        if self.gc.in_round() || (!self.config.gc_continuous && !self.ftl.needs_gc()) {
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
        self.observe.tracer.instant(Track::Sim, marker, self.now);
        let mut groups = std::mem::take(&mut round.groups);
        if matches!(self.config.ftl.policy, GcPolicy::TinyTail { .. }) {
            // Partial GC proceeds channel by channel.
            groups.sort_by_key(|g| g.src_die.channel);
        }
        let channels = self.config.geometry.channels as usize;
        self.gc.round = Some(GcState {
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
            let Some(gc) = &self.gc.round else { return };
            if gc.pending.is_empty() {
                self.maybe_finish_round();
                return;
            }
            let host_idle = self.host.outstanding() == 0;
            let must = self.ftl.must_gc();
            let policy = self.config.ftl.policy;
            if !policy.allows_issue(host_idle, must) {
                return;
            }
            let limit = policy.channel_limit(self.config.geometry.channels as usize);

            // Take the first issuable group. (dBUF back-pressure is
            // applied later, at the flash-bus transfer into the buffer —
            // the page read itself only occupies the die's page register.)
            let gc = self.gc.round.as_mut().expect("checked above");
            let Some(group) = gc.pending.pop_issuable(&gc.channel_inflight, limit) else {
                return;
            };
            self.issue_copy(group);
        }
    }

    fn issue_copy(&mut self, mut group: CopyGroup) {
        let want = group.len() as u32;
        let Some(dst_group) = self.ftl.try_alloc_gc_group(want) else {
            // No erased superblock left to copy into: the device has
            // reached end of life. GC stops; writes block permanently.
            self.observe.tracer.instant(Track::Sim, "end of life", self.now);
            self.report.end_of_life.get_or_insert(self.now);
            self.gc.round = None;
            return;
        };
        let take = dst_group.len().min(group.len());

        // If the allocator returned fewer slots (die row boundary), the
        // remainder goes back to the pending queue as its own group.
        if take < group.len() {
            let rest = group.split_off(take);
            if let Some(gc) = &mut self.gc.round {
                gc.pending.push_front(rest);
            }
        }

        let src = group.pages()[0].1;
        let src_ch = group.src_die.channel;
        let id = self.gc.jobs.insert(CopyJob {
            src: group,
            dst: dst_group,
            stages: StageTotals::default(),
            packets_in_flight: 0,
            holds_src_dbuf: false,
        });
        self.observe.tracer.begin(Class::Gc, id.to_bits(), "copyback", self.now);
        if let Some(gc) = &mut self.gc.round {
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
        let j = &self.gc.jobs[job];
        let addr = if dst { j.dst.addr(0) } else { j.src_addr() };
        (j.src.len() as u32, self.effective_addr(addr).channel as usize)
    }

    /// Runs the next leg of copy job `job` on the hop `on` names for the
    /// job's source channel (destination channel when `dst`), then
    /// queues `next` at its end.
    pub(super) fn copy_leg(&mut self, job: JobId, dst: bool, on: impl Fn(usize) -> Hop, next: Ev) {
        let (pages, ch) = self.job_side(job, dst);
        let done = self.stage(Class::Gc, job, on(ch), pages);
        self.queue.push(done, next);
    }

    pub(super) fn copy_at_src_bus(&mut self, job: JobId) {
        let (pages, ch) = self.job_side(job, false);
        // dSSD_f: the pages move from the die's page register into the
        // dBUF; without free slots the transfer waits (back-pressure,
        // resumed when a slot frees).
        if self.config.architecture == Architecture::DssdFnoc && !self.gc.jobs[job].holds_src_dbuf {
            let n = pages as usize;
            let dbuf = self.res.controllers[ch].dbuf_mut();
            if dbuf.available() < n {
                self.gc.dbuf_waiters[ch].push_back(job);
                return;
            }
            for _ in 0..n {
                assert!(dbuf.try_reserve());
            }
            self.gc.jobs[job].holds_src_dbuf = true;
        }
        self.copy_leg(job, false, Hop::Bus, Ev::CopyAtEcc { job });
    }

    /// Routes a checked copy to its destination controller over the
    /// architecture's GC path (the crate docs' table).
    pub(super) fn copy_transport(&mut self, job: JobId) {
        let (_, src_ch) = self.job_side(job, false);
        let (_, dst_ch) = self.job_side(job, true);
        match self.config.architecture {
            Architecture::Baseline | Architecture::ExtraBandwidth => {
                // ctrl -> system bus -> DRAM -> system bus -> ctrl, one
                // transaction per scattered page.
                self.copy_leg(job, false, |_| Hop::SysBusPages, Ev::CopyAtDram { job });
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
                self.copy_leg(job, false, |_| hop, Ev::CopyAtDstBus { job });
            }
        }
    }

    pub(super) fn copy_at_dst_die(&mut self, job: JobId) {
        // The data now sits in the destination die's page register:
        // same-channel copies can free their dBUF slots here rather than
        // waiting out the program.
        self.release_src_dbuf(job);
        let pages = self.gc.jobs[job].src.len() as u32;
        let die = self.effective_die_index(self.gc.jobs[job].dst.addr(0));
        let lat = self.array_latency(FlashOpKind::Program, pages);
        let done = self.stage(Class::Gc, job, Hop::Die(die, lat), pages);
        self.queue.push(done, Ev::CopyDone { job });
    }

    pub(super) fn release_src_dbuf(&mut self, job: JobId) {
        let j = &mut self.gc.jobs[job];
        if !j.holds_src_dbuf {
            return;
        }
        j.holds_src_dbuf = false;
        let (n, ch) = self.job_side(job, false);
        for _ in 0..n {
            self.res.controllers[ch].dbuf_mut().release();
        }
        self.wake_dbuf_waiters(ch);
        self.pump_gc();
    }

    /// Re-attempts the flash-bus transfer of copies stalled on dBUF
    /// space at `channel`.
    fn wake_dbuf_waiters(&mut self, channel: usize) {
        let waiters = &mut self.gc.dbuf_waiters[channel];
        while let Some(job) = waiters.pop_front() {
            if self.res.controllers[channel].dbuf().available() < self.gc.jobs[job].src.len() {
                waiters.push_front(job);
                break;
            }
            self.queue.push(self.now, Ev::CopyAtSrcBus { job });
        }
    }

    pub(super) fn copy_done(&mut self, job: JobId) {
        let j = self.gc.jobs.remove(job).expect("unknown copy job");
        let n = j.src.len() as u32;
        debug_assert!(!j.holds_src_dbuf, "dBUF released before program");
        for (&(lpn, src), dst) in j.src.pages().iter().zip(j.dst.addrs()) {
            self.ftl.complete_copy_at(lpn, src, dst, self.now);
        }
        self.pump_meta();
        self.report.gc_pages_copied += u64::from(n);
        self.report.gc_bw.record(self.now, self.page_bytes(n));
        self.close_spans(Class::Gc, job, "copyback", false, &j.stages);
        if let Some(gc) = &mut self.gc.round {
            gc.copies_done += j.src.len();
            gc.channel_inflight[j.src_addr().channel as usize] -= 1;
        }
        self.maybe_finish_round();
        self.pump_gc();
    }

    fn maybe_finish_round(&mut self) {
        let Some(gc) = &self.gc.round else { return };
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
        self.gc.round.as_mut().expect("checked above").erases_outstanding = per_die.len();
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
        let gc = self.gc.round.as_mut().expect("erase without round");
        gc.erases_outstanding -= 1;
        if gc.erases_outstanding == 0 {
            self.finish_round();
        }
    }

    fn finish_round(&mut self) {
        let gc = self.gc.round.take().expect("finishing absent round");
        self.observe.tracer.instant(Track::Sim, "gc round done", self.now);
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
        self.resume_writes();
        self.pump_meta();
        self.check_gc();
        self.pump_gc();
    }

    // ------------------------------------------------------------------
    // WAS endurance scan (Fig 14c)
    // ------------------------------------------------------------------

    pub(super) fn scan_tick(&mut self) {
        let Some(was) = self.config.was_scan else { return };
        self.gc.scan_remaining += was.tracked_blocks;
        self.pump_scan(0);
        let next = self.now + was.interval;
        if next <= self.horizon() {
            self.queue.push(next, Ev::ScanTick);
        }
    }

    /// Issues WAS scan reads up to the in-flight cap, once `finished`
    /// reads have completed.
    pub(super) fn pump_scan(&mut self, finished: usize) {
        self.gc.scan_inflight -= finished;
        while self.gc.scan_remaining > 0 && self.gc.scan_inflight < SCAN_INFLIGHT {
            self.gc.scan_remaining -= 1;
            self.gc.scan_inflight += 1;
            // One page read from a random die, through flash bus, system
            // bus and into DRAM — the software path WAS must take.
            let die = self.rng.index(self.config.geometry.total_dies() as usize);
            let ch = self.config.geometry.die_at(die).channel as usize;
            let read = self.array_latency(FlashOpKind::Read, 1);
            let mut done = self.now;
            for hop in [Hop::Die(die, read), Hop::Bus(ch), Hop::SysBus, Hop::Dram] {
                done = self.occupy(hop, done, 1, CLASS_SCAN);
            }
            self.queue.push(done, Ev::ScanReadDone);
        }
    }
}

#[cfg(test)]
impl SsdSim {
    /// The GC law: while a round is active, each channel's in-flight
    /// count equals the live copy jobs sourced there, keyed as
    /// `issue_copy` and `copy_done` key them, and stays within
    /// `GC_PER_CHANNEL_INFLIGHT`; each controller's dBUF holds exactly
    /// the pages of the jobs holding a source reservation on it, within
    /// its capacity.
    pub(super) fn audit_gc(&self) {
        let channels = self.config.geometry.channels as usize;
        let (mut jobs, mut held) = (vec![0; channels], vec![0; channels]);
        for (_, j) in self.gc.jobs.iter() {
            let src = j.src_addr();
            jobs[src.channel as usize] += 1;
            if j.holds_src_dbuf {
                held[self.effective_addr(src).channel as usize] += j.src.len();
            }
        }
        if let Some(round) = &self.gc.round {
            for (ch, (&inflight, &live)) in round.channel_inflight.iter().zip(&jobs).enumerate() {
                assert_eq!(inflight, live, "channel {ch}: in-flight count vs live copy jobs");
                let cap = crate::pending::GC_PER_CHANNEL_INFLIGHT;
                assert!(inflight <= cap, "channel {ch}: {inflight} copies in flight");
            }
        }
        for (ch, c) in self.res.controllers.iter().enumerate() {
            let dbuf = c.dbuf();
            assert_eq!(dbuf.in_use(), held[ch], "controller {ch}: dBUF slots vs pages held");
            assert!(dbuf.in_use() <= dbuf.capacity(), "controller {ch}: dBUF over capacity");
        }
    }
}
