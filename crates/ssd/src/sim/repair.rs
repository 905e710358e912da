//! Fault and wear repair (Sec 5): the ECC verdict of each host read with
//! its read-retries, program failures, per-block wear, the SRT/RBT
//! remaps of the decoupled controllers (and the timing-level remap table
//! every access resolves through), and online superblock retirement.

use dssd_ctrl::EccVerdict;
use dssd_flash::{BlockAddr, EraseOutcome, FlashOpKind, PageAddr, WearModel};
use dssd_kernel::{Rng, SimSpan, SimTime};
use dssd_telemetry::{Class, Track};

use super::host::{ReadLeg, WriteLeg};
use super::resources::Hop;
use super::{Ev, SsdSim};
use crate::faults::{FaultInjector, ReadFault};
use crate::metrics::StageKind;
use crate::{DynamicSbConfig, SsdConfig};

/// Dense timing-level SRT remap table: one slot per `(superblock,
/// stripe-die)` pair, so the per-access lookup in `effective_addr` is a
/// single indexed load instead of a hash probe. The replacement
/// `(channel, way, die)` packs into a `u32`; `u32::MAX` marks identity.
#[derive(Debug, Clone)]
pub(super) struct RemapTable {
    table: Vec<u32>,
    stripe_dies: u32,
    len: usize,
}

const REMAP_NONE: u32 = u32::MAX;

impl RemapTable {
    /// The table with `config.srt_active_remaps` timing-level sub-block
    /// remaps injected (Fig 15a). Accesses to a remapped (superblock,
    /// stripe-die) occupy the *replacement* die/channel, losing striping
    /// parallelism exactly as a recycled block on the "wrong" channel
    /// would; mapping-table state is untouched (the SRT is invisible to
    /// the FTL). The remaps draw from their own stream, so enabling them
    /// does not perturb the workload/prefill randomness of the
    /// comparison run.
    pub(super) fn injected(config: &SsdConfig) -> Self {
        let geo = config.geometry;
        let stripe_dies = geo.total_dies() as u32;
        let mut remap = RemapTable {
            table: vec![REMAP_NONE; geo.blocks as usize * stripe_dies as usize],
            stripe_dies,
            len: 0,
        };
        let mut rng = Rng::new(config.seed ^ 0x5247_5431);
        while remap.len < config.srt_active_remaps {
            let sb = rng.range_u64(0..geo.blocks as u64) as u32;
            let die_idx = rng.range_u64(0..stripe_dies as u64) as u32;
            let target = rng.range_u64(0..stripe_dies as u64) as u32;
            let t_ch = target % geo.channels;
            let t_way = (target / geo.channels) % geo.ways;
            let t_die = target / (geo.channels * geo.ways);
            remap.insert(sb, die_idx, t_ch, t_way, t_die);
        }
        remap
    }

    /// Inserts (or overwrites) the remap for `(block, die_idx)` —
    /// overwrites do not grow `len`, matching map-insert semantics.
    fn insert(&mut self, block: u32, die_idx: u32, ch: u32, way: u32, die: u32) {
        let slot = &mut self.table[(block * self.stripe_dies + die_idx) as usize];
        if *slot == REMAP_NONE {
            self.len += 1;
        }
        *slot = ch | (way << 10) | (die << 20);
    }

    fn get(&self, block: u32, die_idx: u32) -> Option<(u32, u32, u32)> {
        let packed = self.table[(block * self.stripe_dies + die_idx) as usize];
        if packed == REMAP_NONE {
            return None;
        }
        Some((packed & 0x3FF, (packed >> 10) & 0x3FF, packed >> 20))
    }
}

/// The per-block wear model, with Gaussian P/E limits drawn from its own
/// `seed ^ 0x3EA2` stream. Online dynamic superblocks need it, and so
/// does fault injection (forced wear-out, per-block RBER), which uses
/// the default distribution when dynamic superblocks are off.
pub(super) fn wear_model(config: &SsdConfig) -> Option<WearModel> {
    let d = config.dynamic_sb.or_else(|| config.faults.enabled().then(DynamicSbConfig::default))?;
    let mut rng = Rng::new(config.seed ^ 0x3EA2);
    let blocks = config.geometry.total_blocks() as usize;
    Some(WearModel::with_block_count(blocks, d.pe_mean, d.pe_sigma, &mut rng))
}

impl SsdSim {
    /// Digest of the fault-injection stream position, or `None` when
    /// fault injection is disabled. Useful for asserting that the fault
    /// stream survives snapshot/restore bit-identically.
    #[must_use]
    pub fn fault_stream_digest(&self) -> Option<u64> {
        self.injector.as_ref().map(FaultInjector::stream_digest)
    }

    /// Carves the reserved pool of online dynamic superblocks out of the
    /// highest-numbered superblocks: they leave the allocator and
    /// pre-fill the recycle bins (RBTs).
    pub(super) fn carve_reserved_pool(&mut self) {
        let Some(d) = self.config.dynamic_sb.filter(|d| d.reserved_fraction > 0.0) else {
            return;
        };
        let blocks = self.config.geometry.blocks;
        let n = ((blocks as f64 * d.reserved_fraction).round() as u32).min(blocks / 4);
        for sb in blocks - n..blocks {
            if self.ftl.retire_superblock(sb) {
                self.recycle_healthy(sb);
            }
        }
    }

    /// Applies the timing-level SRT remap (Fig 15a) to an address.
    pub(super) fn effective_addr(&self, addr: PageAddr) -> PageAddr {
        if self.remap.len == 0 {
            return addr;
        }
        let g = &self.config.geometry;
        let die_idx = addr.channel + g.channels * addr.way + g.channels * g.ways * addr.die;
        match self.remap.get(addr.block, die_idx) {
            Some((ch, way, die)) => PageAddr { channel: ch, way, die, ..addr },
            None => addr,
        }
    }

    pub(super) fn effective_die_index(&self, addr: PageAddr) -> usize {
        self.effective_die_index_raw(self.effective_addr(addr))
    }

    pub(super) fn effective_die_index_raw(&self, addr: PageAddr) -> usize {
        self.config.geometry.die_index(addr.die_addr())
    }

    /// The block physically backing slot `b` after any SRT remapping.
    fn resolve_block(&self, b: BlockAddr) -> u32 {
        let key = self.config.geometry.block_index(b) as u32;
        self.controllers
            .get(b.channel as usize)
            .and_then(|c| c.srt().lookup(key))
            .unwrap_or(key)
    }

    /// The ECC stage of a host read group: decode timing, then — when
    /// fault injection is enabled — an in-band verdict that can trigger a
    /// read-retry or an uncorrectable-read recovery.
    pub(super) fn read_at_ecc(&mut self, mut leg: ReadLeg) {
        let done = self.stage(Class::Io, leg.req, Hop::Ecc(leg.channel as usize), leg.pages);
        let verdict = match self.injector {
            Some(_) => self.classify_read(&mut leg),
            None => EccVerdict::Clean,
        };
        match verdict {
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

    /// Decides the decode verdict for one read group. The first attempt
    /// draws the injected fault class (or falls back to the wear model's
    /// RBER); retries re-check — hard failures stay uncorrectable,
    /// transient ones recover with `retry_success_prob`.
    fn classify_read(&mut self, leg: &mut ReadLeg) -> EccVerdict {
        let uncorrectable = self.config.ecc.correctable_rber;
        let corrected = self.config.ecc.clean_rber;
        let injector = self.injector.as_mut().expect("classify without injector");
        let rber = if leg.attempt == 0 {
            match injector.read_outcome() {
                ReadFault::Hard => {
                    leg.hard = true;
                    uncorrectable
                }
                ReadFault::Transient => uncorrectable,
                ReadFault::None => {
                    let r = self.block_rber(leg.addr);
                    if r >= uncorrectable {
                        // Worn-out media: every re-read sees the same RBER.
                        leg.hard = true;
                    }
                    r
                }
            }
        } else if leg.hard {
            uncorrectable
        } else if injector.retry_recovers() {
            // Decoded successfully at a shifted reference voltage.
            corrected
        } else {
            uncorrectable
        };
        self.controllers[leg.channel as usize].ecc_mut().check(rber)
    }

    /// RBER of the block physically backing `addr`, per the wear model.
    /// Fresh (never-erased) blocks read as error-free rather than sitting
    /// exactly on the `Corrected` threshold.
    fn block_rber(&self, addr: PageAddr) -> f64 {
        let Some(wear) = &self.wear else { return 0.0 };
        let idx = self.resolve_block(addr.block_addr()) as usize;
        if wear.pe_count(idx) == 0 {
            return 0.0;
        }
        wear.rber(idx)
    }

    /// Issues one read-retry: the die is re-sensed with escalated latency
    /// (deeper reference-voltage sweeps), then the data crosses the flash
    /// bus to the ECC engine again.
    fn schedule_read_retry(&mut self, mut leg: ReadLeg, at: SimTime) {
        leg.attempt += 1;
        let base = self.array_latency(FlashOpKind::Read, leg.pages);
        let factor = self.config.faults.retry_latency_factor.powi(leg.attempt as i32);
        let lat = SimSpan::from_ns((base.as_ns() as f64 * factor).round() as u64);
        let (_, done) = self.dies.occupy(leg.die, at, lat);
        let track = Track::Die(leg.die as u32);
        self.span(Class::Io, leg.req, StageKind::FlashChip, track, at, done - at);
        self.tracer.instant(Track::Faults, "read retry", at);
        self.report.faults.read_retries += 1;
        self.report.faults.retry_latency += done - at;
        self.queue.push(done, Ev::ReadAtBus { leg: Box::new(leg) });
    }

    /// Retries exhausted: the read is uncorrectable. The failing block is
    /// retired, the request is marked failed for the report, and the
    /// (front-end-reconstructed) data still crosses the system bus so the
    /// request completes instead of hanging.
    fn fail_read(&mut self, leg: ReadLeg, at: SimTime) {
        self.tracer.instant(Track::Faults, "uncorrectable read", at);
        self.report.faults.uncorrectable_reads += 1;
        if let Some(st) = self.requests.get_mut(leg.req) {
            st.failed = true;
        }
        self.mark_block_bad(leg.addr.block_addr());
        self.queue.push(at, Ev::ReadAtSysbus { req: leg.req, pages: leg.pages });
    }

    /// A program reported failure: retire the block, then re-allocate and
    /// re-issue the group — or complete the request as failed once the
    /// attempt budget is spent.
    pub(super) fn handle_program_failure(&mut self, leg: WriteLeg, at: SimTime) {
        // A failed program leaves no durable OOB record and journals no
        // mapping op; the re-allocation below issues a fresh ticket.
        self.ftl.meta_mark_torn(leg.ticket);
        if let Some(st) = self.requests.get_mut(leg.req) {
            if let Some(pos) = st.tickets.iter().position(|&t| t == leg.ticket) {
                st.tickets.swap_remove(pos);
            }
        }
        self.mark_block_bad(leg.addr.block_addr());
        let out_of_budget = leg.attempt >= self.config.faults.max_program_attempts;
        let Some(lpns) = leg.lpns.filter(|_| !out_of_budget) else {
            // Attempts exhausted: the write completes, but the request is
            // surfaced to the host as failed.
            if let Some(st) = self.requests.get_mut(leg.req) {
                st.failed = true;
            }
            self.queue.push(at, Ev::PagesDone { req: leg.req, pages: leg.pages });
            return;
        };
        if !self.write_or_park(leg.req, lpns, leg.attempt + 1, Some(at)) {
            // No space for the re-allocation: it waits for GC.
            self.check_gc();
        }
    }

    /// A block failed in service (program failure or uncorrectable read):
    /// mark it worn, then repair through the SRT/RBT on decoupled
    /// architectures or queue its superblock for online retirement.
    fn mark_block_bad(&mut self, b: BlockAddr) {
        let idx = self.resolve_block(b) as usize;
        if let Some(w) = self.wear.as_mut() {
            if w.is_worn_out(idx) {
                // Already handled (reads racing on the same dying block).
                return;
            }
            w.force_worn(idx);
        }
        self.tracer.instant(Track::Faults, "block retired", self.now);
        self.report.faults.blocks_retired += 1;
        if self.config.architecture.is_decoupled() && self.try_remap_worn(b) {
            return;
        }
        // Queue the superblock for online retirement (idempotent) and try
        // to start it at once.
        if !self.pending_retire.contains(&b.block)
            && !self.ftl.retired_superblocks().contains(&b.block)
        {
            self.pending_retire.push_back(b.block);
        }
        self.pump_retirement();
    }

    /// Starts the next queued superblock retirement if no GC round is
    /// active: empty superblocks retire immediately; sealed ones get a
    /// relocation round first; active ones wait until they rotate out.
    pub(super) fn pump_retirement(&mut self) {
        if self.gc.is_some() || self.report.end_of_life.is_some() {
            return;
        }
        for _ in 0..self.pending_retire.len() {
            let sb = self.pending_retire.pop_front().expect("checked non-empty");
            if self.ftl.retired_superblocks().contains(&sb) {
                // Raced with a wear-driven retirement of the same victim.
                continue;
            }
            if self.ftl.superblock_valid_pages(sb) == 0 {
                if self.ftl.retire_superblock(sb) {
                    self.finish_retirement(sb);
                    continue;
                }
                // Active superblock: re-queue until it rotates out.
                self.pending_retire.push_back(sb);
                continue;
            }
            // Live data must be relocated first: run a GC round against
            // this specific victim and retire it on completion.
            match self.ftl.start_gc_round_on(sb) {
                Some(round) => {
                    self.begin_round(round, true);
                    return;
                }
                // Active (host or GC) superblock: try again later.
                None => self.pending_retire.push_back(sb),
            }
        }
    }

    /// Accounting for a completed superblock retirement: on decoupled
    /// architectures the still-healthy sub-blocks feed the recycle bins.
    pub(super) fn finish_retirement(&mut self, sb: u32) {
        self.tracer.instant(Track::Faults, "superblock retired", self.now);
        self.report.bad_superblocks += 1;
        self.report.faults.superblocks_retired += 1;
        if self.config.architecture.is_decoupled() {
            self.recycle_healthy(sb);
        }
    }

    /// Deposits superblock `sb`'s still-healthy sub-blocks into their
    /// channels' recycle bins (RBTs).
    fn recycle_healthy(&mut self, sb: u32) {
        for b in self.ftl.layout().sub_blocks(sb).collect::<Vec<_>>() {
            let idx = self.resolve_block(b);
            if !self.wear.as_ref().is_some_and(|w| w.is_worn_out(idx as usize)) {
                let _ = self.controllers[b.channel as usize].rbt_mut().deposit(idx);
            }
        }
    }

    /// Charges accelerated wear for the round's erases; worn (or
    /// erase-failed) sub-blocks are repaired through the SRT/RBT on
    /// decoupled architectures or retire the superblock outright.
    pub(super) fn apply_wear(&mut self, round: &dssd_ftl::GcRound) {
        if self.wear.is_none() {
            return;
        }
        let accel = self.config.dynamic_sb.map(|d| d.wear_acceleration.max(1));
        let mut worn = Vec::new();
        for b in &round.erases {
            // Wear accrues on the block physically backing the slot.
            let idx = self.resolve_block(*b) as usize;
            if self.wear.as_ref().unwrap().is_worn_out(idx) {
                continue;
            }
            if self.injector.as_mut().is_some_and(|i| i.erase_fails()) {
                // Injected erase failure: the block dies on the spot,
                // whatever its endurance budget said.
                self.tracer.instant(Track::Faults, "erase failure", self.now);
                self.report.faults.erase_failures += 1;
                self.report.faults.blocks_retired += 1;
                self.wear.as_mut().unwrap().force_worn(idx);
                worn.push(*b);
                continue;
            }
            let Some(accel) = accel else { continue };
            let wear = self.wear.as_mut().unwrap();
            if (0..accel).any(|_| wear.erase(idx) == EraseOutcome::WornOut) {
                worn.push(*b);
            }
        }
        if worn.is_empty() {
            return;
        }
        // Decoupled architectures try to repair every worn sub-block.
        let mut repaired_all = self.config.architecture.is_decoupled();
        if repaired_all {
            for b in &worn {
                repaired_all &= self.try_remap_worn(*b);
            }
        }
        if repaired_all {
            return;
        }
        // Conventional bad-superblock management: retire it whole. The
        // round's victim was just erased, so it holds no valid pages.
        if self.ftl.retire_superblock(round.victim) {
            self.report.bad_superblocks += 1;
            if self.config.architecture.is_decoupled() {
                // Still-good sub-blocks feed the recycle bins.
                self.recycle_healthy(round.victim);
            }
        }
    }

    /// Replaces a worn sub-block with a recycled one: SRT entry in the
    /// failing controller plus a live timing remap, so the replacement's
    /// channel/die conflicts are visible to every subsequent access.
    fn try_remap_worn(&mut self, b: BlockAddr) -> bool {
        let geo = self.config.geometry;
        let ch = b.channel as usize;
        let spare = self.controllers[ch].rbt_mut().take().or_else(|| {
            (0..self.controllers.len())
                .filter(|&c| c != ch)
                .find_map(|c| self.controllers[c].rbt_mut().take())
        });
        let Some(spare) = spare else { return false };
        let key = geo.block_index(b) as u32;
        if self.controllers[ch].srt_mut().insert(key, spare).is_err() {
            let _ = self.controllers[ch].rbt_mut().deposit(spare);
            return false;
        }
        let spare_addr = geo.block_at(spare as usize);
        let die_idx = b.channel + geo.channels * b.way + geo.channels * geo.ways * b.die;
        self.remap.insert(
            b.block,
            die_idx,
            spare_addr.channel,
            spare_addr.way,
            spare_addr.die,
        );
        self.report.dynamic_remaps += 1;
        self.tracer.instant(Track::Faults, "dynamic remap", self.now);
        true
    }
}
