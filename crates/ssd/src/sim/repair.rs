//! Fault and wear repair (Sec 5): the fault injector, the ECC verdict of
//! each host read, failed blocks, per-block wear, the SRT/RBT remaps of
//! the decoupled controllers (and the timing-level remap table every
//! access resolves through), and online superblock retirement.

use std::collections::VecDeque;

use dssd_ctrl::EccVerdict;
use dssd_flash::{BlockAddr, EraseOutcome, PageAddr, WearModel};
use dssd_kernel::Rng;
use dssd_telemetry::Track;

use super::host::ReadLeg;
use super::SsdSim;
use crate::faults::{FaultInjector, ReadFault};
use crate::{DynamicSbConfig, SsdConfig};

/// The repair seam: the remap table, the wear model, the fault injector
/// and the superblocks awaiting retirement.
#[derive(Debug)]
pub(super) struct Repair {
    remap: RemapTable,
    wear: Option<WearModel>,
    /// The fault injector, when any fault rate is nonzero; the host and
    /// fNoC seams draw their faults from it.
    pub(super) injector: Option<FaultInjector>,
    /// Superblocks holding a failed block, awaiting online retirement.
    pending_retire: VecDeque<u32>,
}

impl Repair {
    /// The per-block wear model, with Gaussian P/E limits drawn from its
    /// own `seed ^ 0x3EA2` stream, is built when online dynamic
    /// superblocks need it, and for fault injection (forced wear-out,
    /// per-block RBER), which uses the default distribution when dynamic
    /// superblocks are off.
    pub(super) fn new(config: &SsdConfig) -> Self {
        let faults = config.faults.enabled();
        let injector = faults.then(|| FaultInjector::new(config.faults, config.seed));
        let wear = config.dynamic_sb.or_else(|| faults.then(DynamicSbConfig::default)).map(|d| {
            let mut rng = Rng::new(config.seed ^ 0x3EA2);
            let blocks = config.geometry.total_blocks() as usize;
            WearModel::with_block_count(blocks, d.pe_mean, d.pe_sigma, &mut rng)
        });
        let remap = RemapTable::injected(config);
        Repair { remap, wear, injector, pending_retire: VecDeque::new() }
    }
}

/// Dense timing-level SRT remap table: one slot per `(superblock,
/// stripe-die)` pair, so the per-access lookup in `effective_addr` is a
/// single indexed load instead of a hash probe. The replacement
/// `(channel, way, die)` packs into a `u32`; `u32::MAX` marks identity.
#[derive(Debug, Clone)]
struct RemapTable {
    table: Vec<u32>,
    channels: u32,
    ways: u32,
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
    fn injected(config: &SsdConfig) -> Self {
        let geo = config.geometry;
        let stripe_dies = geo.total_dies() as u32;
        let mut remap = RemapTable {
            table: vec![REMAP_NONE; geo.blocks as usize * stripe_dies as usize],
            channels: geo.channels,
            ways: geo.ways,
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

    /// The stripe-die index of `(channel, way, die)`: channel-major,
    /// unlike `FlashGeometry::die_index`.
    fn stripe(&self, channel: u32, way: u32, die: u32) -> u32 {
        channel + self.channels * (way + self.ways * die)
    }

    /// Applies the timing-level SRT remap (Fig 15a) to an address.
    fn lookup(&self, addr: PageAddr) -> PageAddr {
        if self.len == 0 {
            return addr;
        }
        let stripe = self.stripe(addr.channel, addr.way, addr.die);
        match self.table[(addr.block * self.stripe_dies + stripe) as usize] {
            REMAP_NONE => addr,
            p => PageAddr { channel: p & 0x3FF, way: (p >> 10) & 0x3FF, die: p >> 20, ..addr },
        }
    }
}

impl SsdSim {
    /// Digest of the fault-injection stream position, or `None` when
    /// fault injection is disabled. Useful for asserting that the fault
    /// stream survives snapshot/restore bit-identically.
    #[must_use]
    pub fn fault_stream_digest(&self) -> Option<u64> {
        self.repair.injector.as_ref().map(FaultInjector::stream_digest)
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
        self.repair.remap.lookup(addr)
    }

    pub(super) fn effective_die_index(&self, addr: PageAddr) -> usize {
        self.config.geometry.die_index(self.effective_addr(addr).die_addr())
    }

    /// The block physically backing slot `b` after any SRT remapping.
    fn resolve_block(&self, b: BlockAddr) -> u32 {
        let key = self.config.geometry.block_index(b) as u32;
        self.res
            .controllers
            .get(b.channel as usize)
            .and_then(|c| c.srt().lookup(key))
            .unwrap_or(key)
    }

    /// Decides the decode verdict for one read group: clean without fault
    /// injection. The first attempt draws the injected fault class (or
    /// falls back to the wear model's RBER); retries re-check — hard
    /// failures stay uncorrectable, transient ones recover with
    /// `retry_success_prob`.
    pub(super) fn read_verdict(&mut self, leg: &mut ReadLeg) -> EccVerdict {
        let uncorrectable = self.config.ecc.correctable_rber;
        let corrected = self.config.ecc.clean_rber;
        let Some(injector) = self.repair.injector.as_mut() else { return EccVerdict::Clean };
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
        self.res.controllers[leg.channel as usize].ecc().check(rber)
    }

    /// RBER of the block physically backing `addr`, per the wear model.
    /// Fresh (never-erased) blocks read as error-free rather than sitting
    /// exactly on the `Corrected` threshold.
    fn block_rber(&self, addr: PageAddr) -> f64 {
        let Some(wear) = &self.repair.wear else { return 0.0 };
        let idx = self.resolve_block(addr.block_addr()) as usize;
        if wear.pe_count(idx) == 0 {
            return 0.0;
        }
        wear.rber(idx)
    }

    /// A block failed in service (program failure or uncorrectable read):
    /// mark it worn, then repair through the SRT/RBT on decoupled
    /// architectures or queue its superblock for online retirement.
    pub(super) fn mark_block_bad(&mut self, b: BlockAddr) {
        let idx = self.resolve_block(b) as usize;
        if let Some(w) = self.repair.wear.as_mut() {
            if w.is_worn_out(idx) {
                // Already handled (reads racing on the same dying block).
                return;
            }
            w.force_worn(idx);
        }
        self.observe.tracer.instant(Track::Faults, "block retired", self.now);
        self.report.faults.blocks_retired += 1;
        if self.config.architecture.is_decoupled() && self.try_remap_worn(b) {
            return;
        }
        // Queue the superblock for online retirement (idempotent) and try
        // to start it at once.
        let pending = &mut self.repair.pending_retire;
        if !pending.contains(&b.block) && !self.ftl.retired_superblocks().contains(&b.block) {
            pending.push_back(b.block);
        }
        self.pump_retirement();
    }

    /// Starts the next queued superblock retirement if no GC round is
    /// active: empty superblocks retire immediately; sealed ones get a
    /// relocation round first; active ones wait until they rotate out.
    pub(super) fn pump_retirement(&mut self) {
        if self.gc.in_round() || self.report.end_of_life.is_some() {
            return;
        }
        for _ in 0..self.repair.pending_retire.len() {
            let sb = self.repair.pending_retire.pop_front().expect("checked non-empty");
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
                self.repair.pending_retire.push_back(sb);
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
                None => self.repair.pending_retire.push_back(sb),
            }
        }
    }

    /// Accounting for a completed superblock retirement: on decoupled
    /// architectures the still-healthy sub-blocks feed the recycle bins.
    pub(super) fn finish_retirement(&mut self, sb: u32) {
        self.observe.tracer.instant(Track::Faults, "superblock retired", self.now);
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
            if !self.repair.wear.as_ref().is_some_and(|w| w.is_worn_out(idx as usize)) {
                let _ = self.res.controllers[b.channel as usize].rbt_mut().deposit(idx);
            }
        }
    }

    /// Charges accelerated wear for the round's erases; worn (or
    /// erase-failed) sub-blocks are repaired through the SRT/RBT on
    /// decoupled architectures or retire the superblock outright.
    pub(super) fn apply_wear(&mut self, round: &dssd_ftl::GcRound) {
        if self.repair.wear.is_none() {
            return;
        }
        let accel = self.config.dynamic_sb.map(|d| d.wear_acceleration.max(1));
        let mut worn = Vec::new();
        for b in &round.erases {
            // Wear accrues on the block physically backing the slot.
            let idx = self.resolve_block(*b) as usize;
            let repair = &mut self.repair;
            let wear = repair.wear.as_mut().expect("checked above");
            if wear.is_worn_out(idx) {
                continue;
            }
            if repair.injector.as_mut().is_some_and(FaultInjector::erase_fails) {
                // Injected erase failure: the block dies on the spot,
                // whatever its endurance budget said.
                self.observe.tracer.instant(Track::Faults, "erase failure", self.now);
                self.report.faults.erase_failures += 1;
                self.report.faults.blocks_retired += 1;
                wear.force_worn(idx);
                worn.push(*b);
                continue;
            }
            let Some(accel) = accel else { continue };
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
        let controllers = &mut self.res.controllers;
        let spare = controllers[ch].rbt_mut().take().or_else(|| {
            (0..controllers.len())
                .filter(|&c| c != ch)
                .find_map(|c| controllers[c].rbt_mut().take())
        });
        let Some(spare) = spare else { return false };
        let key = geo.block_index(b) as u32;
        if controllers[ch].srt_mut().insert(key, spare).is_err() {
            let _ = controllers[ch].rbt_mut().deposit(spare);
            return false;
        }
        let to = geo.block_at(spare as usize);
        let remap = &mut self.repair.remap;
        remap.insert(b.block, remap.stripe(b.channel, b.way, b.die), to.channel, to.way, to.die);
        self.report.dynamic_remaps += 1;
        self.observe.tracer.instant(Track::Faults, "dynamic remap", self.now);
        true
    }
}
