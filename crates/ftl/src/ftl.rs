//! The FTL façade: address translation, allocation, and GC rounds.

use std::collections::VecDeque;

use dssd_flash::{FlashGeometry, PageAddr};
use dssd_kernel::{Rng, SimTime};

use crate::alloc::ActiveSuperblock;
use crate::meta::{MetaConfig, MetaIo, MetaState, MetaStats};
use crate::{
    AllocGroup, CopyGroup, GcPolicy, GcRound, Lpn, MappingTable, SuperblockLayout, MAX_PLANES,
};

/// FTL configuration.
#[derive(Debug, Clone, Copy)]
pub struct FtlConfig {
    /// Fraction of physical pages hidden from the logical space
    /// (Table 1: provision ratio 7 %).
    pub overprovision: f64,
    /// Start GC when the free-superblock pool drops below this.
    pub gc_threshold_free: usize,
    /// Forced-GC threshold for the preemptive policy.
    pub gc_hard_free: usize,
    /// GC scheduling policy.
    pub policy: GcPolicy,
}

impl Default for FtlConfig {
    fn default() -> Self {
        FtlConfig {
            overprovision: 0.07,
            gc_threshold_free: 4,
            gc_hard_free: 2,
            policy: GcPolicy::Parallel,
        }
    }
}

/// FTL activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Pages written on behalf of the host.
    pub host_pages_written: u64,
    /// Pages moved by garbage collection.
    pub gc_pages_copied: u64,
    /// GC rounds completed.
    pub gc_rounds: u64,
    /// Sub-block erases performed.
    pub erases: u64,
    /// GC copies that arrived stale (host overwrote the LPN in flight).
    pub stale_copies: u64,
}

/// The flash translation layer.
///
/// Owns the mapping table, the free-superblock pool, one active
/// superblock for host writes and one for GC destinations, and builds
/// [`GcRound`]s with greedy victim selection. Purely *decisional*: the
/// event-driven SSD world turns the returned addresses into timed flash,
/// bus and network operations.
///
/// Writing a page, picking a victim and allocating a GC destination do
/// O(1) work per page and allocate nothing: the mapping keeps a valid
/// count per superblock, [`AllocGroup`]s are `Copy`, and
/// [`Ftl::write_pages`] fills a buffer the caller reuses. Building a GC
/// round allocates its group and erase lists once per round.
///
/// # Example
///
/// ```
/// use dssd_ftl::{Ftl, FtlConfig};
/// use dssd_flash::FlashGeometry;
///
/// let mut ftl = Ftl::new(FlashGeometry::tiny(), FtlConfig::default());
/// let mut groups = Vec::new();
/// assert!(ftl.write_pages(&[0, 1, 2], &mut groups));
/// assert_eq!(groups.iter().map(|g| g.len()).sum::<usize>(), 3);
/// assert!(ftl.translate(1).is_some());
/// // The same buffer serves the next write.
/// assert!(ftl.write_pages(&[3], &mut groups));
/// assert_eq!(groups.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Ftl {
    layout: SuperblockLayout,
    map: MappingTable,
    free_sbs: VecDeque<u32>,
    sealed: Vec<u32>,
    retired: Vec<u32>,
    active_host: ActiveSuperblock,
    active_gc: ActiveSuperblock,
    config: FtlConfig,
    stats: FtlStats,
    /// Optional crash-consistency metadata model (OOB / journal /
    /// checkpoints). `None` keeps every hot path bit-identical to the
    /// pre-durability FTL.
    meta: Option<MetaState>,
}

impl Ftl {
    /// Creates an FTL over an all-erased flash array.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 4 superblocks (two active
    /// plus a workable free pool) or more than [`MAX_PLANES`] planes per
    /// die, or the config thresholds are inconsistent.
    #[must_use]
    pub fn new(geometry: FlashGeometry, config: FtlConfig) -> Self {
        let layout = SuperblockLayout::new(geometry);
        assert!(
            layout.superblock_count() >= 4,
            "need at least 4 superblocks"
        );
        assert!(geometry.planes <= MAX_PLANES, "at most {MAX_PLANES} planes per die");
        assert!(
            config.gc_hard_free <= config.gc_threshold_free,
            "hard threshold above trigger threshold"
        );
        assert!(
            (0.0..1.0).contains(&config.overprovision),
            "overprovision must be in [0, 1)"
        );
        let lpn_count =
            (geometry.total_pages() as f64 * (1.0 - config.overprovision)).floor() as u64;
        let map = MappingTable::new(&geometry, lpn_count);
        let mut free_sbs: VecDeque<u32> = (0..layout.superblock_count()).collect();
        let host_sb = free_sbs.pop_front().unwrap();
        let gc_sb = free_sbs.pop_front().unwrap();
        Ftl {
            active_host: ActiveSuperblock::new(host_sb, &layout),
            active_gc: ActiveSuperblock::new(gc_sb, &layout),
            layout,
            map,
            free_sbs,
            sealed: Vec::new(),
            retired: Vec::new(),
            config,
            stats: FtlStats::default(),
            meta: None,
        }
    }

    /// Enables the crash-consistency metadata model. Must run before any
    /// write so versions cover the whole device history.
    ///
    /// # Panics
    ///
    /// Panics if pages were already written.
    pub fn enable_meta(&mut self, config: MetaConfig) {
        assert_eq!(self.stats.host_pages_written, 0, "enable_meta before first write");
        let total = self.layout.geometry().total_pages();
        self.meta = Some(MetaState::new(config, self.map.lpn_count(), total));
    }

    /// The metadata durability model, if enabled.
    #[must_use]
    pub fn meta(&self) -> Option<&MetaState> {
        self.meta.as_ref()
    }

    /// Durability-model activity counters, if the model is enabled.
    #[must_use]
    pub fn meta_stats(&self) -> Option<MetaStats> {
        self.meta.as_ref().map(MetaState::stats)
    }

    /// Takes the mount baseline (checkpoint 0 over the current —
    /// typically prefilled — mapping). No-op when the model is disabled
    /// or the baseline is already in place.
    pub fn meta_mount_baseline(&mut self) {
        if let Some(meta) = &mut self.meta {
            meta.mount_baseline(&self.map);
        }
    }

    /// Replaces `into`'s contents with the tickets issued by
    /// [`Ftl::write_pages`] since the last drain, in allocation-group
    /// order: none when the model is disabled. Reusing one buffer keeps
    /// durable writes free of heap allocation.
    pub fn meta_drain_tickets(&mut self, into: &mut Vec<u32>) {
        match &mut self.meta {
            Some(meta) => meta.drain_tickets(into),
            None => into.clear(),
        }
    }

    /// Reports that the program behind `ticket` completed at `at`.
    pub fn meta_mark_programmed(&mut self, ticket: u32, at: SimTime) {
        if let Some(meta) = &mut self.meta {
            meta.mark_programmed(ticket, at);
        }
    }

    /// Reports that the program behind `ticket` failed (torn page).
    pub fn meta_mark_torn(&mut self, ticket: u32) {
        if let Some(meta) = &mut self.meta {
            meta.mark_torn(ticket);
        }
    }

    /// Acknowledges the request that owned `ticket` (host completion).
    pub fn meta_ack(&mut self, ticket: u32) {
        if let Some(meta) = &mut self.meta {
            meta.ack(ticket);
        }
    }

    /// Retires `ticket` without acknowledgement (request failed).
    pub fn meta_discard(&mut self, ticket: u32) {
        if let Some(meta) = &mut self.meta {
            meta.discard(ticket);
        }
    }

    /// Moves the pending metadata I/O (journal flushes, checkpoints) for
    /// the simulator to charge as flash traffic into `out`.
    pub fn meta_drain_io(&mut self, out: &mut Vec<MetaIo>) {
        if let Some(meta) = &mut self.meta {
            meta.drain_io(out);
        }
    }

    /// Captures the mapping for a dequeued [`MetaIo::Checkpoint`] whose
    /// flush is durable at `durable_at`; `now` is the simulator's clock.
    pub fn meta_checkpoint(&mut self, now: SimTime, durable_at: SimTime) {
        if let Some(meta) = &mut self.meta {
            meta.checkpoint(&self.map, now, durable_at);
        }
    }

    /// Reports the completion time of journal flush `page`.
    pub fn meta_journal_durable(&mut self, page: u64, at: SimTime) {
        if let Some(meta) = &mut self.meta {
            meta.journal_durable(page, at);
        }
    }

    /// The superblock layout.
    #[must_use]
    pub fn layout(&self) -> &SuperblockLayout {
        &self.layout
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Size of the logical space in pages.
    #[must_use]
    pub fn lpn_count(&self) -> u64 {
        self.map.lpn_count()
    }

    /// Free superblocks (excluding the two active ones).
    #[must_use]
    pub fn free_superblocks(&self) -> usize {
        self.free_sbs.len()
    }

    /// True once the free pool is below the GC trigger threshold.
    #[must_use]
    pub fn needs_gc(&self) -> bool {
        self.free_sbs.len() < self.config.gc_threshold_free
    }

    /// True once GC can no longer be postponed (preemptive policy).
    #[must_use]
    pub fn must_gc(&self) -> bool {
        self.free_sbs.len() <= self.config.gc_hard_free
    }

    /// Translates a logical page to its physical address.
    #[must_use]
    pub fn translate(&self, lpn: Lpn) -> Option<PageAddr> {
        self.map
            .lookup(lpn)
            .map(|ppn| self.layout.geometry().page_at(ppn))
    }

    /// Direct access to the mapping table (read-only).
    #[must_use]
    pub fn mapping(&self) -> &MappingTable {
        &self.map
    }

    /// Pages the host can still write before allocation would block on GC
    /// (one free superblock is held back as the GC destination reserve).
    #[must_use]
    pub fn host_headroom(&self) -> u64 {
        let reserve = 1usize;
        let free = self.free_sbs.len().saturating_sub(reserve) as u64;
        self.active_host.remaining(&self.layout) + free * self.layout.capacity_pages()
    }

    /// Writes `lpns`, committing the mapping immediately, and fills
    /// `groups` with the allocation groups (one flash program each) for
    /// timing. `groups` is cleared first; reusing one buffer keeps a
    /// stream of writes free of heap allocation.
    ///
    /// Returns `false` — with *no* FTL state change — if the host
    /// headroom is insufficient; the caller must let GC free space and
    /// retry.
    pub fn write_pages(&mut self, lpns: &[Lpn], groups: &mut Vec<AllocGroup>) -> bool {
        groups.clear();
        if (lpns.len() as u64) > self.host_headroom() {
            return false;
        }
        let mut rest = lpns;
        while !rest.is_empty() {
            if self.active_host.is_full(&self.layout) {
                let sealed = std::mem::replace(
                    &mut self.active_host,
                    ActiveSuperblock::new(
                        self.free_sbs.pop_front().expect("headroom check guaranteed space"),
                        &self.layout,
                    ),
                );
                self.sealed.push(sealed.sb);
            }
            let group = self
                .active_host
                .alloc_group(&self.layout, rest.len() as u32)
                .expect("active superblock not full");
            let geo = self.layout.geometry();
            for (lpn, addr) in rest.iter().zip(group.addrs()) {
                self.map.map_write(*lpn, geo.page_index(addr));
            }
            if let Some(meta) = &mut self.meta {
                meta.note_host_writes(
                    rest.iter().zip(group.addrs()).map(|(lpn, addr)| (*lpn, geo.page_index(addr))),
                );
            }
            self.stats.host_pages_written += group.len() as u64;
            rest = &rest[group.len()..];
            groups.push(group);
        }
        true
    }

    /// Starts a GC round: greedily selects the sealed superblock with the
    /// fewest valid pages and returns its copy groups and erases.
    /// Returns `None` if no sealed superblock exists.
    pub fn start_gc_round(&mut self) -> Option<GcRound> {
        let (idx, _) = self
            .sealed
            .iter()
            .enumerate()
            .min_by_key(|(_, &sb)| self.superblock_valid_pages(sb))?;
        let victim = self.sealed.swap_remove(idx);
        Some(self.build_gc_round(victim))
    }

    /// Starts a GC round against a *specific* sealed superblock — the
    /// relocation step of online retirement: a failing superblock's live
    /// pages must be moved off before [`Ftl::retire_superblock`] will
    /// accept it. Returns `None` if `sb` is not sealed (free, active, or
    /// already retired superblocks have no data to relocate).
    pub fn start_gc_round_on(&mut self, sb: u32) -> Option<GcRound> {
        let idx = self.sealed.iter().position(|&s| s == sb)?;
        let victim = self.sealed.swap_remove(idx);
        Some(self.build_gc_round(victim))
    }

    fn build_gc_round(&self, victim: u32) -> GcRound {
        let geo = *self.layout.geometry();
        let mut groups = Vec::new();
        let mut valid_pages = 0usize;
        for d in 0..self.layout.stripe_dies() {
            let die = self.layout.stripe_die(d);
            for row in 0..geo.pages {
                let mut group = CopyGroup::new(die);
                for plane in 0..geo.planes {
                    let addr = PageAddr {
                        channel: die.channel,
                        way: die.way,
                        die: die.die,
                        plane,
                        block: victim,
                        page: row,
                    };
                    let ppn = geo.page_index(addr);
                    if let Some(lpn) = self.map.lpn_of(ppn) {
                        group.push(lpn, addr);
                    }
                }
                if !group.is_empty() {
                    valid_pages += group.len();
                    groups.push(group);
                }
            }
        }
        let erases = self.layout.sub_blocks(victim).collect();
        GcRound { victim, groups, erases, valid_pages }
    }

    /// Allocates destination pages for a GC copy group (up to `want`
    /// pages on one die).
    ///
    /// # Panics
    ///
    /// Panics if the GC destination pool is exhausted — the GC trigger
    /// threshold must keep at least one superblock in reserve. Use
    /// [`Ftl::try_alloc_gc_group`] where pool exhaustion is a modeled
    /// outcome (device end-of-life).
    pub fn alloc_gc_group(&mut self, want: u32) -> AllocGroup {
        self.try_alloc_gc_group(want)
            .expect("GC destination pool exhausted")
    }

    /// [`Ftl::alloc_gc_group`] that reports pool exhaustion instead of
    /// panicking: `None` means the device has no erased superblock left
    /// to copy into — end of life.
    pub fn try_alloc_gc_group(&mut self, want: u32) -> Option<AllocGroup> {
        if self.active_gc.is_full(&self.layout) {
            let next = self.free_sbs.pop_front()?;
            let sealed = std::mem::replace(
                &mut self.active_gc,
                ActiveSuperblock::new(next, &self.layout),
            );
            self.sealed.push(sealed.sb);
        }
        Some(
            self.active_gc
                .alloc_group(&self.layout, want)
                .expect("active GC superblock not full"),
        )
    }

    /// Completes one GC page copy; returns `false` (and counts it) if the
    /// copy arrived stale because the host overwrote the LPN in flight.
    pub fn complete_copy(&mut self, lpn: Lpn, src: PageAddr, dst: PageAddr) -> bool {
        self.complete_copy_at(lpn, src, dst, SimTime::ZERO)
    }

    /// [`Ftl::complete_copy`] with the simulated completion instant, so
    /// the durability model can stamp the destination page's OOB.
    pub fn complete_copy_at(&mut self, lpn: Lpn, src: PageAddr, dst: PageAddr, at: SimTime) -> bool {
        let geo = self.layout.geometry();
        let (src_ppn, dst_ppn) = (geo.page_index(src), geo.page_index(dst));
        let ok = self.map.complete_copy(lpn, src_ppn, dst_ppn);
        if ok {
            self.stats.gc_pages_copied += 1;
        } else {
            self.stats.stale_copies += 1;
        }
        if let Some(meta) = &mut self.meta {
            meta.note_copy(lpn, src_ppn, dst_ppn, ok, at);
        }
        ok
    }

    /// Finishes a GC round: erases the victim's sub-blocks and returns the
    /// superblock to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if any victim sub-block still holds valid pages (copies
    /// must complete first).
    pub fn finish_gc_round(&mut self, round: &GcRound) {
        let geo = *self.layout.geometry();
        for b in &round.erases {
            let idx = geo.block_index(*b);
            self.map.erase_block(idx);
            if let Some(meta) = &mut self.meta {
                meta.note_erase(idx as u64 * u64::from(geo.pages), u64::from(geo.pages));
            }
            self.stats.erases += 1;
        }
        self.free_sbs.push_back(round.victim);
        self.stats.gc_rounds += 1;
    }

    /// Finishes a relocation round started by [`Ftl::start_gc_round_on`]:
    /// the victim's sub-blocks are erased and unmapped like a normal round,
    /// but the superblock goes to the retired list instead of back to the
    /// free pool — it failed in service and must never be allocated again.
    pub fn finish_gc_round_retiring(&mut self, round: &GcRound) {
        let geo = *self.layout.geometry();
        for b in &round.erases {
            let idx = geo.block_index(*b);
            self.map.erase_block(idx);
            if let Some(meta) = &mut self.meta {
                meta.note_erase(idx as u64 * u64::from(geo.pages), u64::from(geo.pages));
            }
            self.stats.erases += 1;
        }
        self.retired.push(round.victim);
        self.stats.gc_rounds += 1;
    }

    /// Retires a bad superblock: it is removed from the free and sealed
    /// pools and never allocated again (conventional bad-superblock
    /// management — the whole superblock is lost). Live data must have
    /// been moved first; retiring a superblock that still holds valid
    /// pages is rejected.
    ///
    /// Returns `false` (no state change) if the superblock is active,
    /// already retired, or still holds valid pages.
    pub fn retire_superblock(&mut self, sb: u32) -> bool {
        if sb == self.active_host.sb || sb == self.active_gc.sb {
            return false;
        }
        if self.retired.contains(&sb) || self.superblock_valid_pages(sb) > 0 {
            return false;
        }
        self.free_sbs.retain(|&s| s != sb);
        self.sealed.retain(|&s| s != sb);
        self.retired.push(sb);
        true
    }

    /// Superblocks retired as bad.
    #[must_use]
    pub fn retired_superblocks(&self) -> &[u32] {
        &self.retired
    }

    /// Sealed (full, GC-eligible) superblocks, in the order
    /// [`Ftl::start_gc_round`] scans them: of equally valid candidates
    /// the first is the victim.
    #[must_use]
    pub fn sealed_superblocks(&self) -> &[u32] {
        &self.sealed
    }

    /// Valid pages currently in superblock `sb`: one counter read, kept
    /// by the mapping table as pages are written, copied and trimmed.
    #[must_use]
    pub fn superblock_valid_pages(&self, sb: u32) -> u64 {
        self.map.valid_in_superblock(sb)
    }

    /// Pre-conditions the SSD for GC experiments: sequentially fills the
    /// whole logical space, then performs random overwrites until the
    /// free pool shrinks to `target_free` superblocks — leaving the drive
    /// full, fragmented, and one write burst away from triggering GC
    /// ("we assume SSD is fully utilized and some random fraction of the
    /// pages are invalidated such that garbage collection will be
    /// triggered", Sec 6.1).
    ///
    /// # Panics
    ///
    /// Panics if `target_free` cannot be reached (e.g. it exceeds the
    /// post-fill free pool).
    pub fn prefill(&mut self, rng: &mut Rng, target_free: usize) {
        self.prefill_with(rng, target_free, 0.0);
    }

    /// [`Ftl::prefill`] with explicit pre-invalidation: after the fill,
    /// `invalid_fraction` of all logical pages are trimmed, scattering
    /// invalid pages across every superblock *without* consuming free
    /// space — so garbage collection has steady-state work from the
    /// first round, exactly the paper's setup.
    ///
    /// # Panics
    ///
    /// Panics if `invalid_fraction` is outside `[0, 1)` or `target_free`
    /// cannot be reached.
    pub fn prefill_with(&mut self, rng: &mut Rng, target_free: usize, invalid_fraction: f64) {
        assert!(
            (0.0..1.0).contains(&invalid_fraction),
            "invalid fraction must be in [0, 1)"
        );
        let lpns = self.lpn_count();
        let mut batch = Vec::with_capacity(64);
        let mut groups = Vec::new();
        let mut next: Lpn = 0;
        while next < lpns {
            batch.clear();
            for _ in 0..64.min(lpns - next) {
                batch.push(next);
                next += 1;
            }
            let fits = self.write_pages(&batch, &mut groups);
            assert!(fits, "sequential fill must fit the logical space");
        }
        if invalid_fraction > 0.0 {
            for lpn in 0..lpns {
                if rng.chance(invalid_fraction) {
                    self.trim(lpn);
                }
            }
        }
        assert!(
            self.free_sbs.len() >= target_free,
            "target_free {target_free} unreachable (free pool {} after fill)",
            self.free_sbs.len()
        );
        while self.free_sbs.len() > target_free {
            let lpn = rng.range_u64(0..lpns);
            let fits = self.write_pages(&[lpn], &mut groups);
            assert!(fits, "overwrite within headroom");
        }
    }

    /// Unmaps a logical page (TRIM), invalidating its physical page.
    /// Returns whether `lpn` was mapped.
    pub fn trim(&mut self, lpn: Lpn) -> bool {
        let old = self.map.trim(lpn);
        if let Some(meta) = &mut self.meta {
            meta.note_trim(lpn);
        }
        old.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_flash::FlashGeometry;

    /// The tiny test geometry has only 8 superblocks (two of which are
    /// active), so tests use a deeper overprovision than Table 1's 7 %.
    fn cfg(threshold: usize, hard: usize) -> FtlConfig {
        FtlConfig {
            overprovision: 0.3,
            gc_threshold_free: threshold,
            gc_hard_free: hard,
            policy: GcPolicy::Parallel,
        }
    }

    fn small_ftl() -> Ftl {
        Ftl::new(FlashGeometry::tiny(), cfg(2, 1))
    }

    fn write(f: &mut Ftl, lpns: &[Lpn]) -> bool {
        f.write_pages(lpns, &mut Vec::new())
    }

    /// Copies every page of `round` into GC destinations and finishes it.
    fn run_round(f: &mut Ftl, round: &GcRound) {
        for g in &round.groups {
            let mut pages = g.pages();
            while !pages.is_empty() {
                let dst = f.alloc_gc_group(pages.len() as u32);
                let (now, rest) = pages.split_at(dst.len().min(pages.len()));
                for (&(lpn, src), d) in now.iter().zip(dst.addrs()) {
                    f.complete_copy(lpn, src, d);
                }
                pages = rest;
            }
        }
        f.finish_gc_round(round);
    }

    #[test]
    fn write_then_translate() {
        let mut f = small_ftl();
        assert!(write(&mut f, &[5]));
        let addr = f.translate(5).unwrap();
        assert_eq!(f.mapping().lookup(5), Some(f.layout().geometry().page_index(addr)));
        assert_eq!(f.translate(6), None);
    }

    #[test]
    fn overwrite_creates_invalid_page() {
        let mut f = small_ftl();
        assert!(write(&mut f, &[5]));
        let first = f.translate(5).unwrap();
        assert!(write(&mut f, &[5]));
        let second = f.translate(5).unwrap();
        assert_ne!(first, second);
        let geo = *f.layout().geometry();
        assert!(!f.mapping().is_valid(geo.page_index(first)));
    }

    #[test]
    fn headroom_shrinks_and_blocks() {
        let mut f = small_ftl();
        let head = f.host_headroom();
        assert!(head > 0);
        // Writing more than headroom in one call is refused atomically.
        let too_many: Vec<Lpn> = (0..head + 1).collect();
        let mut groups = vec![f.alloc_gc_group(1)];
        assert!(!f.write_pages(&too_many, &mut groups));
        assert!(groups.is_empty(), "a refused write leaves no groups behind");
        assert_eq!(f.stats().host_pages_written, 0);
    }

    #[test]
    fn fill_then_gc_reclaims_space() {
        let mut f = small_ftl();
        let mut rng = Rng::new(1);
        f.prefill(&mut rng, 1);
        assert!(f.needs_gc());
        let free_before = f.free_superblocks();
        let round = f.start_gc_round().expect("sealed superblocks exist");
        run_round(&mut f, &round);
        assert_eq!(f.free_superblocks(), free_before + 1);
        assert_eq!(f.stats().gc_rounds, 1);
        assert!(f.stats().erases > 0);
        // every LPN still readable
        for lpn in 0..f.lpn_count() {
            assert!(f.translate(lpn).is_some(), "LPN {lpn} lost by GC");
        }
    }

    #[test]
    fn greedy_picks_most_invalid_victim() {
        let mut f = small_ftl();
        let mut rng = Rng::new(2);
        f.prefill(&mut rng, 1);
        let round = f.start_gc_round().unwrap();
        // The chosen victim must have the minimum valid count among what
        // was sealed.
        let victim_valid = round.valid_pages as u64;
        for &sb in &f.sealed {
            assert!(f.superblock_valid_pages(sb) >= victim_valid);
        }
    }

    #[test]
    fn copy_groups_are_multi_plane_shaped() {
        let mut f = small_ftl();
        let mut rng = Rng::new(3);
        f.prefill(&mut rng, 1);
        let round = f.start_gc_round().unwrap();
        let planes = f.layout().geometry().planes as usize;
        for g in &round.groups {
            assert!(!g.is_empty() && g.len() <= planes);
            // same die, same row, distinct planes
            let row = g.pages()[0].1.page;
            let mut seen_planes = std::collections::HashSet::new();
            for (_, p) in g.pages() {
                assert_eq!(p.die_addr(), g.src_die);
                assert_eq!(p.page, row);
                assert_eq!(p.block, round.victim);
                assert!(seen_planes.insert(p.plane));
            }
        }
    }

    #[test]
    fn stale_copy_counted_not_applied() {
        let mut f = small_ftl();
        let mut rng = Rng::new(4);
        f.prefill(&mut rng, 1);
        let round = f.start_gc_round().unwrap();
        let (lpn, src) = round.groups[0].pages()[0];
        // Host overwrites the LPN mid-copy.
        assert!(write(&mut f, &[lpn]));
        let dst = f.alloc_gc_group(1);
        assert!(!f.complete_copy(lpn, src, dst.addr(0)));
        assert_eq!(f.stats().stale_copies, 1);
    }

    #[test]
    fn sustained_write_loop_with_gc_never_loses_data() {
        let mut f = Ftl::new(FlashGeometry::tiny(), cfg(3, 1));
        let mut rng = Rng::new(5);
        f.prefill(&mut rng, 1);
        // Keep writing random LPNs; run a full GC round whenever needed.
        for i in 0..2000u64 {
            if f.needs_gc() {
                if let Some(round) = f.start_gc_round() {
                    run_round(&mut f, &round);
                }
            }
            let lpn = rng.range_u64(0..f.lpn_count());
            assert!(
                write(&mut f, &[lpn]),
                "write {i} blocked: free={} needs_gc={}",
                f.free_superblocks(),
                f.needs_gc()
            );
        }
        for lpn in 0..f.lpn_count() {
            assert!(f.translate(lpn).is_some());
        }
        assert!(f.stats().gc_rounds > 0, "GC never ran");
    }

    #[test]
    fn retire_removes_superblock_from_circulation() {
        let mut f = small_ftl();
        let free_before = f.free_superblocks();
        // Retire a free superblock (no valid pages).
        let victim = 5;
        assert!(f.retire_superblock(victim));
        assert_eq!(f.free_superblocks(), free_before - 1);
        assert_eq!(f.retired_superblocks(), &[victim]);
        // Idempotent-ish: a second retire is refused.
        assert!(!f.retire_superblock(victim));
    }

    #[test]
    fn retire_refuses_live_superblocks() {
        let mut f = small_ftl();
        let mut rng = Rng::new(9);
        f.prefill(&mut rng, 1);
        // A sealed superblock full of valid pages cannot be retired.
        let sealed_with_data = (0..f.layout().superblock_count())
            .find(|&sb| f.superblock_valid_pages(sb) > 0)
            .unwrap();
        assert!(!f.retire_superblock(sealed_with_data));
    }

    #[test]
    #[should_panic(expected = "hard threshold")]
    fn inconsistent_thresholds_rejected() {
        let bad = FtlConfig { gc_threshold_free: 1, gc_hard_free: 5, ..FtlConfig::default() };
        let _ = Ftl::new(FlashGeometry::tiny(), bad);
    }
}
