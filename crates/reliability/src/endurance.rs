//! The superblock-lifetime simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dssd_ctrl::{RecycleBlockTable, SuperblockRemapTable};
use dssd_flash::{EraseOutcome, WearModel};
use dssd_ftl::{MetaConfig, CHECKPOINT_ENTRY_BYTES};
use dssd_kernel::Rng;

/// Global block identity: `channel * blocks_per_channel + local`.
type BlockId = u32;

/// The superblock-management policies compared in Figs 14 and 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuperblockPolicy {
    /// Static superblocks; retire whole on first uncorrectable error.
    Baseline,
    /// dSSD recycled blocks (RBT + SRT), Sec 5.1–5.2.
    Recycled,
    /// Reservation-based recycling: RBTs pre-filled with provisioned
    /// blocks, Sec 5.3.
    Reserved,
    /// WAS-style software regrouping by remaining endurance.
    WearAware,
}

impl SuperblockPolicy {
    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SuperblockPolicy::Baseline => "BASELINE",
            SuperblockPolicy::Recycled => "RECYCLED",
            SuperblockPolicy::Reserved => "RESERV",
            SuperblockPolicy::WearAware => "WAS",
        }
    }

    /// All four, in presentation order.
    #[must_use]
    pub fn all() -> [SuperblockPolicy; 4] {
        [
            SuperblockPolicy::Baseline,
            SuperblockPolicy::Recycled,
            SuperblockPolicy::Reserved,
            SuperblockPolicy::WearAware,
        ]
    }
}

/// Configuration of the endurance simulation.
#[derive(Debug, Clone, Copy)]
pub struct EnduranceConfig {
    /// Flash channels (= decoupled controllers).
    pub channels: usize,
    /// Sub-blocks each channel contributes to one superblock
    /// (ways × dies × planes).
    pub subs_per_channel: usize,
    /// Superblocks (= blocks per plane).
    pub superblocks: usize,
    /// Pages per block (data-written accounting).
    pub pages_per_block: u32,
    /// Bytes per page.
    pub page_bytes: u32,
    /// Mean block P/E limit (Table 1: 5578).
    pub pe_mean: f64,
    /// P/E limit standard deviation (Table 1: 826.9).
    pub pe_sigma: f64,
    /// SRT capacity per controller (entries). Use a large value to model
    /// an unbounded table for the Fig 16b study.
    pub srt_entries: usize,
    /// RBT capacity per controller (entries).
    pub rbt_entries: usize,
    /// Fraction of superblocks provisioned as reserved recycled blocks
    /// for [`SuperblockPolicy::Reserved`] (Table 1: 7 %).
    pub reserved_fraction: f64,
    /// Stop once this fraction of the initially visible superblocks has
    /// gone (visibly) bad.
    pub stop_bad_fraction: f64,
    /// Standard deviation of WAS's wear-estimation error, in P/E cycles.
    /// 0 models the oracle the paper effectively grants WAS (full wear
    /// visibility from its scans); larger values model stale or noisy
    /// RBER estimates between scan passes.
    pub was_estimation_sigma: f64,
    /// FTL durability-model knobs: when set, every superblock fill also
    /// journals one mapping op per constituent block and checkpoints on
    /// the configured data-page interval, and the run reports the
    /// metadata write traffic ([`EnduranceReport::journal_pages`] /
    /// [`EnduranceReport::checkpoint_pages`]).
    pub journal: Option<MetaConfig>,
    /// Mean superblock fills between injected power losses (exponential,
    /// drawn from the dedicated `seed ^ 0x504C` stream so injection
    /// leaves the endurance curve untouched). 0 disables injection;
    /// requires `journal` to be set.
    pub mean_fills_between_power_loss: f64,
    /// Random seed.
    pub seed: u64,
}

impl EnduranceConfig {
    /// The paper's reduced-scale TLC configuration (Sec 6.1 footnote 10):
    /// 8 channels × (4 ways × 2 dies × 2 planes), 32 pages per 16 KB-page
    /// block, Gaussian P/E limits N(5578, 826.9²), 1 k-entry SRTs, 7 %
    /// reservation.
    #[must_use]
    pub fn paper_tlc() -> Self {
        EnduranceConfig {
            channels: 8,
            subs_per_channel: 16,
            superblocks: 256,
            pages_per_block: 32,
            page_bytes: 16384,
            pe_mean: 5578.0,
            pe_sigma: 826.9,
            srt_entries: 1024,
            rbt_entries: 1 << 20,
            reserved_fraction: 0.07,
            stop_bad_fraction: 0.5,
            was_estimation_sigma: 0.0,
            journal: None,
            mean_fills_between_power_loss: 0.0,
            seed: 0xE2D,
        }
    }

    /// A small configuration for fast tests.
    #[must_use]
    pub fn test_small() -> Self {
        EnduranceConfig {
            superblocks: 64,
            subs_per_channel: 4,
            pe_mean: 200.0,
            pe_sigma: 30.0,
            ..Self::paper_tlc()
        }
    }

    /// Checks that an [`EnduranceSim`] can be built from this
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the first degenerate knob:
    /// an empty geometry, fewer than two superblocks, a reservation
    /// outside `[0, 1)`, an SRT without entries, a P/E limit mean that is
    /// not a finite positive number or a standard deviation that is not a
    /// finite non-negative one, or a power-loss fill mean that is NaN,
    /// negative, or set without the journal model.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.subs_per_channel == 0 {
            return Err("geometry has an empty dimension".into());
        }
        if self.superblocks < 2 {
            return Err(format!("{} superblocks is too few (need at least 2)", self.superblocks));
        }
        if !(0.0..1.0).contains(&self.reserved_fraction) {
            return Err(format!("reserved fraction {} must be in [0, 1)", self.reserved_fraction));
        }
        if self.srt_entries == 0 {
            return Err("SRT needs at least one entry".into());
        }
        let (mean, sigma) = (self.pe_mean, self.pe_sigma);
        if !(mean.is_finite() && mean > 0.0 && sigma.is_finite() && sigma >= 0.0) {
            return Err(format!("P/E limit distribution N({mean}, {sigma}^2) is degenerate"));
        }
        let fills = self.mean_fills_between_power_loss;
        if fills.is_nan() || fills < 0.0 {
            return Err(format!("power-loss fill mean {fills} must be >= 0"));
        }
        if fills > 0.0 && self.journal.is_none() {
            return Err("power-loss injection requires the journal model".into());
        }
        Ok(())
    }

    fn blocks_per_channel(&self) -> usize {
        self.subs_per_channel * self.superblocks
    }

    fn superblock_bytes(&self) -> u64 {
        self.channels as u64
            * self.subs_per_channel as u64
            * self.pages_per_block as u64
            * self.page_bytes as u64
    }
}

/// One injected power loss during an endurance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerLossPoint {
    /// Superblock fills completed when the loss struck.
    pub fills: u64,
    /// Journal pages the mount had to replay (flushed since the last
    /// durable checkpoint).
    pub journal_pages_replayed: u64,
}

/// The outcome of one endurance run.
#[derive(Debug, Clone)]
pub struct EnduranceReport {
    /// The policy that produced this report.
    pub policy: SuperblockPolicy,
    /// `(bytes written, visible bad superblocks)` at each visible death —
    /// the Fig 14a curve.
    pub curve: Vec<(u64, u32)>,
    /// Total bytes written before the stop condition.
    pub total_written: u64,
    /// `(remap event index, total active SRT entries)` after each
    /// remapping — the Fig 16b curve.
    pub remap_curve: Vec<(u64, usize)>,
    /// Total remapping events.
    pub remap_events: u64,
    /// Superblocks visible to the FTL at the start.
    pub initial_visible: u32,
    /// Superblock fills performed.
    pub fills: u64,
    /// Injected power losses, in order (empty when injection is off).
    pub power_loss_points: Vec<PowerLossPoint>,
    /// Mapping-journal pages flushed ([`EnduranceConfig::journal`]).
    pub journal_pages: u64,
    /// Flash pages consumed by L2P checkpoints (including the one each
    /// post-loss mount takes).
    pub checkpoint_pages: u64,
}

impl EnduranceReport {
    /// Bytes written before the first visible bad superblock.
    #[must_use]
    pub fn first_bad_bytes(&self) -> Option<u64> {
        self.curve.first().map(|&(b, _)| b)
    }

    /// Bytes written when the visible bad count first reached
    /// `fraction` of the initially visible superblocks — the lifetime
    /// definition of Sec 6.4 ("when a certain fraction of the blocks
    /// become bad-blocks"). `None` if the run stopped earlier.
    #[must_use]
    pub fn written_at_bad_fraction(&self, fraction: f64) -> Option<u64> {
        let threshold = (self.initial_visible as f64 * fraction).ceil() as u32;
        self.curve
            .iter()
            .find(|&&(_, bad)| bad >= threshold.max(1))
            .map(|&(b, _)| b)
    }

    /// Final visible-bad superblock count.
    #[must_use]
    pub fn bad_superblocks(&self) -> u32 {
        self.curve.last().map_or(0, |&(_, bad)| bad)
    }
}

/// Per-fill metadata accounting: journal flushes on the FTL durability
/// model's page-packing rule, checkpoints on its data-page cadence, and
/// power-loss injection from the dedicated `seed ^ 0x504C` stream.
#[derive(Debug)]
struct MetaPump {
    journal: Option<MetaConfig>,
    /// Mapping ops appended per fill (one per constituent block).
    entries_per_fill: u64,
    /// Data-page programs per fill (drives the checkpoint cadence).
    data_pages_per_fill: u64,
    /// Flash pages one superblock-mapping checkpoint occupies.
    ckpt_pages: u64,
    pending_entries: u64,
    pages_since_ckpt: u64,
    /// Journal pages flushed since the last checkpoint — what a mount
    /// right now would replay.
    unreplayed_pages: u64,
    loss_rng: Option<Rng>,
    mean_fills: f64,
    next_loss_at_fill: u64,
}

impl MetaPump {
    fn new(cfg: &EnduranceConfig) -> MetaPump {
        let blocks = (cfg.channels * cfg.subs_per_channel) as u64;
        let ckpt_pages = cfg.journal.map_or(0, |j| {
            (cfg.superblocks as u64 * CHECKPOINT_ENTRY_BYTES).div_ceil(u64::from(j.page_bytes))
        });
        let mut pump = MetaPump {
            journal: cfg.journal,
            entries_per_fill: blocks,
            data_pages_per_fill: blocks * u64::from(cfg.pages_per_block),
            ckpt_pages,
            pending_entries: 0,
            pages_since_ckpt: 0,
            unreplayed_pages: 0,
            loss_rng: None,
            mean_fills: cfg.mean_fills_between_power_loss,
            next_loss_at_fill: 0,
        };
        if cfg.mean_fills_between_power_loss > 0.0 {
            pump.loss_rng = Some(Rng::new(cfg.seed ^ 0x504C));
            pump.schedule_loss(0);
        }
        pump
    }

    fn schedule_loss(&mut self, fills: u64) {
        let rng = self.loss_rng.as_mut().expect("loss stream armed");
        let gap = rng.exponential(self.mean_fills).round().max(1.0) as u64;
        self.next_loss_at_fill = fills + gap;
    }

    /// Accounts one completed fill (`report.fills`/`total_written`
    /// already bumped by the caller).
    fn on_fill(&mut self, report: &mut EnduranceReport) {
        let Some(j) = self.journal else { return };
        self.pending_entries += self.entries_per_fill;
        let per_page = u64::from(j.journal_entries_per_page);
        let pages = self.pending_entries / per_page;
        self.pending_entries %= per_page;
        report.journal_pages += pages;
        self.unreplayed_pages += pages;
        if j.checkpoint_interval_pages > 0 {
            self.pages_since_ckpt += self.data_pages_per_fill;
            if self.pages_since_ckpt >= j.checkpoint_interval_pages {
                self.pages_since_ckpt = 0;
                report.checkpoint_pages += self.ckpt_pages;
                self.unreplayed_pages = 0;
            }
        }
        if self.loss_rng.is_some() && report.fills >= self.next_loss_at_fill {
            report.power_loss_points.push(PowerLossPoint {
                fills: report.fills,
                journal_pages_replayed: self.unreplayed_pages,
            });
            // The mount re-checkpoints, emptying the replay window.
            report.checkpoint_pages += self.ckpt_pages;
            self.unreplayed_pages = 0;
            self.pages_since_ckpt = 0;
            self.schedule_loss(report.fills);
        }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    /// The FTL-visible (static) block backing this slot.
    static_id: BlockId,
    /// The block physically backing it now (differs once remapped).
    current: BlockId,
}

/// The endurance simulator.
///
/// # Example
///
/// ```
/// use dssd_reliability::{EnduranceConfig, EnduranceSim, SuperblockPolicy};
///
/// let cfg = EnduranceConfig::test_small();
/// let base = EnduranceSim::new(cfg).run(SuperblockPolicy::Baseline);
/// let rec = EnduranceSim::new(cfg).run(SuperblockPolicy::Recycled);
/// // Recycling sacrifices the first superblock but outlives the baseline.
/// assert_eq!(base.first_bad_bytes(), rec.first_bad_bytes());
/// assert!(rec.total_written >= base.total_written);
/// ```
#[derive(Debug)]
pub struct EnduranceSim {
    config: EnduranceConfig,
    wear: WearModel,
}

impl EnduranceSim {
    /// Builds a simulator, drawing every block's P/E limit.
    ///
    /// # Panics
    ///
    /// Panics if [`EnduranceConfig::validate`] rejects the configuration.
    #[must_use]
    pub fn new(config: EnduranceConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid endurance config: {e}");
        }
        let mut rng = Rng::new(config.seed);
        let blocks = config.channels * config.blocks_per_channel();
        let wear = WearModel::with_block_count(blocks, config.pe_mean, config.pe_sigma, &mut rng);
        EnduranceSim { config, wear }
    }

    /// Runs the write-stream-until-worn-out experiment under `policy`.
    pub fn run(mut self, policy: SuperblockPolicy) -> EnduranceReport {
        match policy {
            SuperblockPolicy::WearAware => self.run_wear_aware(),
            _ => self.run_static(policy),
        }
    }

    fn block_id(&self, channel: usize, local: usize) -> BlockId {
        (channel * self.config.blocks_per_channel() + local) as BlockId
    }

    fn run_static(&mut self, policy: SuperblockPolicy) -> EnduranceReport {
        let cfg = self.config;
        let subs = cfg.subs_per_channel;

        // Reservation: the last `n_reserved` superblocks are invisible and
        // their blocks seed the RBTs.
        let n_reserved = if policy == SuperblockPolicy::Reserved {
            ((cfg.superblocks as f64 * cfg.reserved_fraction).round() as usize)
                .min(cfg.superblocks - 2)
        } else {
            0
        };
        let visible = cfg.superblocks - n_reserved;

        let mut rbt: Vec<RecycleBlockTable<BlockId>> = (0..cfg.channels)
            .map(|_| RecycleBlockTable::new(cfg.rbt_entries))
            .collect();
        if n_reserved > 0 {
            for sb in visible..cfg.superblocks {
                for (c, table) in rbt.iter_mut().enumerate() {
                    for k in 0..subs {
                        let _ = table.deposit(self.block_id(c, sb * subs + k));
                    }
                }
            }
        }
        let mut srt: Vec<SuperblockRemapTable<BlockId>> = (0..cfg.channels)
            .map(|_| SuperblockRemapTable::new(cfg.srt_entries))
            .collect();

        // Superblock slot tables (static layout).
        let mut slots: Vec<Vec<Slot>> = (0..visible)
            .map(|sb| {
                (0..cfg.channels)
                    .flat_map(|c| {
                        (0..subs).map(move |k| (c, sb * subs + k))
                    })
                    .map(|(c, local)| {
                        let id = self.block_id(c, local);
                        Slot { static_id: id, current: id }
                    })
                    .collect()
            })
            .collect();
        let mut alive: Vec<u32> = (0..visible as u32).collect();

        let mut report = EnduranceReport {
            policy,
            curve: Vec::new(),
            total_written: 0,
            remap_curve: Vec::new(),
            remap_events: 0,
            initial_visible: visible as u32,
            fills: 0,
            power_loss_points: Vec::new(),
            journal_pages: 0,
            checkpoint_pages: 0,
        };
        let mut pump = MetaPump::new(&cfg);
        let stop_bad = ((visible as f64 * cfg.stop_bad_fraction).ceil() as u32).max(1);
        let sb_bytes = cfg.superblock_bytes();
        let recycling = policy != SuperblockPolicy::Baseline;

        let mut rr = 0usize;
        let mut bad = 0u32;
        'outer: while bad < stop_bad && alive.len() >= 2 {
            rr = (rr + 1) % alive.len();
            let sb = alive[rr] as usize;
            report.fills += 1;
            report.total_written += sb_bytes;
            pump.on_fill(&mut report);

            // One P/E cycle per constituent block.
            let mut worn: Vec<usize> = Vec::new();
            for (i, slot) in slots[sb].iter().enumerate() {
                if self.wear.erase(slot.current as usize) == EraseOutcome::WornOut {
                    worn.push(i);
                }
            }
            if worn.is_empty() {
                continue;
            }

            // Try to keep the superblock alive by remapping each worn
            // slot to a recycled block.
            let mut dead = !recycling;
            if recycling {
                for &i in &worn {
                    let channel = i / subs;
                    let taken = Self::take_recycled(&mut rbt, channel);
                    let Some(replacement) = taken else {
                        dead = true;
                        break;
                    };
                    let slot = &mut slots[sb][i];
                    if srt[channel].insert(slot.static_id, replacement).is_err() {
                        // SRT full: the remap cannot be recorded; the
                        // replacement goes back to the bin and the
                        // superblock dies.
                        let _ = rbt[channel].deposit(replacement);
                        dead = true;
                        break;
                    }
                    slot.current = replacement;
                    report.remap_events += 1;
                    let active: usize = srt.iter().map(|t| t.active_entries()).sum();
                    report.remap_curve.push((report.remap_events, active));
                }
            }

            if dead {
                bad += 1;
                report.curve.push((report.total_written, bad));
                // Retire: still-good blocks are recycled (dSSD policies
                // only), SRT entries for this superblock are freed.
                let retired = slots[sb].clone();
                for (i, slot) in retired.iter().enumerate() {
                    let channel = i / subs;
                    if recycling {
                        srt[channel].remove(slot.static_id);
                        if !self.wear.is_worn_out(slot.current as usize) {
                            let _ = rbt[channel].deposit(slot.current);
                        }
                    }
                }
                alive.swap_remove(rr);
                if rr == alive.len() && rr > 0 {
                    rr -= 1;
                }
                if alive.len() < 2 {
                    break 'outer;
                }
            }
        }
        report
    }

    /// Prefer the failing channel's own bin; fall back to any channel
    /// (global copyback makes cross-channel recycled blocks reachable,
    /// at the performance cost studied in Fig 15).
    fn take_recycled(
        rbt: &mut [RecycleBlockTable<BlockId>],
        channel: usize,
    ) -> Option<BlockId> {
        if let Some(b) = rbt[channel].take() {
            return Some(b);
        }
        for (c, table) in rbt.iter_mut().enumerate() {
            if c != channel {
                if let Some(b) = table.take() {
                    return Some(b);
                }
            }
        }
        None
    }

    fn run_wear_aware(&mut self) -> EnduranceReport {
        let cfg = self.config;
        let subs = cfg.subs_per_channel;
        let mut est_rng = Rng::new(cfg.seed ^ 0x3A5);
        let estimate = move |rng: &mut Rng, remaining: u32| -> u32 {
            if cfg.was_estimation_sigma <= 0.0 {
                return remaining;
            }
            (remaining as f64 + rng.gaussian(0.0, cfg.was_estimation_sigma))
                .max(0.0)
                .round() as u32
        };
        // Per-channel max-heaps keyed by (estimated) remaining endurance:
        // every fill uses each channel's `subs` healthiest-looking blocks.
        // With zero estimation error this is the oracle WAS the paper
        // effectively grants the software approach.
        let mut pools: Vec<BinaryHeap<(u32, Reverse<BlockId>)>> = (0..cfg.channels)
            .map(|c| {
                (0..cfg.blocks_per_channel())
                    .map(|local| {
                        let id = self.block_id(c, local);
                        let est = estimate(&mut est_rng, self.wear.remaining(id as usize));
                        (est, Reverse(id))
                    })
                    .collect()
            })
            .collect();

        let mut report = EnduranceReport {
            policy: SuperblockPolicy::WearAware,
            curve: Vec::new(),
            total_written: 0,
            remap_curve: Vec::new(),
            remap_events: 0,
            initial_visible: cfg.superblocks as u32,
            fills: 0,
            power_loss_points: Vec::new(),
            journal_pages: 0,
            checkpoint_pages: 0,
        };
        let mut pump = MetaPump::new(&cfg);
        let sb_bytes = cfg.superblock_bytes();
        let formable = |pools: &[BinaryHeap<(u32, Reverse<BlockId>)>]| {
            pools.iter().map(|p| p.len() / subs).min().unwrap_or(0) as u32
        };
        let initial_formable = formable(&pools);
        let stop_bad =
            ((initial_formable as f64 * cfg.stop_bad_fraction).ceil() as u32).max(1);
        let mut last_bad = 0u32;

        loop {
            let bad = initial_formable - formable(&pools);
            if bad > last_bad {
                report.curve.push((report.total_written, bad));
                last_bad = bad;
            }
            if bad >= stop_bad || formable(&pools) == 0 {
                break;
            }
            report.fills += 1;
            report.total_written += sb_bytes;
            pump.on_fill(&mut report);
            for pool in &mut pools {
                let mut used = Vec::with_capacity(subs);
                for _ in 0..subs {
                    let (_, Reverse(id)) = pool.pop().expect("formable() guaranteed blocks");
                    used.push(id);
                }
                for id in used {
                    if self.wear.erase(id as usize) == EraseOutcome::Healthy {
                        let est = estimate(&mut est_rng, self.wear.remaining(id as usize));
                        pool.push((est, Reverse(id)));
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EnduranceConfig {
        EnduranceConfig::test_small()
    }

    fn run(policy: SuperblockPolicy) -> EnduranceReport {
        EnduranceSim::new(cfg()).run(policy)
    }

    #[test]
    fn first_bad_equal_baseline_and_recycled() {
        // Sec 5.3: "dynamic superblock does not delay the occurrence of
        // the first bad superblock since a bad superblock is necessary to
        // create an initial set of recycled blocks".
        let base = run(SuperblockPolicy::Baseline);
        let rec = run(SuperblockPolicy::Recycled);
        assert_eq!(base.first_bad_bytes(), rec.first_bad_bytes());
    }

    #[test]
    fn reserved_delays_first_bad() {
        let rec = run(SuperblockPolicy::Recycled);
        let res = run(SuperblockPolicy::Reserved);
        let (a, b) = (rec.first_bad_bytes().unwrap(), res.first_bad_bytes().unwrap());
        assert!(
            b as f64 > a as f64 * 1.2,
            "RESERV first bad {b} must be well past RECYCLED {a}"
        );
    }

    #[test]
    fn endurance_ordering_matches_paper() {
        // Fig 14a/b: WAS >= RESERV >= RECYCLED > BASELINE, measured at a
        // small bad-superblock count — the paper notes "the benefits of
        // RESERV decreases as the number of bad superblock increases",
        // so the ordering is asserted early in the curve.
        let base = run(SuperblockPolicy::Baseline);
        let rec = run(SuperblockPolicy::Recycled);
        let res = run(SuperblockPolicy::Reserved);
        let was = run(SuperblockPolicy::WearAware);
        let at = |r: &EnduranceReport| {
            r.written_at_bad_fraction(0.05)
                .unwrap_or(r.total_written)
        };
        assert!(at(&rec) > at(&base), "RECYCLED {} vs BASELINE {}", at(&rec), at(&base));
        assert!(at(&res) >= at(&rec), "RESERV {} vs RECYCLED {}", at(&res), at(&rec));
        assert!(at(&was) >= at(&res), "WAS {} vs RESERV {}", at(&was), at(&res));
    }

    #[test]
    fn benefit_grows_with_variation() {
        // Fig 14b: the benefit of RECYCLED over BASELINE grows with the
        // block-wear sigma.
        let gain_at = |sigma: f64| {
            let c = EnduranceConfig { pe_sigma: sigma, ..cfg() };
            let base = EnduranceSim::new(c).run(SuperblockPolicy::Baseline);
            let rec = EnduranceSim::new(c).run(SuperblockPolicy::Recycled);
            let at = |r: &EnduranceReport| {
                r.written_at_bad_fraction(0.1).unwrap_or(r.total_written) as f64
            };
            at(&rec) / at(&base)
        };
        let low = gain_at(5.0);
        let high = gain_at(60.0);
        assert!(
            high > low,
            "gain must grow with sigma: {low} at sigma=5, {high} at sigma=60"
        );
    }

    #[test]
    fn tiny_srt_limits_endurance() {
        // Fig 16a: more SRT entries -> higher endurance, saturating.
        let with_srt = |entries: usize| {
            let c = EnduranceConfig { srt_entries: entries, ..cfg() };
            EnduranceSim::new(c).run(SuperblockPolicy::Recycled).total_written
        };
        let tiny = with_srt(1);
        let small = with_srt(16);
        let large = with_srt(1 << 20);
        assert!(small > tiny, "16-entry SRT {small} vs 1-entry {tiny}");
        assert!(large >= small);
    }

    #[test]
    fn active_srt_entries_grow_then_saturate() {
        // Fig 16b: active entries increase with remap events and stop
        // growing once no static superblock remains unremapped.
        let c = EnduranceConfig { srt_entries: 1 << 20, ..cfg() };
        let r = EnduranceSim::new(c).run(SuperblockPolicy::Recycled);
        assert!(r.remap_events > 0);
        let active: Vec<usize> = r.remap_curve.iter().map(|&(_, a)| a).collect();
        // Monotone non-decreasing until retirements free entries; peak
        // bounded by total sub-block slots.
        let peak = *active.iter().max().unwrap();
        assert!(peak <= cfg().channels * cfg().subs_per_channel * cfg().superblocks);
        assert!(active[0] <= peak);
    }

    #[test]
    fn reserved_has_more_active_entries() {
        let c = EnduranceConfig { srt_entries: 1 << 20, ..cfg() };
        let rec = EnduranceSim::new(c).run(SuperblockPolicy::Recycled);
        let res = EnduranceSim::new(c).run(SuperblockPolicy::Reserved);
        let peak = |r: &EnduranceReport| {
            r.remap_curve.iter().map(|&(_, a)| a).max().unwrap_or(0)
        };
        assert!(
            peak(&res) >= peak(&rec),
            "RESERV peak {} vs RECYCLED {}",
            peak(&res),
            peak(&rec)
        );
    }

    #[test]
    fn curves_are_monotone() {
        for policy in SuperblockPolicy::all() {
            let r = run(policy);
            for w in r.curve.windows(2) {
                assert!(w[0].0 <= w[1].0, "{policy:?} bytes must not decrease");
                assert!(w[0].1 <= w[1].1, "{policy:?} bad count must not decrease");
            }
        }
    }

    #[test]
    fn deterministic() {
        let a = run(SuperblockPolicy::Reserved);
        let b = run(SuperblockPolicy::Reserved);
        assert_eq!(a.total_written, b.total_written);
        assert_eq!(a.curve, b.curve);
    }

    #[test]
    fn report_helpers() {
        let r = run(SuperblockPolicy::Baseline);
        assert!(r.first_bad_bytes().is_some());
        assert!(r.bad_superblocks() > 0);
        assert!(r.written_at_bad_fraction(0.05).is_some());
        assert!(r.fills > 0);
        assert_eq!(r.initial_visible, 64);
    }

    #[test]
    fn was_estimation_noise_erodes_its_advantage() {
        let at = |sigma: f64| {
            let c = EnduranceConfig { was_estimation_sigma: sigma, ..cfg() };
            let r = EnduranceSim::new(c).run(SuperblockPolicy::WearAware);
            r.written_at_bad_fraction(0.05).unwrap_or(r.total_written)
        };
        let oracle = at(0.0);
        let noisy = at(500.0); // noise far beyond the wear spread
        assert!(
            oracle > noisy,
            "oracle WAS {oracle} must beat noisy WAS {noisy}"
        );
    }

    fn journaled() -> EnduranceConfig {
        EnduranceConfig {
            journal: Some(MetaConfig {
                journal_entries_per_page: 64,
                checkpoint_interval_pages: 1 << 16,
                page_bytes: 16384,
            }),
            mean_fills_between_power_loss: 200.0,
            ..cfg()
        }
    }

    #[test]
    fn power_loss_points_are_recorded_and_deterministic() {
        let a = EnduranceSim::new(journaled()).run(SuperblockPolicy::Recycled);
        let b = EnduranceSim::new(journaled()).run(SuperblockPolicy::Recycled);
        assert!(!a.power_loss_points.is_empty());
        assert_eq!(a.power_loss_points, b.power_loss_points);
        assert!(a.journal_pages > 0);
        assert!(a.checkpoint_pages > 0);
        for w in a.power_loss_points.windows(2) {
            assert!(w[0].fills < w[1].fills, "losses must strictly advance");
        }
    }

    #[test]
    fn power_loss_injection_leaves_the_endurance_curve_untouched() {
        // The loss stream is dedicated (`seed ^ 0x504C`), so injection
        // must not perturb wear evolution.
        let plain = EnduranceSim::new(cfg()).run(SuperblockPolicy::Recycled);
        let inj = EnduranceSim::new(journaled()).run(SuperblockPolicy::Recycled);
        assert_eq!(plain.curve, inj.curve);
        assert_eq!(plain.total_written, inj.total_written);
    }

    #[test]
    fn journal_traffic_scales_with_fills() {
        let r = EnduranceSim::new(journaled()).run(SuperblockPolicy::Baseline);
        // One op per constituent block per fill, 64 ops per page.
        let c = cfg();
        let expected =
            r.fills * (c.channels * c.subs_per_channel) as u64 / 64;
        assert!(r.journal_pages >= expected.saturating_sub(1));
        assert!(r.journal_pages <= expected + 1);
    }

    #[test]
    fn no_journal_means_no_metadata_traffic() {
        let r = run(SuperblockPolicy::Recycled);
        assert_eq!(r.journal_pages, 0);
        assert_eq!(r.checkpoint_pages, 0);
        assert!(r.power_loss_points.is_empty());
    }

    #[test]
    #[should_panic(expected = "power-loss injection requires the journal model")]
    fn loss_without_journal_panics() {
        let c = EnduranceConfig { mean_fills_between_power_loss: 10.0, ..cfg() };
        let _ = EnduranceSim::new(c).run(SuperblockPolicy::Baseline);
    }

    #[test]
    fn reserved_sees_fewer_visible_superblocks() {
        let res = run(SuperblockPolicy::Reserved);
        assert!(res.initial_visible < 64);
        assert_eq!(res.initial_visible, 64 - (64.0f64 * 0.07).round() as u32);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert_eq!(cfg().validate(), Ok(()));
        let bad = [
            (EnduranceConfig { superblocks: 1, ..cfg() }, "too few"),
            (EnduranceConfig { channels: 0, ..cfg() }, "empty dimension"),
            (EnduranceConfig { reserved_fraction: 1.0, ..cfg() }, "[0, 1)"),
            (EnduranceConfig { reserved_fraction: f64::NAN, ..cfg() }, "[0, 1)"),
            (EnduranceConfig { srt_entries: 0, ..cfg() }, "SRT"),
            (EnduranceConfig { pe_mean: f64::NAN, ..cfg() }, "P/E"),
            (EnduranceConfig { pe_mean: -1.0, ..cfg() }, "P/E"),
            (EnduranceConfig { pe_mean: f64::INFINITY, ..cfg() }, "P/E"),
            (EnduranceConfig { pe_sigma: f64::INFINITY, ..cfg() }, "P/E"),
            (EnduranceConfig { pe_sigma: -0.5, ..cfg() }, "P/E"),
            (EnduranceConfig { mean_fills_between_power_loss: f64::NAN, ..cfg() }, "fill mean"),
            (EnduranceConfig { mean_fills_between_power_loss: -1.0, ..cfg() }, "fill mean"),
        ];
        for (c, why) in bad {
            let e = c.validate().unwrap_err();
            assert!(e.contains(why), "{e}");
        }
    }
}
