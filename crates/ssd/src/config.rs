//! SSD configuration: Table 1 parameters and the Table 2 architectures.

use crate::faults::FaultConfig;
use dssd_ctrl::EccConfig;
use dssd_flash::{FlashGeometry, FlashTiming};
use dssd_ftl::FtlConfig;
use dssd_kernel::{SimSpan, SimTime};
use dssd_noc::{NocConfig, TopologyKind};

/// The five architectural configurations compared in the paper (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Conventional SSD with parallel GC (PaGC).
    Baseline,
    /// `BW`: Baseline with the extra on-chip bandwidth given to the
    /// system bus.
    ExtraBandwidth,
    /// `dSSD`: decoupled controllers; copybacks cross the (widened,
    /// shared) system bus once, controller-to-controller.
    Dssd,
    /// `dSSD_b`: decoupled controllers with a separate dedicated bus
    /// interconnecting the flash controllers.
    DssdBus,
    /// `dSSD_f`: decoupled controllers interconnected by the fNoC.
    DssdFnoc,
}

impl Architecture {
    /// The label used in the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Architecture::Baseline => "Baseline",
            Architecture::ExtraBandwidth => "BW",
            Architecture::Dssd => "dSSD",
            Architecture::DssdBus => "dSSD_b",
            Architecture::DssdFnoc => "dSSD_f",
        }
    }

    /// All five, in the paper's presentation order.
    #[must_use]
    pub fn all() -> [Architecture; 5] {
        [
            Architecture::Baseline,
            Architecture::ExtraBandwidth,
            Architecture::Dssd,
            Architecture::DssdBus,
            Architecture::DssdFnoc,
        ]
    }

    /// True for the three decoupled-controller variants.
    #[must_use]
    pub fn is_decoupled(self) -> bool {
        matches!(
            self,
            Architecture::Dssd | Architecture::DssdBus | Architecture::DssdFnoc
        )
    }
}

/// Online dynamic-superblock management (Sec 5) inside the event
/// simulator: every erase charges accelerated wear to the victim's
/// sub-blocks; a worn sub-block either kills its superblock (conventional
/// bad-superblock management) or — on the decoupled architectures — is
/// silently replaced by a recycled block through the controller's
/// SRT/RBT, with the replacement's channel/die conflicts visible in the
/// timing (the same mechanism Fig 15a measures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicSbConfig {
    /// SRT capacity per controller.
    pub srt_entries: usize,
    /// Fraction of superblocks provisioned as reserved recycled blocks
    /// (0.0 = plain RECYCLED behaviour).
    pub reserved_fraction: f64,
    /// Mean block P/E limit.
    pub pe_mean: f64,
    /// P/E limit standard deviation.
    pub pe_sigma: f64,
    /// P/E cycles charged per physical erase — an accelerated-aging
    /// knob so wear-out events occur within millisecond-scale windows.
    pub wear_acceleration: u32,
}

impl Default for DynamicSbConfig {
    fn default() -> Self {
        DynamicSbConfig {
            srt_entries: 1024,
            reserved_fraction: 0.0,
            pe_mean: 5578.0,
            pe_sigma: 826.9,
            wear_acceleration: 1,
        }
    }
}

/// Periodic WAS endurance-scan traffic (the Fig 14c overhead model):
/// every `interval`, one page read per tracked block is pushed through
/// the normal read path, contending with host I/O on the system bus and
/// DRAM exactly as the software approach must.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WasScanConfig {
    /// Blocks whose RBER state is refreshed per pass.
    pub tracked_blocks: u64,
    /// Time between passes.
    pub interval: SimSpan,
}

/// FTL metadata durability model knobs (crash consistency; see
/// `dssd_ftl::meta`). Off by default: without it the mapping lives in
/// (free) simulated DRAM and no journal/checkpoint traffic is charged,
/// keeping runs bit-identical to the pre-durability simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Mapping-journal entries per flash journal page; the volatile
    /// journal buffer flushes (one charged page program) when it fills.
    pub journal_entries_per_page: u32,
    /// Data-page programs between full L2P checkpoint flushes
    /// (0 = only the mount baseline).
    pub checkpoint_interval_pages: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            journal_entries_per_page: 256,
            checkpoint_interval_pages: 0,
        }
    }
}

/// Deterministic power-loss injection. All knobs zero ([`PowerLossConfig
/// ::none()`]) means power never fails and no RNG stream is constructed,
/// so runs stay bit-identical to the pre-power-loss simulator.
///
/// Stream discipline matches the fault injector: the loss instant drawn
/// for `mean_time_to_loss` comes from a dedicated stream
/// (`seed ^ 0x504C`), never from the simulator's main stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLossConfig {
    /// Cut power at this exact instant (ZERO = disabled).
    pub at: SimTime,
    /// Cut power after this many delivered events (0 = disabled).
    pub at_event: u64,
    /// Draw the loss instant from an exponential with this mean
    /// (ZERO = disabled).
    pub mean_time_to_loss: SimSpan,
}

impl PowerLossConfig {
    /// Power never fails.
    #[must_use]
    pub fn none() -> Self {
        PowerLossConfig {
            at: SimTime::ZERO,
            at_event: 0,
            mean_time_to_loss: SimSpan::ZERO,
        }
    }

    /// True if any injection mode is armed.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.at > SimTime::ZERO || self.at_event > 0 || !self.mean_time_to_loss.is_zero()
    }
}

/// Full simulator configuration.
///
/// Presets encode Table 1; the `scaled_*` variants shrink per-plane block
/// count so GC-heavy experiments run in seconds (the paper itself
/// simplifies the SSD size for the superblock evaluation, footnote 10 —
/// we document the same trick here for the performance experiments; all
/// per-page timing is unchanged, so bandwidth and latency shapes are
/// preserved while total capacity shrinks).
///
/// Every field describes the device or its workload regime. The event
/// loop has no knob here: each run uses the same engine, whose reference
/// is [`SsdSim::run_events`]`(1)` stepping (the fNoC's own express path
/// sits in [`NocConfig`]).
///
/// [`SsdSim::run_events`]: crate::SsdSim::run_events
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Which Table 2 architecture to build.
    pub architecture: Architecture,
    /// Flash organization.
    pub geometry: FlashGeometry,
    /// Flash timing (ULL or TLC).
    pub timing: FlashTiming,
    /// Per-channel flash bus bandwidth (Table 1: 1 GB/s).
    pub flash_bus_bytes_per_sec: u64,
    /// Base system-bus bandwidth (Table 1: 8 GB/s, the aggregate of all
    /// flash channels).
    pub system_bus_base_bytes_per_sec: u64,
    /// DRAM bandwidth (Table 1: 8 GB/s).
    pub dram_bytes_per_sec: u64,
    /// Extra on-chip bandwidth factor for the non-baseline configs
    /// (Sec 6.1: "all of the other architecture configurations compared
    /// have 1.25× extra on-chip bandwidth").
    pub onchip_bw_factor: f64,
    /// Per-bus-transaction overhead (arbitration/burst setup for
    /// streamed host DMA).
    pub bus_overhead: SimSpan,
    /// Additional per-page management overhead for *firmware-shepherded*
    /// GC copies in the conventional architectures: the FTL issues and
    /// tracks every scattered 4 KB page individually through the system
    /// bus and DRAM (descriptor setup, completion handling, mapping
    /// update). The decoupled architectures do not pay this on the data
    /// path — copy management is offloaded to the controller hardware,
    /// which is exactly the paper's offloading argument.
    pub gc_page_overhead: SimSpan,
    /// FTL configuration.
    pub ftl: FtlConfig,
    /// ECC engine configuration.
    pub ecc: EccConfig,
    /// fNoC configuration (used by `DssdFnoc`; terminals must equal
    /// `geometry.channels`). A link bandwidth of 0 means "derive from the
    /// dedicated on-chip budget" (bisection normalization); any non-zero
    /// value is respected as-is.
    pub noc: NocConfig,
    /// Decoupled-buffer capacity per controller, in pages (the paper's
    /// two 32 KB dBUFs = 16 ULL pages).
    pub dbuf_pages: usize,
    /// Number of *active* timing-level SRT remappings to inject for the
    /// dynamic-superblock overhead experiments (Fig 15a); 0 disables.
    pub srt_active_remaps: usize,
    /// Optional periodic WAS endurance-scan traffic (Fig 14c).
    pub was_scan: Option<WasScanConfig>,
    /// Optional online dynamic-superblock management (Sec 5).
    pub dynamic_sb: Option<DynamicSbConfig>,
    /// Optional DRAM write-back buffer cache, in pages (Sec 2.1's
    /// "significant fraction of DRAM is used as a write-buffer cache").
    /// `None` disables caching: every request goes to flash (plus the
    /// workload-level `dram_hit` modeling used by the Fig 10a scenario).
    pub write_cache_pages: Option<usize>,
    /// Free-superblock level the prefill leaves behind (defaults to the
    /// GC trigger threshold, so the first write burst starts GC).
    pub prefill_target_free: usize,
    /// Fraction of logical pages trimmed by the prefill so GC has
    /// steady-state work (Sec 6.1: "some random fraction of the pages
    /// are invalidated such that garbage collection will be triggered").
    pub prefill_invalid_fraction: f64,
    /// Deterministic in-band fault injection ([`FaultConfig::none()`] by
    /// default: no faults, and the injector is never constructed).
    pub faults: FaultConfig,
    /// Optional FTL metadata durability model (`None` = mapping
    /// persistence is free, as before this model existed).
    pub durability: Option<DurabilityConfig>,
    /// Deterministic power-loss injection (requires `durability`).
    pub power_loss: PowerLossConfig,
    /// When true, a GC round is always in flight (back-to-back rounds),
    /// modeling the paper's measurement regime for Figs 2/7/8/12/13:
    /// I/O fully utilizes the SSD *while GC is performed*, so GC demand
    /// is continuous rather than space-triggered. When false, GC runs
    /// only when the free pool is below the trigger threshold.
    pub gc_continuous: bool,
    /// Random seed.
    pub seed: u64,
}

impl SsdConfig {
    fn base(architecture: Architecture, geometry: FlashGeometry, timing: FlashTiming) -> Self {
        let channels = geometry.channels as usize;
        SsdConfig {
            architecture,
            geometry,
            timing,
            flash_bus_bytes_per_sec: 1_000_000_000,
            system_bus_base_bytes_per_sec: 8_000_000_000,
            dram_bytes_per_sec: 8_000_000_000,
            onchip_bw_factor: 1.25,
            bus_overhead: SimSpan::from_ns(100),
            gc_page_overhead: SimSpan::from_ns(700),
            ftl: FtlConfig::default(),
            ecc: EccConfig::default(),
            noc: NocConfig::new(TopologyKind::Mesh1D, channels).with_link_bandwidth(0),
            dbuf_pages: 16,
            srt_active_remaps: 0,
            was_scan: None,
            dynamic_sb: None,
            write_cache_pages: None,
            prefill_target_free: FtlConfig::default().gc_threshold_free,
            prefill_invalid_fraction: 0.5,
            faults: FaultConfig::none(),
            durability: None,
            power_loss: PowerLossConfig::none(),
            gc_continuous: false,
            seed: 0x5D_D5,
        }
    }

    /// The full Table 1 ULL configuration (1 TB-class; large mapping
    /// tables — prefer [`SsdConfig::scaled_ull`] for experiments).
    #[must_use]
    pub fn table1_ull(architecture: Architecture) -> Self {
        Self::base(architecture, FlashGeometry::table1_ull(), FlashTiming::ull())
    }

    /// The Table 1 ULL configuration with per-plane blocks reduced
    /// 1384 → 48 and pages per block 384 → 96, and overprovision deepened
    /// 7 % → 20 % so the prefill can fragment the drive with a workable
    /// free pool (capacity-only scaling; per-page timing, channel counts
    /// and bus bandwidths are unchanged).
    #[must_use]
    pub fn scaled_ull(architecture: Architecture) -> Self {
        let mut geometry = FlashGeometry::table1_ull();
        geometry.blocks = 48;
        geometry.pages = 96;
        let mut c = Self::base(architecture, geometry, FlashTiming::ull());
        c.ftl.overprovision = 0.2;
        c.ftl.gc_threshold_free = 5;
        c.ftl.gc_hard_free = 2;
        c.prefill_target_free = 4;
        c
    }

    /// The Table 1 TLC configuration used for the superblock evaluation
    /// (8 channels × 4 ways × 2 dies × 2 planes, 32 pages/block, 16 KB).
    #[must_use]
    pub fn table1_tlc(architecture: Architecture) -> Self {
        let mut c = Self::base(architecture, FlashGeometry::table1_tlc(), FlashTiming::tlc());
        c.ftl.gc_threshold_free = 4;
        c.ftl.gc_hard_free = 2;
        c.prefill_target_free = 4;
        c
    }

    /// A miniature configuration for fast tests. Keeps the paper's full
    /// 8-channel × 8-way array (64 dies, ~26 GB/s of multi-plane write
    /// demand vs the 8 GB/s system bus) so bus contention — the effect
    /// under study — is present; only blocks and pages are shrunk.
    #[must_use]
    pub fn test_tiny(architecture: Architecture) -> Self {
        let mut geometry = FlashGeometry::table1_ull();
        geometry.blocks = 64;
        geometry.pages = 8;
        let mut c = Self::base(architecture, geometry, FlashTiming::ull());
        c.ftl.overprovision = 0.25;
        c.ftl.gc_threshold_free = 8;
        c.ftl.gc_hard_free = 3;
        c.prefill_target_free = 7;
        c
    }

    /// Effective system-bus bandwidth for this architecture: the baseline
    /// keeps the base bandwidth; `BW` and `dSSD` get the full widened
    /// bus; `dSSD_b`/`dSSD_f` keep the base bus and spend the extra
    /// budget on the dedicated interconnect.
    #[must_use]
    pub fn system_bus_bytes_per_sec(&self) -> u64 {
        let base = self.system_bus_base_bytes_per_sec;
        match self.architecture {
            Architecture::Baseline | Architecture::DssdBus | Architecture::DssdFnoc => base,
            Architecture::ExtraBandwidth | Architecture::Dssd => {
                (base as f64 * self.onchip_bw_factor) as u64
            }
        }
    }

    /// The extra on-chip budget spent on the dedicated interconnect:
    /// the `dSSD_b` bus bandwidth, and the `dSSD_f` bisection bandwidth.
    #[must_use]
    pub fn dedicated_budget_bytes_per_sec(&self) -> u64 {
        ((self.onchip_bw_factor - 1.0).max(0.0) * self.system_bus_base_bytes_per_sec as f64)
            as u64
    }

    /// Sets the random seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the on-chip bandwidth factor (the Fig 8 sweep).
    #[must_use]
    pub fn with_onchip_factor(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "on-chip factor below baseline");
        self.onchip_bw_factor = factor;
        self
    }

    /// Validates internal consistency, returning a description of the
    /// first problem found. [`SsdSim::new`](crate::SsdSim::new) calls
    /// this and panics with the message; call it yourself to fail softly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the configuration cannot be
    /// simulated.
    pub fn validate(&self) -> Result<(), String> {
        let g = &self.geometry;
        if g.channels == 0 || g.ways == 0 || g.dies == 0 || g.planes == 0 {
            return Err("geometry has an empty dimension".into());
        }
        if g.planes > dssd_ftl::MAX_PLANES {
            return Err(format!(
                "{} planes per die is too many (the FTL supports at most {})",
                g.planes,
                dssd_ftl::MAX_PLANES
            ));
        }
        if g.blocks < 4 {
            return Err(format!(
                "{} superblocks is too few (need >= 4: two active plus a pool)",
                g.blocks
            ));
        }
        if self.flash_bus_bytes_per_sec == 0
            || self.system_bus_base_bytes_per_sec == 0
            || self.dram_bytes_per_sec == 0
        {
            return Err("bus/DRAM bandwidth must be non-zero".into());
        }
        if !self.onchip_bw_factor.is_finite() {
            return Err(format!("on-chip bandwidth factor {} is not finite", self.onchip_bw_factor));
        }
        if self.onchip_bw_factor < 1.0 {
            return Err(format!(
                "on-chip bandwidth factor {} is below the baseline",
                self.onchip_bw_factor
            ));
        }
        if self.architecture == Architecture::DssdFnoc {
            if self.noc.terminals != g.channels as usize {
                return Err(format!(
                    "fNoC has {} terminals but the SSD has {} channels",
                    self.noc.terminals, g.channels
                ));
            }
            self.noc.validate()?;
        }
        if self.ftl.gc_hard_free > self.ftl.gc_threshold_free {
            return Err("GC hard threshold exceeds the trigger threshold".into());
        }
        if !(0.0..1.0).contains(&self.ftl.overprovision) {
            return Err("overprovision must be in [0, 1)".into());
        }
        if !(0.0..=1.0).contains(&self.prefill_invalid_fraction)
            || self.prefill_invalid_fraction >= 1.0
        {
            return Err("prefill invalid fraction must be in [0, 1)".into());
        }
        if self.dbuf_pages == 0 {
            return Err("dBUF needs at least one page".into());
        }
        // One remap slot per (superblock, die): injecting more could
        // never fill the table.
        let remap_slots = u64::from(g.blocks) * g.total_dies();
        if self.srt_active_remaps as u64 > remap_slots {
            return Err(format!(
                "{} SRT remaps exceed the remap table's {remap_slots} slots (superblocks x dies)",
                self.srt_active_remaps
            ));
        }
        if let Some(d) = self.dynamic_sb {
            let (mean, sigma) = (d.pe_mean, d.pe_sigma);
            if !(mean.is_finite() && mean > 0.0 && sigma.is_finite() && sigma >= 0.0) {
                return Err("dynamic-superblock wear distribution is degenerate".into());
            }
            if d.srt_entries == 0 {
                return Err("SRT needs at least one entry".into());
            }
        }
        if self.write_cache_pages == Some(0) {
            return Err("write cache needs capacity".into());
        }
        if let Some(e) = self.faults.validate() {
            return Err(e);
        }
        if let Some(d) = self.durability {
            if d.journal_entries_per_page == 0 {
                return Err("journal needs at least one entry per page".into());
            }
            if self.write_cache_pages.is_some() {
                return Err(
                    "durability model assumes no volatile write-back cache \
                     (acks from DRAM could never be made durable)"
                        .into(),
                );
            }
        }
        if self.power_loss.enabled() && self.durability.is_none() {
            return Err("power-loss injection requires the durability model".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = Architecture::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels, vec!["Baseline", "BW", "dSSD", "dSSD_b", "dSSD_f"]);
    }

    #[test]
    fn bandwidth_budget_split() {
        for arch in Architecture::all() {
            let c = SsdConfig::scaled_ull(arch);
            let sys = c.system_bus_bytes_per_sec();
            match arch {
                Architecture::Baseline => {
                    assert_eq!(sys, 8_000_000_000);
                }
                Architecture::ExtraBandwidth | Architecture::Dssd => {
                    assert_eq!(sys, 10_000_000_000);
                }
                Architecture::DssdBus | Architecture::DssdFnoc => {
                    assert_eq!(sys, 8_000_000_000);
                    assert_eq!(c.dedicated_budget_bytes_per_sec(), 2_000_000_000);
                }
            }
        }
    }

    #[test]
    fn table1_presets() {
        let c = SsdConfig::table1_ull(Architecture::Baseline);
        assert_eq!(c.geometry.channels, 8);
        assert_eq!(c.geometry.planes, 8);
        assert_eq!(c.flash_bus_bytes_per_sec, 1_000_000_000);
        let t = SsdConfig::table1_tlc(Architecture::Baseline);
        assert_eq!(t.geometry.page_bytes, 16384);
        assert_eq!(t.geometry.pages, 32);
    }

    #[test]
    fn scaled_preserves_timing_and_channels() {
        let full = SsdConfig::table1_ull(Architecture::DssdFnoc);
        let scaled = SsdConfig::scaled_ull(Architecture::DssdFnoc);
        assert_eq!(full.timing, scaled.timing);
        assert_eq!(full.geometry.channels, scaled.geometry.channels);
        assert_eq!(full.geometry.planes, scaled.geometry.planes);
        assert!(scaled.geometry.total_pages() < full.geometry.total_pages() / 20);
    }

    #[test]
    fn decoupled_predicate() {
        assert!(!Architecture::Baseline.is_decoupled());
        assert!(!Architecture::ExtraBandwidth.is_decoupled());
        assert!(Architecture::Dssd.is_decoupled());
        assert!(Architecture::DssdBus.is_decoupled());
        assert!(Architecture::DssdFnoc.is_decoupled());
    }

    #[test]
    fn validate_accepts_presets() {
        for arch in Architecture::all() {
            SsdConfig::test_tiny(arch).validate().unwrap();
            SsdConfig::scaled_ull(arch).validate().unwrap();
            SsdConfig::table1_tlc(arch).validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_inconsistencies() {
        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.noc.terminals = 3;
        assert!(c.validate().unwrap_err().contains("terminals"));

        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.noc.input_buffer_flits = 0;
        assert!(c.validate().unwrap_err().contains("at least one flit"));

        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.geometry.channels = 33;
        c.noc.terminals = 33;
        c.noc.topology = TopologyKind::Crossbar;
        assert!(c.validate().unwrap_err().contains("at most 32 terminals"));
        c.noc.topology = TopologyKind::Mesh1D;
        c.validate().unwrap();

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.geometry.channels = 0;
        assert!(c.validate().unwrap_err().contains("empty dimension"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.geometry.planes = dssd_ftl::MAX_PLANES + 1;
        assert!(c.validate().unwrap_err().contains("planes per die"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.ftl.gc_hard_free = 99;
        assert!(c.validate().unwrap_err().contains("threshold"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.write_cache_pages = Some(0);
        assert!(c.validate().unwrap_err().contains("cache"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.dbuf_pages = 0;
        assert!(c.validate().unwrap_err().contains("dBUF"));

        let degenerate = [(0.0, 1.0), (f64::NAN, 1.0), (f64::INFINITY, 1.0), (8.0, f64::NAN)];
        for (pe_mean, pe_sigma) in degenerate {
            let mut c = SsdConfig::test_tiny(Architecture::Dssd);
            c.dynamic_sb = Some(DynamicSbConfig { pe_mean, pe_sigma, ..Default::default() });
            assert!(c.validate().unwrap_err().contains("degenerate"), "{pe_mean} {pe_sigma}");
        }

        // test_tiny's remap table: 64 superblocks x 64 dies.
        let mut c = SsdConfig::test_tiny(Architecture::Dssd);
        c.srt_active_remaps = 4_096;
        c.validate().unwrap();
        c.srt_active_remaps = 4_097;
        assert!(c.validate().unwrap_err().contains("4096 slots"));

        for factor in [f64::NAN, f64::INFINITY] {
            let mut c = SsdConfig::test_tiny(Architecture::Dssd);
            c.onchip_bw_factor = factor;
            assert!(c.validate().unwrap_err().contains("not finite"), "{factor}");
        }

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.faults.read_hard_prob = 2.0;
        assert!(c.validate().unwrap_err().contains("fault"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.power_loss.at = SimTime::from_us(50);
        assert!(c.validate().unwrap_err().contains("durability"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.durability = Some(DurabilityConfig { journal_entries_per_page: 0, ..Default::default() });
        assert!(c.validate().unwrap_err().contains("journal"));

        let mut c = SsdConfig::test_tiny(Architecture::Baseline);
        c.durability = Some(DurabilityConfig::default());
        c.write_cache_pages = Some(64);
        assert!(c.validate().unwrap_err().contains("write-back cache"));
    }

    #[test]
    fn durability_with_power_loss_validates() {
        let mut c = SsdConfig::test_tiny(Architecture::DssdFnoc);
        c.durability = Some(DurabilityConfig::default());
        c.power_loss.mean_time_to_loss = SimSpan::from_us(500);
        c.validate().unwrap();
        assert!(c.power_loss.enabled());
        assert!(!PowerLossConfig::none().enabled());
    }

    #[test]
    #[should_panic(expected = "below baseline")]
    fn sub_unity_factor_rejected() {
        let _ = SsdConfig::scaled_ull(Architecture::Baseline).with_onchip_factor(0.5);
    }
}
