//! ECC engine model (LDPC-class).

use dssd_kernel::{BandwidthServer, SimSpan, SimTime, Transfer};

/// ECC check/correction outcome for one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccVerdict {
    /// No bit errors detected.
    Clean,
    /// Errors detected and corrected.
    Corrected,
    /// Raw bit error rate beyond the code's correction strength: the page
    /// (and, for superblock FTLs, its superblock) must be retired.
    Uncorrectable,
}

/// ECC engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EccConfig {
    /// Decode throughput in bytes/second (pipeline rate).
    pub bytes_per_sec: u64,
    /// Fixed decode latency per page (pipeline depth).
    pub latency: SimSpan,
    /// RBER below which pages are statistically error-free.
    pub clean_rber: f64,
    /// Maximum RBER the code can correct (LDPC-class ≈ 1e-2).
    pub correctable_rber: f64,
}

impl Default for EccConfig {
    fn default() -> Self {
        // An LDPC decoder comfortably outruns a 1 GB/s flash channel; the
        // fixed latency models pipeline depth.
        EccConfig {
            bytes_per_sec: 4_000_000_000,
            latency: SimSpan::from_us(2),
            clean_rber: 1e-4,
            correctable_rber: 1e-2,
        }
    }
}

/// A per-controller ECC engine: a FIFO decode pipeline plus a
/// strength-threshold error model.
///
/// In the baseline SSD the engine sits on the system-bus side; in the
/// decoupled SSD each controller integrates one so GC pages never cross
/// the bus for checking (Fig 4 step ④).
///
/// # Example
///
/// ```
/// use dssd_ctrl::{EccEngine, EccConfig, EccVerdict};
/// use dssd_kernel::SimTime;
///
/// let mut ecc = EccEngine::new(EccConfig::default());
/// let t = ecc.decode(SimTime::ZERO, 4096);
/// assert!(t.done > t.start);
/// assert_eq!(ecc.busy_total(), t.service());
/// assert_eq!(ecc.check(1e-5), EccVerdict::Clean);
/// assert_eq!(ecc.check(1e-3), EccVerdict::Corrected);
/// assert_eq!(ecc.check(5e-2), EccVerdict::Uncorrectable);
/// ```
#[derive(Debug, Clone)]
pub struct EccEngine {
    config: EccConfig,
    pipeline: BandwidthServer,
    /// Decode-pipeline busy time so far.
    busy: SimSpan,
}

impl EccEngine {
    /// Creates an idle engine.
    #[must_use]
    pub fn new(config: EccConfig) -> Self {
        EccEngine {
            pipeline: BandwidthServer::new(config.bytes_per_sec, config.latency),
            config,
            busy: SimSpan::ZERO,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EccConfig {
        &self.config
    }

    /// Queues one page of `bytes` for decoding at `now`; returns the
    /// occupancy interval (FIFO with any pages already queued).
    pub fn decode(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let t = self.pipeline.enqueue(now, bytes);
        self.busy += t.service();
        t
    }

    /// Classifies a page by its raw bit error rate.
    #[must_use]
    pub fn check(&self, rber: f64) -> EccVerdict {
        if rber >= self.config.correctable_rber {
            EccVerdict::Uncorrectable
        } else if rber >= self.config.clean_rber {
            EccVerdict::Corrected
        } else {
            EccVerdict::Clean
        }
    }

    /// Total decode-pipeline busy time.
    #[must_use]
    pub fn busy_total(&self) -> SimSpan {
        self.busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_serializes_fifo() {
        let mut e = EccEngine::new(EccConfig::default());
        let a = e.decode(SimTime::ZERO, 4096);
        let b = e.decode(SimTime::ZERO, 4096);
        assert_eq!(b.start, a.done);
        assert_eq!(e.busy_total(), a.service() + b.service());
    }

    #[test]
    fn decode_latency_includes_pipeline_depth() {
        let cfg = EccConfig { latency: SimSpan::from_us(2), ..EccConfig::default() };
        let mut e = EccEngine::new(cfg);
        let t = e.decode(SimTime::ZERO, 4096);
        let xfer = SimSpan::for_transfer(4096, cfg.bytes_per_sec);
        assert_eq!(t.service(), SimSpan::from_us(2) + xfer);
    }

    #[test]
    fn verdict_thresholds() {
        let e = EccEngine::new(EccConfig::default());
        assert_eq!(e.check(0.0), EccVerdict::Clean);
        assert_eq!(e.check(9.9e-5), EccVerdict::Clean);
        assert_eq!(e.check(1e-4), EccVerdict::Corrected);
        assert_eq!(e.check(9.9e-3), EccVerdict::Corrected);
        assert_eq!(e.check(1e-2), EccVerdict::Uncorrectable);
    }
}
