//! MSR-Cambridge-style trace synthesizers.
//!
//! The paper replays MSR Cambridge enterprise volumes (via TraceTracker
//! \[23\]): `prn_0`, `src1_2`, `usr_2`, `hm_1` and friends. Those traces
//! are not redistributable, so this module generates *statistical
//! stand-ins*: for each volume, a deterministic synthesizer parameterized
//! with the volume's published first-order characteristics — read/write
//! ratio, mean request sizes, sequentiality, and arrival intensity. The
//! dSSD evaluation uses traces as read-vs-write-intensity mixes, which
//! these stand-ins preserve (including the paper's specific callouts:
//! `prn_0`/`src1_2` are write-intensive with large writes, `hm_1`/`usr_2`
//! are read-intensive with a residual write fraction).

use dssd_kernel::{Rng, SimSpan, SimTime};

use crate::{Op, Trace, TraceRecord};

/// Statistical profile of one traced volume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeProfile {
    /// Volume name (MSR convention, e.g. `prn_0`).
    pub name: &'static str,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Mean read size in KiB.
    pub read_kib: f64,
    /// Mean write size in KiB.
    pub write_kib: f64,
    /// Probability the next request continues sequentially.
    pub sequential: f64,
    /// Mean request arrival rate (requests per second).
    pub iops: f64,
    /// Footprint in GiB (offsets are drawn from this range).
    pub footprint_gib: f64,
}

impl VolumeProfile {
    /// True if the paper's Fig 15(b) grouping would call this volume
    /// read-intensive (read ratio above one half).
    #[must_use]
    pub fn is_read_intensive(&self) -> bool {
        self.read_ratio > 0.5
    }

    /// Synthesizes `duration` of trace with deterministic randomness.
    ///
    /// Sizes are drawn from an exponential around the per-op mean
    /// (clamped to `[4 KiB, 256 KiB]` and 4 KiB-aligned), arrivals are
    /// Poisson at [`VolumeProfile::iops`], and with probability
    /// [`VolumeProfile::sequential`] a request continues where the
    /// previous one ended.
    #[must_use]
    pub fn synthesize(&self, duration: SimSpan, seed: u64) -> Trace {
        let mut rng = Rng::new(seed ^ fxhash(self.name));
        let mut records = Vec::new();
        let footprint = (self.footprint_gib * (1u64 << 30) as f64) as u64;
        let mean_gap_ns = 1e9 / self.iops;
        let mut t = 0.0f64;
        let mut next_seq_offset = 0u64;
        while {
            t += rng.exponential(mean_gap_ns);
            t < duration.as_ns() as f64
        } {
            let op = if rng.chance(self.read_ratio) { Op::Read } else { Op::Write };
            let mean_kib = match op {
                Op::Read => self.read_kib,
                Op::Write => self.write_kib,
            };
            let kib = rng.exponential(mean_kib).clamp(4.0, 256.0);
            let bytes = ((kib * 1024.0) as u64).div_ceil(4096) * 4096;
            let offset = if rng.chance(self.sequential) && next_seq_offset + bytes < footprint
            {
                next_seq_offset
            } else {
                let slots = (footprint / 4096).max(1);
                rng.range_u64(0..slots) * 4096
            };
            next_seq_offset = offset + bytes;
            records.push(TraceRecord {
                at: SimTime::from_ns(t as u64),
                op,
                offset,
                bytes,
            });
        }
        Trace::new(records)
    }
}

/// Stable tiny hash so each volume gets an independent stream per seed.
fn fxhash(s: &str) -> u64 {
    s.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
}

/// The fifteen synthesized volumes.
///
/// Parameters follow the published MSR-Cambridge per-volume
/// characterizations (read ratios and request-size scales from the
/// SNIA/ATC descriptions of the trace set); they are stand-ins, not
/// byte-exact reproductions.
pub const PROFILES: &[VolumeProfile] = &[
    VolumeProfile { name: "prn_0", read_ratio: 0.11, read_kib: 23.0, write_kib: 10.0, sequential: 0.35, iops: 3500.0, footprint_gib: 16.0 },
    VolumeProfile { name: "prn_1", read_ratio: 0.75, read_kib: 23.0, write_kib: 12.0, sequential: 0.30, iops: 3000.0, footprint_gib: 16.0 },
    VolumeProfile { name: "proj_0", read_ratio: 0.12, read_kib: 16.0, write_kib: 32.0, sequential: 0.55, iops: 4200.0, footprint_gib: 16.0 },
    VolumeProfile { name: "hm_0", read_ratio: 0.35, read_kib: 8.0, write_kib: 8.0, sequential: 0.25, iops: 3200.0, footprint_gib: 8.0 },
    VolumeProfile { name: "hm_1", read_ratio: 0.95, read_kib: 8.0, write_kib: 16.0, sequential: 0.30, iops: 2500.0, footprint_gib: 8.0 },
    VolumeProfile { name: "usr_0", read_ratio: 0.40, read_kib: 40.0, write_kib: 10.0, sequential: 0.45, iops: 2800.0, footprint_gib: 16.0 },
    VolumeProfile { name: "usr_1", read_ratio: 0.91, read_kib: 48.0, write_kib: 12.0, sequential: 0.50, iops: 2600.0, footprint_gib: 16.0 },
    VolumeProfile { name: "usr_2", read_ratio: 0.81, read_kib: 40.0, write_kib: 16.0, sequential: 0.40, iops: 2400.0, footprint_gib: 16.0 },
    VolumeProfile { name: "src1_2", read_ratio: 0.25, read_kib: 32.0, write_kib: 56.0, sequential: 0.60, iops: 3800.0, footprint_gib: 16.0 },
    VolumeProfile { name: "src2_0", read_ratio: 0.11, read_kib: 8.0, write_kib: 8.0, sequential: 0.30, iops: 3400.0, footprint_gib: 8.0 },
    VolumeProfile { name: "stg_0", read_ratio: 0.15, read_kib: 24.0, write_kib: 12.0, sequential: 0.40, iops: 3000.0, footprint_gib: 8.0 },
    VolumeProfile { name: "ts_0", read_ratio: 0.18, read_kib: 8.0, write_kib: 8.0, sequential: 0.25, iops: 3300.0, footprint_gib: 8.0 },
    VolumeProfile { name: "wdev_0", read_ratio: 0.20, read_kib: 8.0, write_kib: 8.0, sequential: 0.25, iops: 2900.0, footprint_gib: 8.0 },
    VolumeProfile { name: "web_0", read_ratio: 0.46, read_kib: 30.0, write_kib: 9.0, sequential: 0.35, iops: 3100.0, footprint_gib: 8.0 },
    VolumeProfile { name: "rsrch_0", read_ratio: 0.09, read_kib: 8.0, write_kib: 9.0, sequential: 0.25, iops: 3200.0, footprint_gib: 8.0 },
];

/// Looks up a profile by volume name.
///
/// # Example
///
/// ```
/// use dssd_workload::msr;
/// assert!(msr::profile("prn_0").is_some());
/// assert!(msr::profile("nope").is_none());
/// ```
#[must_use]
pub fn profile(name: &str) -> Option<&'static VolumeProfile> {
    PROFILES.iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_unique_profiles() {
        assert_eq!(PROFILES.len(), 15);
        let mut names: Vec<_> = PROFILES.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15);
    }

    #[test]
    fn paper_callouts_hold() {
        // prn_0 and src1_2 are write-intensive with large write I/O;
        // usr_2 and hm_1 read-intensive with "some fraction" of writes.
        assert!(!profile("prn_0").unwrap().is_read_intensive());
        assert!(!profile("src1_2").unwrap().is_read_intensive());
        assert!(profile("src1_2").unwrap().write_kib > 32.0);
        let usr2 = profile("usr_2").unwrap();
        let hm1 = profile("hm_1").unwrap();
        assert!(usr2.is_read_intensive() && usr2.read_ratio < 1.0);
        assert!(hm1.is_read_intensive() && hm1.read_ratio < 1.0);
    }

    #[test]
    fn synthesis_matches_profile_statistics() {
        let p = profile("prn_0").unwrap();
        let t = p.synthesize(SimSpan::from_ms(2000), 1);
        assert!(t.len() > 1000, "only {} records", t.len());
        assert!(
            (t.read_ratio() - p.read_ratio).abs() < 0.03,
            "read ratio {} vs {}",
            t.read_ratio(),
            p.read_ratio
        );
        let rate = t.len() as f64 / t.duration().as_secs_f64();
        assert!((rate - p.iops).abs() / p.iops < 0.1, "iops {rate}");
    }

    #[test]
    fn synthesis_is_deterministic() {
        let p = profile("usr_2").unwrap();
        let a = p.synthesize(SimSpan::from_ms(100), 7);
        let b = p.synthesize(SimSpan::from_ms(100), 7);
        assert_eq!(a, b);
        let c = p.synthesize(SimSpan::from_ms(100), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn sizes_are_aligned_and_bounded() {
        let p = profile("src1_2").unwrap();
        let t = p.synthesize(SimSpan::from_ms(200), 3);
        for r in t.records() {
            assert_eq!(r.bytes % 4096, 0);
            assert!(r.bytes >= 4096 && r.bytes <= 260 * 1024);
        }
    }

    #[test]
    fn volumes_get_distinct_streams() {
        let a = profile("hm_0").unwrap().synthesize(SimSpan::from_ms(50), 1);
        let b = profile("ts_0").unwrap().synthesize(SimSpan::from_ms(50), 1);
        assert_ne!(a, b);
    }
}
