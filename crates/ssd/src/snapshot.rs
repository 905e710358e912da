//! Snapshot/restore of a running simulation.
//!
//! A snapshot is a *replay cursor*, not a memory image: it records
//! fingerprints of the config and run plan (which binds the horizon),
//! whether the drive was prefilled, the number of events handled so far,
//! and an order-sensitive digest of the live state. Restoring rebuilds
//! the sim from the same config and plan, replays exactly `cursor`
//! events — deterministic by construction — and verifies the digest, so
//! every field is checked against the replay and a resumed run's
//! [`RunReport`](crate::RunReport) is byte-identical to the
//! uninterrupted run's. This leans on the simulator's core discipline
//! (every random draw comes from a seeded stream, every tie-break is
//! explicit) instead of serializing hundreds of fields, and the digest
//! check turns any violation of that discipline into a load-time error
//! rather than silent divergence.

use std::fmt;

use dssd_kernel::{SimSpan, SimTime};
use dssd_workload::SyntheticWorkload;

use crate::{RunState, SsdConfig, SsdSim};

/// The magic's length as a little-endian `u64`, then the magic.
const MAGIC: &[u8; 16] = b"\x08\0\0\0\0\0\0\0DSSDSNAP";
const VERSION: u32 = 2;
/// Bytes in a v2 record: magic, version, the two fingerprints, the
/// prefilled flag, cursor, instant and digest.
const LEN: usize = 16 + 4 + 8 + 8 + 1 + 8 + 8 + 8;

/// Error returned when snapshot bytes cannot be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// What went wrong.
    pub message: String,
    /// Byte offset at which decoding failed.
    pub offset: usize,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for SnapError {}

fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The run a snapshot belongs to: the closed-loop workload and the
/// horizon. The restore path re-derives both from the original
/// invocation (e.g. the same CLI flags) and the snapshot verifies them
/// by fingerprint.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The (unbound) closed-loop workload driving the run.
    pub workload: SyntheticWorkload,
    /// The run duration.
    pub duration: SimSpan,
}

impl RunPlan {
    fn fingerprint(&self) -> u64 {
        fnv(format!("{:?}|{:?}", self.workload, self.duration).as_bytes())
    }
}

fn config_fingerprint(config: &SsdConfig) -> u64 {
    fnv(format!("{config:?}").as_bytes())
}

/// A point-in-time capture of a stepped run: a replay cursor, not a
/// memory image. [`SimSnapshot::restore`] rebuilds the sim from the same
/// config and plan, replays the captured number of events and checks
/// the state digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSnapshot {
    config_fp: u64,
    plan_fp: u64,
    prefilled: bool,
    cursor: u64,
    now: SimTime,
    state_digest: u64,
}

impl SimSnapshot {
    /// Captures the state of `sim`, paused mid-run via
    /// [`SsdSim::run_until`] / [`SsdSim::run_events`], under `plan`.
    #[must_use]
    pub fn capture(sim: &SsdSim, plan: &RunPlan) -> SimSnapshot {
        SimSnapshot {
            config_fp: config_fingerprint(sim.config()),
            plan_fp: plan.fingerprint(),
            prefilled: sim.is_prefilled(),
            cursor: sim.events_handled(),
            now: sim.now(),
            state_digest: sim.state_digest(),
        }
    }

    /// Events the snapshotted run had handled.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Simulated instant of the capture.
    #[must_use]
    pub fn taken_at(&self) -> SimTime {
        self.now
    }

    /// Serializes to the fixed 61-byte snapshot record.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(LEN);
        b.extend_from_slice(MAGIC);
        b.extend_from_slice(&VERSION.to_le_bytes());
        b.extend_from_slice(&self.config_fp.to_le_bytes());
        b.extend_from_slice(&self.plan_fp.to_le_bytes());
        b.push(u8::from(self.prefilled));
        for v in [self.cursor, self.now.as_ns(), self.state_digest] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b
    }

    /// Decodes a snapshot produced by [`SimSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on a foreign magic, a version mismatch, a
    /// record of the wrong length, or a prefilled flag other than 0 or 1.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapError> {
        let err = |offset: usize, message: String| Err(SnapError { message, offset });
        if !bytes.starts_with(MAGIC) {
            return err(0, "not a dSSD snapshot".into());
        }
        if let Some(v) = bytes.get(16..20) {
            let version = u32::from_le_bytes(v.try_into().expect("a 4-byte slice"));
            if version != VERSION {
                return err(
                    16,
                    format!("snapshot format v{version}, this build reads v{VERSION}"),
                );
            }
        }
        if bytes.len() != LEN {
            let message = format!("{} bytes, a v{VERSION} snapshot has {LEN}", bytes.len());
            return err(bytes.len().min(LEN), message);
        }
        let u64_at =
            |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"));
        let prefilled = match bytes[36] {
            0 => false,
            1 => true,
            _ => return err(36, "invalid prefilled flag".into()),
        };
        Ok(SimSnapshot {
            config_fp: u64_at(20),
            plan_fp: u64_at(28),
            prefilled,
            cursor: u64_at(37),
            now: SimTime::from_ns(u64_at(45)),
            state_digest: u64_at(53),
        })
    }

    /// Rebuilds a sim in exactly the snapshotted state: constructs it
    /// from `config`, prefills if the original was prefilled, replays
    /// `cursor` events of `plan`, and verifies clock and state digest.
    /// Continue with [`SsdSim::run_events`] and [`SsdSim::finish_run`].
    ///
    /// # Errors
    ///
    /// Returns a message when `config`/`plan` differ from the capture's,
    /// or when the replay fails to reproduce the captured state.
    pub fn restore(&self, config: SsdConfig, plan: &RunPlan) -> Result<SsdSim, String> {
        if config_fingerprint(&config) != self.config_fp {
            return Err("snapshot was taken under a different config".into());
        }
        if plan.fingerprint() != self.plan_fp {
            return Err("snapshot was taken under a different run plan".into());
        }
        let mut sim = SsdSim::new(config);
        if self.prefilled {
            sim.prefill();
        }
        sim.begin_closed_loop(plan.workload.clone(), plan.duration);
        if sim.run_events(self.cursor) == RunState::Halted {
            return Err("replay hit injected power loss before the cursor".into());
        }
        if sim.events_handled() != self.cursor {
            return Err(format!(
                "replay ended after {} events; the snapshot recorded {}",
                sim.events_handled(),
                self.cursor
            ));
        }
        if sim.now() != self.now || sim.state_digest() != self.state_digest {
            return Err("replay diverged from the snapshotted state \
                        (non-deterministic build or corrupted snapshot)"
                .into());
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;
    use dssd_workload::AccessPattern;

    fn plan() -> RunPlan {
        RunPlan {
            workload: SyntheticWorkload::writes(AccessPattern::Random, 8),
            duration: SimSpan::from_ms(5),
        }
    }

    fn config() -> SsdConfig {
        SsdConfig::test_tiny(Architecture::DssdFnoc)
    }

    fn paused_sim() -> SsdSim {
        let mut sim = SsdSim::new(config());
        sim.prefill();
        let p = plan();
        sim.begin_closed_loop(p.workload, p.duration);
        sim.run_events(2_000);
        sim
    }

    #[test]
    fn snapshot_roundtrips_through_bytes() {
        let sim = paused_sim();
        let snap = SimSnapshot::capture(&sim, &plan());
        assert_eq!(SimSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
    }

    /// The v2 record, written out field by field: files written by any
    /// earlier build of this format must keep decoding, and new files
    /// must stay readable by those builds.
    #[test]
    fn v2_byte_layout_is_pinned() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u64.to_le_bytes());
        bytes.extend_from_slice(b"DSSDSNAP");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        bytes.extend_from_slice(&0xFEDC_BA98_7654_3210u64.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&4_000u64.to_le_bytes());
        bytes.extend_from_slice(&1_234_567u64.to_le_bytes());
        bytes.extend_from_slice(&0xD1CE_57A7_E000_0001u64.to_le_bytes());
        assert_eq!(bytes.len(), 61);
        let snap = SimSnapshot::from_bytes(&bytes).expect("a well-formed v2 record");
        let want = SimSnapshot {
            config_fp: 0x0123_4567_89AB_CDEF,
            plan_fp: 0xFEDC_BA98_7654_3210,
            prefilled: true,
            cursor: 4_000,
            now: SimTime::from_ns(1_234_567),
            state_digest: 0xD1CE_57A7_E000_0001,
        };
        assert_eq!(snap, want);
        assert_eq!(snap.to_bytes(), bytes);
    }

    /// Every byte of a snapshot is checked: one flipped bit anywhere, a
    /// truncation at any length, or one appended byte must fail to
    /// decode or to restore, so a damaged file never resumes a run other
    /// than the one it was taken from.
    #[test]
    fn corrupted_snapshots_are_refused() {
        let bytes = SimSnapshot::capture(&paused_sim(), &plan()).to_bytes();
        let refused = |b: &[u8]| {
            SimSnapshot::from_bytes(b).map_or(true, |s| s.restore(config(), &plan()).is_err())
        };
        assert!(!refused(&bytes));
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 << (i % 8);
            assert!(refused(&flipped), "bit {} of byte {i} flipped", i % 8);
        }
        for len in 0..bytes.len() {
            assert!(refused(&bytes[..len]), "truncated to {len} bytes");
        }
        let mut longer = bytes;
        longer.push(0);
        assert!(refused(&longer), "one byte appended");
    }

    #[test]
    fn restore_reproduces_state_and_final_report() {
        let mut sim = paused_sim();
        let snap = SimSnapshot::capture(&sim, &plan());
        let mut resumed = snap.restore(config(), &plan()).expect("restore");
        assert_eq!(resumed.state_digest(), sim.state_digest());
        // Both halves complete; the resumed report must be identical.
        sim.run_events(u64::MAX);
        resumed.run_events(u64::MAX);
        let a = sim.finish_run().clone();
        let b = resumed.finish_run().clone();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let sim = paused_sim();
        let snap = SimSnapshot::capture(&sim, &plan());
        let mut other = config();
        other.seed ^= 1;
        assert!(snap.restore(other, &plan()).is_err());
        let mut p = plan();
        p.duration = SimSpan::from_ms(6);
        assert!(snap.restore(config(), &p).is_err());
    }
}
