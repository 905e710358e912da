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

use dssd_kernel::{SimSpan, SimTime, SnapError, SnapReader, SnapWriter};
use dssd_workload::SyntheticWorkload;

use crate::{RunState, SsdConfig, SsdSim};

const MAGIC: &[u8; 8] = b"DSSDSNAP";
const VERSION: u32 = 2;

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

    /// Serializes to the snapshot byte format.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.put_bytes(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(self.config_fp);
        w.put_u64(self.plan_fp);
        w.put_bool(self.prefilled);
        w.put_u64(self.cursor);
        w.put_u64(self.now.as_ns());
        w.put_u64(self.state_digest);
        w.into_bytes()
    }

    /// Decodes a snapshot produced by [`SimSnapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] on truncation, trailing bytes, a foreign
    /// magic, or a version mismatch.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.take_bytes()? != MAGIC {
            return Err(SnapError { message: "not a dSSD snapshot".into(), offset: 0 });
        }
        let version = r.take_u32()?;
        if version != VERSION {
            return Err(SnapError {
                message: format!("snapshot format v{version}, this build reads v{VERSION}"),
                offset: r.offset(),
            });
        }
        let snap = SimSnapshot {
            config_fp: r.take_u64()?,
            plan_fp: r.take_u64()?,
            prefilled: r.take_bool()?,
            cursor: r.take_u64()?,
            now: SimTime::ZERO + SimSpan::from_ns(r.take_u64()?),
            state_digest: r.take_u64()?,
        };
        if !r.is_exhausted() {
            return Err(SnapError {
                message: "trailing bytes after the snapshot".into(),
                offset: r.offset(),
            });
        }
        Ok(snap)
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
