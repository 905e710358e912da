//! A fixed host-speed probe, timed between repetitions.
//!
//! The host this benchmark was tuned on drifts by up to 2x over minutes
//! in memory-bound speed while a register-only loop stays within 10%
//! (see `NOISE.md`). Sorting a few MiB of pseudo-random integers tracks
//! that drift closely: over 30 s windows its median correlated 0.98 with
//! the simulator's. The probe is std-only and never touches simulator
//! code, so a change to the simulator cannot change what it measures.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Keys sorted per probe: 4 MiB, twice the private L2 of the tuning host.
const KEYS: usize = 1 << 20;

/// The probe's time on a quiet tuning host (2-vCPU Xeon VM, Emerald
/// Rapids). Host times are reported scaled by this over the measured
/// probe time, i.e. as seconds on a host as fast as that one.
pub const PROBE_REF_S: f64 = 0.028;

#[derive(Debug)]
pub struct Probe {
    keys: Vec<u32>,
}

impl Probe {
    /// Allocates the probe's buffer once, so probing adds a constant to
    /// the process's peak RSS instead of a new allocation per repetition.
    pub fn new() -> Self {
        Probe {
            keys: vec![0; KEYS],
        }
    }

    /// Refills the buffer with the same keys and times sorting it.
    pub fn time(&mut self) -> Duration {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for k in &mut self.keys {
            // xorshift64: a fixed key sequence, identical on every call.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x as u32;
        }
        let start = Instant::now();
        self.keys.sort_unstable();
        black_box(&self.keys);
        start.elapsed()
    }
}
