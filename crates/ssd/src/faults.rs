//! Deterministic in-band fault injection.
//!
//! The live pipeline never sees a NAND failure unless one is injected:
//! ULL media at the simulated ages stays well under the LDPC correction
//! threshold, so every read decodes cleanly and every program sticks.
//! [`FaultInjector`] puts failures back: driven by its own fork of the
//! seeded [`Rng`], it decides per read group whether the ECC check comes
//! back transient (retryable) or hard (media), per program group whether
//! the program fails, per erase whether the erase fails, and per fNoC
//! packet whether the link degrades. The simulation *handles* each
//! outcome in-band — read-retry with escalating sense latency, program
//! re-allocation, online superblock retirement through the SRT/RBT remap
//! path — instead of panicking.
//!
//! Determinism contract: the injector draws from a dedicated RNG stream
//! (`seed ^ 0xFA17`), never from the simulator's main stream, and each
//! draw is guarded by its own rate — a knob left at zero draws nothing.
//! With [`FaultConfig::none()`] the injector is not even constructed, so
//! a zero-rate run is bit-identical to one without the subsystem.

use dssd_kernel::{Rng, SimSpan};

/// Outcome of the per-read-group fault draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// No injected fault; the wear model's RBER decides the verdict.
    None,
    /// A transient raw-bit-error burst (read disturb, retention): the
    /// page fails its first decode but a re-read at a shifted reference
    /// voltage may recover it.
    Transient,
    /// A hard media failure: no number of retries will recover the page,
    /// and its block must be retired.
    Hard,
}

/// Fault-injection rates and failure-handling knobs.
///
/// All rates are per-event probabilities in `[0, 1]`: reads and programs
/// draw once per die group (the scheduling unit of the pipeline), erases
/// once per erase block, the fNoC once per injected packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability that a read group suffers a transient, retryable
    /// decode failure.
    pub read_transient_prob: f64,
    /// Probability that a read group hits a hard media failure that
    /// retries cannot recover.
    pub read_hard_prob: f64,
    /// Probability that one retry of a transient failure recovers the
    /// data (each retry draws independently).
    pub retry_success_prob: f64,
    /// Retry budget before a read is declared uncorrectable.
    pub max_read_retries: u32,
    /// Sense-latency escalation per retry: attempt `n` costs
    /// `read_latency * retry_latency_factor^n` (deeper reference-voltage
    /// sweeps take longer).
    pub retry_latency_factor: f64,
    /// Probability that a program group reports a program failure.
    pub program_fail_prob: f64,
    /// Allocation attempts per write group before the request is failed.
    pub max_program_attempts: u32,
    /// Probability that an erase block fails its erase at GC time.
    pub erase_fail_prob: f64,
    /// Probability that an fNoC packet hits a degraded link and must be
    /// re-serialized after a timeout.
    pub noc_degrade_prob: f64,
    /// The timeout added before a degraded packet is re-injected.
    pub noc_degrade_latency: SimSpan,
}

impl FaultConfig {
    /// All injection rates zero: the injector is never constructed and
    /// the simulation behaves bit-identically to one without the fault
    /// subsystem.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            read_transient_prob: 0.0,
            read_hard_prob: 0.0,
            retry_success_prob: 0.75,
            max_read_retries: 4,
            retry_latency_factor: 1.5,
            program_fail_prob: 0.0,
            max_program_attempts: 3,
            erase_fail_prob: 0.0,
            noc_degrade_prob: 0.0,
            noc_degrade_latency: SimSpan::from_us(10),
        }
    }

    /// True if any injection rate is nonzero — the gate for constructing
    /// a [`FaultInjector`] at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.read_transient_prob > 0.0
            || self.read_hard_prob > 0.0
            || self.program_fail_prob > 0.0
            || self.erase_fail_prob > 0.0
            || self.noc_degrade_prob > 0.0
    }

    /// First validation error, if any.
    #[must_use]
    pub fn validate(&self) -> Option<String> {
        let rates = [
            ("fault read_transient_prob", self.read_transient_prob),
            ("fault read_hard_prob", self.read_hard_prob),
            ("fault retry_success_prob", self.retry_success_prob),
            ("fault program_fail_prob", self.program_fail_prob),
            ("fault erase_fail_prob", self.erase_fail_prob),
            ("fault noc_degrade_prob", self.noc_degrade_prob),
        ];
        for (name, p) in rates {
            if !(0.0..=1.0).contains(&p) {
                return Some(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        if self.read_transient_prob + self.read_hard_prob > 1.0 {
            return Some("fault read probabilities must sum to <= 1".into());
        }
        if self.retry_latency_factor < 1.0 {
            return Some(format!(
                "fault retry_latency_factor must be >= 1, got {}",
                self.retry_latency_factor
            ));
        }
        if self.max_program_attempts == 0 {
            return Some("fault max_program_attempts must be >= 1".into());
        }
        None
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// The per-simulation fault source: a [`FaultConfig`] plus a dedicated
/// RNG stream. Every decision method guards its draw behind the
/// corresponding rate, so enabling one fault class does not perturb the
/// outcome sequence of another.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Rng,
}

/// XOR'd into the seed so fault draws never share a stream with wear,
/// remaps, or workload generation.
const FAULT_STREAM: u64 = 0xFA17;

impl FaultInjector {
    /// Creates an injector drawing from `seed`'s dedicated fault stream.
    #[must_use]
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultInjector { config, rng: Rng::new(seed ^ FAULT_STREAM) }
    }

    /// The injection configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Digest of the fault stream position. Changes iff a draw was
    /// consumed, so zero-rate decision calls leave it untouched.
    #[must_use]
    pub fn stream_digest(&self) -> u64 {
        self.rng.state_digest()
    }

    /// Draws the fault class for one read group. Hard failures are drawn
    /// first so `read_hard_prob` is an absolute rate, not conditional on
    /// surviving the transient draw.
    pub fn read_outcome(&mut self) -> ReadFault {
        if self.config.read_hard_prob > 0.0 && self.rng.chance(self.config.read_hard_prob) {
            return ReadFault::Hard;
        }
        if self.config.read_transient_prob > 0.0
            && self.rng.chance(self.config.read_transient_prob)
        {
            return ReadFault::Transient;
        }
        ReadFault::None
    }

    /// Whether one retry of a transient failure recovers the data.
    pub fn retry_recovers(&mut self) -> bool {
        self.config.retry_success_prob > 0.0 && self.rng.chance(self.config.retry_success_prob)
    }

    /// Whether one program group fails.
    pub fn program_fails(&mut self) -> bool {
        self.config.program_fail_prob > 0.0 && self.rng.chance(self.config.program_fail_prob)
    }

    /// Whether one erase block fails its erase.
    pub fn erase_fails(&mut self) -> bool {
        self.config.erase_fail_prob > 0.0 && self.rng.chance(self.config.erase_fail_prob)
    }

    /// Whether one fNoC packet hits a degraded link.
    pub fn noc_degrades(&mut self) -> bool {
        self.config.noc_degrade_prob > 0.0 && self.rng.chance(self.config.noc_degrade_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled_and_valid() {
        let c = FaultConfig::none();
        assert!(!c.enabled());
        assert!(c.validate().is_none());
        assert_eq!(c, FaultConfig::default());
    }

    #[test]
    fn any_nonzero_rate_enables() {
        for set in [
            |c: &mut FaultConfig| c.read_transient_prob = 0.1,
            |c: &mut FaultConfig| c.read_hard_prob = 0.1,
            |c: &mut FaultConfig| c.program_fail_prob = 0.1,
            |c: &mut FaultConfig| c.erase_fail_prob = 0.1,
            |c: &mut FaultConfig| c.noc_degrade_prob = 0.1,
        ] {
            let mut c = FaultConfig::none();
            set(&mut c);
            assert!(c.enabled());
            assert!(c.validate().is_none());
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = FaultConfig::none();
        c.read_transient_prob = 1.5;
        assert!(c.validate().is_some());

        let mut c = FaultConfig::none();
        c.read_transient_prob = 0.6;
        c.read_hard_prob = 0.6;
        assert!(c.validate().is_some());

        let mut c = FaultConfig::none();
        c.retry_latency_factor = 0.5;
        assert!(c.validate().is_some());

        let mut c = FaultConfig::none();
        c.max_program_attempts = 0;
        assert!(c.validate().is_some());
    }

    #[test]
    fn outcomes_are_deterministic_per_seed() {
        let mut cfg = FaultConfig::none();
        cfg.read_transient_prob = 0.3;
        cfg.read_hard_prob = 0.05;
        cfg.program_fail_prob = 0.1;
        let mut a = FaultInjector::new(cfg, 99);
        let mut b = FaultInjector::new(cfg, 99);
        for _ in 0..1000 {
            assert_eq!(a.read_outcome(), b.read_outcome());
            assert_eq!(a.program_fails(), b.program_fails());
            assert_eq!(a.retry_recovers(), b.retry_recovers());
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut cfg = FaultConfig::none();
        cfg.read_transient_prob = 0.2;
        cfg.read_hard_prob = 0.05;
        let mut inj = FaultInjector::new(cfg, 7);
        let (mut t, mut h) = (0u32, 0u32);
        for _ in 0..10_000 {
            match inj.read_outcome() {
                ReadFault::Transient => t += 1,
                ReadFault::Hard => h += 1,
                ReadFault::None => {}
            }
        }
        // Transient rate is conditional on not drawing hard: ~0.19.
        assert!((1500..2500).contains(&t), "transient {t}");
        assert!((300..800).contains(&h), "hard {h}");
    }

    #[test]
    fn zero_rate_knobs_draw_nothing() {
        // With every rate zero, no method touches the RNG — two injectors
        // stay in lockstep even if one is "used" heavily.
        let mut cfg = FaultConfig::none();
        cfg.retry_success_prob = 0.0;
        let mut a = FaultInjector::new(cfg, 3);
        let b = FaultInjector::new(cfg, 3);
        for _ in 0..100 {
            assert_eq!(a.read_outcome(), ReadFault::None);
            assert!(!a.program_fails());
            assert!(!a.erase_fails());
            assert!(!a.noc_degrades());
            assert!(!a.retry_recovers());
        }
        // Identical internal state: same next draw after re-enabling.
        let mut a2 = a;
        let mut b2 = b;
        a2.config.read_hard_prob = 1.0;
        b2.config.read_hard_prob = 1.0;
        assert_eq!(a2.read_outcome(), b2.read_outcome());
    }
}
