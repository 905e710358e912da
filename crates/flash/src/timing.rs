//! Flash operation timing presets (Table 1 of the paper).

use dssd_kernel::{Rng, SimSpan};

/// The kind of a low-level flash array operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlashOpKind {
    /// Page read (array → page register).
    Read,
    /// Page program (page register → array).
    Program,
    /// Block erase.
    Erase,
}

/// A closed latency range `[min, max]` sampled uniformly.
///
/// TLC devices have page-position-dependent latency (the paper gives
/// read 60–95 µs, program 200–500 µs); ULL devices are constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRange {
    /// Fastest case.
    pub min: SimSpan,
    /// Slowest case.
    pub max: SimSpan,
}

impl LatencyRange {
    /// A constant latency.
    #[must_use]
    pub fn fixed(value: SimSpan) -> Self {
        LatencyRange { min: value, max: value }
    }

    /// A uniform range in microseconds.
    #[must_use]
    pub fn from_us(min: u64, max: u64) -> Self {
        assert!(min <= max, "latency range inverted");
        LatencyRange { min: SimSpan::from_us(min), max: SimSpan::from_us(max) }
    }

    /// Draws a latency uniformly from the range.
    pub fn sample(&self, rng: &mut Rng) -> SimSpan {
        if self.min == self.max {
            return self.min;
        }
        SimSpan::from_ns(rng.range_u64(self.min.as_ns()..self.max.as_ns() + 1))
    }

    /// The midpoint of the range (deterministic representative value).
    #[must_use]
    pub fn mid(&self) -> SimSpan {
        SimSpan::from_ns((self.min.as_ns() + self.max.as_ns()) / 2)
    }
}

/// Flash array timing parameters.
///
/// The `program_overhead` term is the one calibration constant in this
/// reproduction: it models per-program command/firmware overhead and is
/// set so a 1-plane ULL chip sustains the paper's stated 51.2 MB/s write
/// bandwidth. In the pipelined steady state the flash-bus transfer
/// overlaps the previous program, so per-die throughput is bounded by die
/// occupancy alone: 50 µs program + 30 µs overhead = 80 µs per 4 KB page
/// = 51.2 MB/s, scaling to 409.6 MB/s with 8-plane multi-plane programs.
///
/// # Example
///
/// ```
/// use dssd_flash::FlashTiming;
/// let t = FlashTiming::ull();
/// assert_eq!(t.read.min.as_us_f64(), 5.0);
/// assert_eq!(t.program.max.as_us_f64(), 50.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Page read (tR).
    pub read: LatencyRange,
    /// Page program (tPROG).
    pub program: LatencyRange,
    /// Block erase (tBERS).
    pub erase: LatencyRange,
    /// Per-program command/firmware overhead (calibration constant).
    pub program_overhead: SimSpan,
    /// Per-read command overhead.
    pub read_overhead: SimSpan,
}

impl FlashTiming {
    /// Ultra-low-latency device (Table 1): read 5 µs, program 50 µs,
    /// erase 1 ms, calibrated to 51.2 MB/s per-plane write bandwidth.
    #[must_use]
    pub fn ull() -> Self {
        FlashTiming {
            read: LatencyRange::fixed(SimSpan::from_us(5)),
            program: LatencyRange::fixed(SimSpan::from_us(50)),
            erase: LatencyRange::fixed(SimSpan::from_ms(1)),
            program_overhead: SimSpan::from_us(30),
            read_overhead: SimSpan::ZERO,
        }
    }

    /// TLC device (Table 1): read 60–95 µs, program 200–500 µs, erase 2 ms.
    #[must_use]
    pub fn tlc() -> Self {
        FlashTiming {
            read: LatencyRange::from_us(60, 95),
            program: LatencyRange::from_us(200, 500),
            erase: LatencyRange::fixed(SimSpan::from_ms(2)),
            program_overhead: SimSpan::ZERO,
            read_overhead: SimSpan::ZERO,
        }
    }

    /// Deterministic midpoint program latency including overhead.
    #[must_use]
    pub fn program_latency_mid(&self) -> SimSpan {
        self.program.mid() + self.program_overhead
    }

    /// Deterministic midpoint read latency including overhead.
    #[must_use]
    pub fn read_latency_mid(&self) -> SimSpan {
        self.read.mid() + self.read_overhead
    }

    /// Samples a program latency (cell time plus overhead).
    pub fn sample_program(&self, rng: &mut Rng) -> SimSpan {
        self.program.sample(rng) + self.program_overhead
    }

    /// Samples a read latency (cell time plus overhead).
    pub fn sample_read(&self, rng: &mut Rng) -> SimSpan {
        self.read.sample(rng) + self.read_overhead
    }

    /// Samples an erase latency.
    pub fn sample_erase(&self, rng: &mut Rng) -> SimSpan {
        self.erase.sample(rng)
    }

    /// Samples the array time of a `planes`-plane operation of `kind` on
    /// one die. Multi-plane operations (the ONFI command set the paper's
    /// "high bandwidth" scenario relies on) keep the die busy once for
    /// all planes, so the time is the slowest plane's: one sample per
    /// plane, drawn in plane order.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero.
    pub fn sample_array(&self, kind: FlashOpKind, planes: u32, rng: &mut Rng) -> SimSpan {
        assert!(planes > 0, "planes must be non-zero");
        let sample_one = |rng: &mut Rng| match kind {
            FlashOpKind::Read => self.sample_read(rng),
            FlashOpKind::Program => self.sample_program(rng),
            FlashOpKind::Erase => self.sample_erase(rng),
        };
        let mut worst = SimSpan::ZERO;
        for _ in 0..planes {
            worst = worst.max(sample_one(rng));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ull_matches_table1() {
        let t = FlashTiming::ull();
        assert_eq!(t.read.mid(), SimSpan::from_us(5));
        assert_eq!(t.program.mid(), SimSpan::from_us(50));
        assert_eq!(t.erase.mid(), SimSpan::from_ms(1));
    }

    #[test]
    fn ull_calibrates_to_51_2_mbps() {
        // Pipelined steady state: per-page period = die occupancy =
        // program + overhead = 80 us -> 51.2 MB/s per plane.
        let t = FlashTiming::ull();
        assert_eq!(t.program_latency_mid(), SimSpan::from_us(80));
        let mbps = 4096.0 / t.program_latency_mid().as_secs_f64() / 1e6;
        assert!((mbps - 51.2).abs() < 0.01, "got {mbps} MB/s");
    }

    #[test]
    fn tlc_ranges_match_table1() {
        let t = FlashTiming::tlc();
        assert_eq!(t.read, LatencyRange::from_us(60, 95));
        assert_eq!(t.program, LatencyRange::from_us(200, 500));
        assert_eq!(t.erase.mid(), SimSpan::from_ms(2));
    }

    #[test]
    fn sample_stays_in_range() {
        let t = FlashTiming::tlc();
        let mut rng = Rng::new(1);
        for _ in 0..1000 {
            let s = t.program.sample(&mut rng);
            assert!(s >= t.program.min && s <= t.program.max);
        }
    }

    #[test]
    fn fixed_range_samples_constant() {
        let r = LatencyRange::fixed(SimSpan::from_us(5));
        let mut rng = Rng::new(1);
        assert_eq!(r.sample(&mut rng), SimSpan::from_us(5));
        assert_eq!(r.mid(), SimSpan::from_us(5));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_range_panics() {
        let _ = LatencyRange::from_us(10, 5);
    }

    #[test]
    fn multi_plane_latency_is_max_not_sum() {
        let t = FlashTiming::ull(); // fixed latencies
        let mut rng = Rng::new(1);
        let one = t.sample_array(FlashOpKind::Program, 1, &mut rng);
        let eight = t.sample_array(FlashOpKind::Program, 8, &mut rng);
        assert_eq!(one, eight); // ULL is constant-latency: max == single
    }

    #[test]
    fn multi_plane_latency_is_the_slowest_plane_for_tlc() {
        // One draw per plane, in plane order, and the maximum wins: the
        // same numbers a caller sampling each plane would draw.
        let t = FlashTiming::tlc();
        let (mut a, mut b) = (Rng::new(2), Rng::new(2));
        for (kind, planes) in [(FlashOpKind::Read, 4), (FlashOpKind::Program, 3)] {
            for _ in 0..100 {
                let l = t.sample_array(kind, planes, &mut a);
                let each = (0..planes).map(|_| match kind {
                    FlashOpKind::Read => t.sample_read(&mut b),
                    _ => t.sample_program(&mut b),
                });
                assert_eq!(l, each.max().unwrap());
                let range = if kind == FlashOpKind::Read {
                    t.read
                } else {
                    t.program
                };
                assert!(l >= range.min && l <= range.max);
            }
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_planes_panics() {
        let _ = FlashTiming::ull().sample_array(FlashOpKind::Read, 0, &mut Rng::new(1));
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let r = LatencyRange::from_us(100, 200);
        let mut rng = Rng::new(7);
        let n = 10_000;
        let mean: f64 =
            (0..n).map(|_| r.sample(&mut rng).as_us_f64()).sum::<f64>() / n as f64;
        assert!((mean - 150.0).abs() < 2.0, "mean {mean}");
    }
}
