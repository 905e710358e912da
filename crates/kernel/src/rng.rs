//! Deterministic pseudo-random number generation.
//!
//! The kernel ships its own small generator (xoshiro256\*\* seeded through
//! SplitMix64) so that simulation results are bit-reproducible across
//! machines and never depend on the version behaviour of an external RNG
//! crate.

/// A seedable xoshiro256\*\* pseudo-random number generator.
///
/// # Example
///
/// ```
/// use dssd_kernel::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
///
/// let x = a.range_u64(10..20);
/// assert!((10..20).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    gauss_cache: Option<f64>,
}

impl Rng {
    /// Creates a generator from a seed. Any seed (including 0) is valid.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion of the seed into the full state, per the
        // xoshiro authors' recommendation.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
            gauss_cache: None,
        }
    }

    /// A 64-bit digest of the generator state (for snapshot validation).
    /// Does not advance the stream.
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in self.state {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let cached = self.gauss_cache.map_or(0, f64::to_bits);
        (h ^ cached).wrapping_mul(0x0000_0100_0000_01B3)
    }

    /// Derives an independent generator for a sub-component, keyed by
    /// `stream`. Useful for giving each simulated component its own
    /// deterministic stream.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Rng {
        let mix = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(mix)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        // 53 high-quality bits -> [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in the half-open range `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range");
        let width = range.end - range.start;
        // Lemire-style rejection-free-enough multiply-shift; bias is
        // negligible (< 2^-64 * width) for simulation purposes, but we use
        // rejection to keep results exactly uniform.
        let zone = u64::MAX - (u64::MAX % width);
        loop {
            let v = self.next_u64();
            if v < zone {
                return range.start + (v % width);
            }
        }
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        self.range_u64(0..n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// A sample from the normal distribution `N(mean, sigma^2)` via the
    /// Box–Muller transform (with caching of the paired sample).
    pub fn gaussian(&mut self, mean: f64, sigma: f64) -> f64 {
        if let Some(z) = self.gauss_cache.take() {
            return mean + sigma * z;
        }
        // Box–Muller: two uniforms -> two independent normals.
        let u1 = loop {
            let u = self.unit_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.unit_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_cache = Some(r * theta.sin());
        mean + sigma * r * theta.cos()
    }

    /// An exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.unit_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = Rng::new(5);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Rng::new(9);
        for _ in 0..10_000 {
            let x = r.range_u64(100..107);
            assert!((100..107).contains(&x));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.range_u64(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).range_u64(5..5);
    }

    #[test]
    fn gaussian_moments_are_close() {
        let mut r = Rng::new(42);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.gaussian(5578.0, 826.9);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!((mean - 5578.0).abs() < 10.0, "mean {mean}");
        assert!((var.sqrt() - 826.9).abs() < 10.0, "sigma {}", var.sqrt());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Rng::new(77);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::new(10);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(8);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
