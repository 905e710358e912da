//! Per-block wear and process-variation model.

use crate::FlashGeometry;
use dssd_kernel::Rng;

/// Outcome of an erase with respect to block health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EraseOutcome {
    /// The block is still within its endurance budget.
    Healthy,
    /// The block has exceeded its program/erase limit: the next
    /// program/read cycle is expected to produce an uncorrectable error.
    WornOut,
}

/// Block-level process-variation wear model.
///
/// Every erase block draws an independent program/erase (P/E) cycle limit
/// from a Gaussian — the model the paper adopts from WAS (Sec 6.4):
/// `E(x) = 5578`, `σ(x) = 826.9`. A block whose accumulated P/E count
/// exceeds its limit produces uncorrectable errors, which at superblock
/// granularity is what kills a superblock (the page with the worst raw
/// bit error rate triggers the first uncorrectable error).
///
/// # Example
///
/// ```
/// use dssd_flash::{FlashGeometry, WearModel, EraseOutcome};
/// use dssd_kernel::Rng;
///
/// let geo = FlashGeometry::tiny();
/// let mut wear = WearModel::new(&geo, 5578.0, 826.9, &mut Rng::new(1));
/// assert_eq!(wear.erase(0), EraseOutcome::Healthy);
/// assert_eq!(wear.pe_count(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WearModel {
    limits: Vec<u32>,
    pe: Vec<u32>,
    mean: f64,
    sigma: f64,
}

impl WearModel {
    /// Creates a wear model for the geometry, drawing every block's P/E
    /// limit from `N(mean, sigma²)` (clamped to at least 1 cycle).
    #[must_use]
    pub fn new(geometry: &FlashGeometry, mean: f64, sigma: f64, rng: &mut Rng) -> Self {
        let n = geometry.total_blocks() as usize;
        Self::with_block_count(n, mean, sigma, rng)
    }

    /// Creates a wear model for an explicit number of blocks (used by the
    /// reduced-scale endurance simulations of Sec 6.4).
    #[must_use]
    pub fn with_block_count(blocks: usize, mean: f64, sigma: f64, rng: &mut Rng) -> Self {
        let limits = (0..blocks)
            .map(|_| rng.gaussian(mean, sigma).max(1.0).round() as u32)
            .collect();
        WearModel {
            limits,
            pe: vec![0; blocks],
            mean,
            sigma,
        }
    }

    /// Number of blocks tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.limits.len()
    }

    /// True if no blocks are tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.limits.is_empty()
    }

    /// The distribution mean this model was built with.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution sigma this model was built with.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The P/E limit assigned to `block`.
    #[must_use]
    pub fn limit(&self, block: usize) -> u32 {
        self.limits[block]
    }

    /// P/E cycles consumed so far by `block`.
    #[must_use]
    pub fn pe_count(&self, block: usize) -> u32 {
        self.pe[block]
    }

    /// Remaining healthy cycles for `block` (0 if already worn out).
    #[must_use]
    pub fn remaining(&self, block: usize) -> u32 {
        self.limits[block].saturating_sub(self.pe[block])
    }

    /// True if `block` has exceeded its endurance limit.
    #[must_use]
    pub fn is_worn_out(&self, block: usize) -> bool {
        self.pe[block] >= self.limits[block]
    }

    /// Marks `block` as worn out immediately, regardless of its remaining
    /// endurance budget — the field response to a program/erase failure or
    /// an uncorrectable read: the block can no longer be trusted, so its
    /// effective limit is "now".
    pub fn force_worn(&mut self, block: usize) {
        self.pe[block] = self.pe[block].max(self.limits[block]);
    }

    /// Charges one P/E cycle to `block` and reports its health.
    pub fn erase(&mut self, block: usize) -> EraseOutcome {
        self.pe[block] += 1;
        if self.pe[block] >= self.limits[block] {
            EraseOutcome::WornOut
        } else {
            EraseOutcome::Healthy
        }
    }

    /// Raw bit error rate estimate for `block` at its current wear.
    ///
    /// A standard exponential RBER-vs-P/E model: negligible when fresh,
    /// crossing the typical LDPC correction threshold (~1e-2) right at the
    /// block's endurance limit. Only the *shape* matters for the
    /// experiments; the trigger for uncorrectability is the limit itself.
    #[must_use]
    pub fn rber(&self, block: usize) -> f64 {
        let frac = self.pe[block] as f64 / self.limits[block] as f64;
        1e-4 * (frac * (1e-2f64 / 1e-4).ln()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> WearModel {
        WearModel::with_block_count(10_000, 5578.0, 826.9, &mut Rng::new(seed))
    }

    #[test]
    fn limits_follow_distribution() {
        let m = model(1);
        let mean: f64 =
            m.limits.iter().map(|&l| l as f64).sum::<f64>() / m.len() as f64;
        assert!((mean - 5578.0).abs() < 30.0, "mean {mean}");
        let var: f64 = m
            .limits
            .iter()
            .map(|&l| (l as f64 - mean).powi(2))
            .sum::<f64>()
            / m.len() as f64;
        assert!((var.sqrt() - 826.9).abs() < 30.0, "sigma {}", var.sqrt());
    }

    #[test]
    fn erase_accumulates_and_wears_out() {
        let mut m = WearModel::with_block_count(1, 10.0, 0.0, &mut Rng::new(2));
        let limit = m.limit(0);
        for i in 1..limit {
            assert_eq!(m.erase(0), EraseOutcome::Healthy, "cycle {i}");
            assert!(!m.is_worn_out(0));
        }
        assert_eq!(m.erase(0), EraseOutcome::WornOut);
        assert!(m.is_worn_out(0));
        assert_eq!(m.remaining(0), 0);
    }

    #[test]
    fn rber_grows_monotonically_to_threshold() {
        let mut m = WearModel::with_block_count(1, 100.0, 0.0, &mut Rng::new(3));
        let fresh = m.rber(0);
        for _ in 0..50 {
            m.erase(0);
        }
        let mid = m.rber(0);
        for _ in 0..50 {
            m.erase(0);
        }
        let worn = m.rber(0);
        assert!(fresh < mid && mid < worn);
        assert!((fresh - 1e-4).abs() < 1e-6);
        assert!((worn - 1e-2).abs() < 1e-3);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = model(42);
        let b = model(42);
        assert_eq!(a.limits, b.limits);
    }

    #[test]
    fn force_worn_caps_block_immediately() {
        let mut m = WearModel::with_block_count(2, 100.0, 0.0, &mut Rng::new(6));
        assert!(!m.is_worn_out(0));
        m.force_worn(0);
        assert!(m.is_worn_out(0));
        assert_eq!(m.remaining(0), 0);
        assert!((m.rber(0) - 1e-2).abs() < 1e-3);
        assert!(!m.is_worn_out(1));
        // Idempotent, and never rolls an already-exceeded count back.
        m.force_worn(0);
        assert!(m.is_worn_out(0));
    }

    #[test]
    fn limits_are_positive() {
        // Even with a huge sigma, limits clamp to >= 1.
        let m = WearModel::with_block_count(10_000, 10.0, 1000.0, &mut Rng::new(4));
        assert!(m.limits.iter().all(|&l| l >= 1));
    }

    #[test]
    fn geometry_constructor_counts_blocks() {
        let geo = FlashGeometry::tiny();
        let m = WearModel::new(&geo, 5578.0, 826.9, &mut Rng::new(5));
        assert_eq!(m.len(), geo.total_blocks() as usize);
    }
}
