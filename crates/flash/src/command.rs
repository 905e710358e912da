//! ONFI-flavoured flash operations.

use crate::{FlashTiming, PageAddr};
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

/// One low-level flash operation, possibly multi-plane.
///
/// Multi-plane operations (`planes > 1`) model the ONFI multi-plane
/// command set the paper relies on for its "high bandwidth" scenario:
/// all planes of one die perform the operation concurrently, so the die
/// is busy once but `planes` pages move.
///
/// # Example
///
/// ```
/// use dssd_flash::{FlashOp, FlashOpKind, FlashTiming, PageAddr};
/// use dssd_kernel::Rng;
///
/// let addr = PageAddr { channel: 0, way: 0, die: 0, plane: 0, block: 0, page: 0 };
/// let op = FlashOp::multi_plane(FlashOpKind::Program, addr, 8);
/// assert_eq!(op.pages_moved(), 8);
/// let mut rng = Rng::new(1);
/// assert!(op.array_latency(&FlashTiming::ull(), &mut rng).as_ns() > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashOp {
    /// What the operation does.
    pub kind: FlashOpKind,
    /// Target address (the first plane of a multi-plane group).
    pub target: PageAddr,
    /// Number of planes operated in parallel (1 = single-plane).
    pub planes: u32,
}

impl FlashOp {
    /// A single-plane operation.
    #[must_use]
    pub fn single(kind: FlashOpKind, target: PageAddr) -> Self {
        FlashOp { kind, target, planes: 1 }
    }

    /// A multi-plane operation across `planes` planes of the target die.
    ///
    /// # Panics
    ///
    /// Panics if `planes` is zero.
    #[must_use]
    pub fn multi_plane(kind: FlashOpKind, target: PageAddr, planes: u32) -> Self {
        assert!(planes > 0, "planes must be non-zero");
        FlashOp { kind, target, planes }
    }

    /// Pages transferred by this operation (zero for erase).
    #[must_use]
    pub fn pages_moved(&self) -> u32 {
        match self.kind {
            FlashOpKind::Erase => 0,
            _ => self.planes,
        }
    }

    /// The time the die's array is busy executing this operation.
    ///
    /// Multi-plane operations finish when the slowest plane finishes; for
    /// range-latency devices we sample once per plane and take the max.
    pub fn array_latency(&self, timing: &FlashTiming, rng: &mut Rng) -> SimSpan {
        let sample_one = |rng: &mut Rng| match self.kind {
            FlashOpKind::Read => timing.sample_read(rng),
            FlashOpKind::Program => timing.sample_program(rng),
            FlashOpKind::Erase => timing.sample_erase(rng),
        };
        let mut worst = SimSpan::ZERO;
        for _ in 0..self.planes {
            worst = worst.max(sample_one(rng));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlashGeometry;

    fn addr() -> PageAddr {
        FlashGeometry::tiny().page_at(0)
    }

    #[test]
    fn erase_moves_no_data() {
        let op = FlashOp::single(FlashOpKind::Erase, addr());
        assert_eq!(op.pages_moved(), 0);
    }

    #[test]
    fn multi_plane_latency_is_max_not_sum() {
        let t = FlashTiming::ull(); // fixed latencies
        let mut rng = Rng::new(1);
        let one = FlashOp::single(FlashOpKind::Program, addr()).array_latency(&t, &mut rng);
        let eight =
            FlashOp::multi_plane(FlashOpKind::Program, addr(), 8).array_latency(&t, &mut rng);
        assert_eq!(one, eight); // ULL is constant-latency: max == single
    }

    #[test]
    fn multi_plane_latency_at_least_single_for_tlc() {
        let t = FlashTiming::tlc();
        let mut rng = Rng::new(2);
        for _ in 0..100 {
            let l = FlashOp::multi_plane(FlashOpKind::Read, addr(), 4)
                .array_latency(&t, &mut rng);
            assert!(l >= t.read.min && l <= t.read.max);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_planes_panics() {
        let _ = FlashOp::multi_plane(FlashOpKind::Read, addr(), 0);
    }
}
