//! Die busy-state tracking.

use crate::FlashGeometry;
use dssd_kernel::{SimSpan, SimTime};

/// Busy-state machines for every die in the SSD.
///
/// A NAND die executes one array operation at a time (multi-plane
/// operations count as one), so each die is modeled as a FIFO resource:
/// an operation issued at `now` starts when the die last becomes idle and
/// occupies it for the operation's array latency.
///
/// # Example
///
/// ```
/// use dssd_flash::{DieGrid, FlashGeometry};
/// use dssd_kernel::{SimSpan, SimTime};
///
/// let geo = FlashGeometry::tiny();
/// let mut dies = DieGrid::new(&geo);
/// let (s1, d1) = dies.occupy(0, SimTime::ZERO, SimSpan::from_us(50));
/// let (s2, _) = dies.occupy(0, SimTime::ZERO, SimSpan::from_us(50));
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, d1); // same die serializes
/// let (s3, _) = dies.occupy(1, SimTime::ZERO, SimSpan::from_us(50));
/// assert_eq!(s3, SimTime::ZERO); // different die is independent
/// ```
#[derive(Debug, Clone)]
pub struct DieGrid {
    busy_until: Vec<SimTime>,
}

impl DieGrid {
    /// Creates an all-idle grid for the geometry.
    #[must_use]
    pub fn new(geometry: &FlashGeometry) -> Self {
        DieGrid { busy_until: vec![SimTime::ZERO; geometry.total_dies() as usize] }
    }

    /// Occupies die `die` for `duration`, starting no earlier than `now`.
    /// Returns `(start, done)`.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn occupy(&mut self, die: usize, now: SimTime, duration: SimSpan) -> (SimTime, SimTime) {
        let start = now.max(self.busy_until[die]);
        let done = start + duration;
        self.busy_until[die] = done;
        (start, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_kernel::check;

    #[test]
    fn dies_are_independent() {
        let mut g = DieGrid::new(&FlashGeometry::tiny());
        let (_, d0) = g.occupy(0, SimTime::ZERO, SimSpan::from_us(10));
        let (s1, _) = g.occupy(1, SimTime::ZERO, SimSpan::from_us(10));
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(d0, SimTime::from_us(10));
    }

    #[test]
    fn same_die_serializes() {
        let mut g = DieGrid::new(&FlashGeometry::tiny());
        let (_, d0) = g.occupy(0, SimTime::ZERO, SimSpan::from_us(10));
        let (s1, d1) = g.occupy(0, SimTime::ZERO, SimSpan::from_us(5));
        assert_eq!(s1, d0);
        assert_eq!(d1, SimTime::from_us(15));
    }

    #[test]
    fn late_arrival_starts_immediately() {
        let mut g = DieGrid::new(&FlashGeometry::tiny());
        g.occupy(0, SimTime::ZERO, SimSpan::from_us(10));
        let (s, _) = g.occupy(0, SimTime::from_us(100), SimSpan::from_us(5));
        assert_eq!(s, SimTime::from_us(100));
    }

    /// Occupancy intervals of one die never overlap, never start before
    /// their request, and last exactly the requested duration.
    #[test]
    fn die_occupancy_is_serial() {
        check(8192, 0xD1E_0000, |rng| {
            let mut grid = DieGrid::new(&FlashGeometry::tiny());
            let ops = 1 + rng.index(119) as u64;
            let mut prev_done = SimTime::ZERO;
            for _ in 0..ops {
                let at = SimTime::from_us(rng.range_u64(0..5_000));
                let dur = SimSpan::from_us(rng.range_u64(1..500));
                let (start, done) = grid.occupy(0, at, dur);
                if start < prev_done || start < at || done - start != dur {
                    let ran = format!("{start:?}..{done:?}");
                    return Err(format!("{dur:?} at {at:?} ran {ran} after {prev_done:?}"));
                }
                prev_done = done;
            }
            Ok(())
        });
    }
}
