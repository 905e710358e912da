//! Page-granular buffer pools (page buffers and the decoupled dBUF).

/// A fixed-capacity pool of page slots.
///
/// Models both the conventional per-controller page buffers (sized to one
/// page per way, ×2 for multi-plane double buffering, per the paper's
/// footnote) and the decoupled buffer (dBUF) that stages flash-to-flash
/// copyback pages. Exhaustion is the back-pressure signal: a copyback
/// read is not issued until a dBUF slot is reserved.
///
/// # Example
///
/// ```
/// use dssd_ctrl::BufferPool;
///
/// let mut dbuf = BufferPool::new(16);
/// assert!(dbuf.try_reserve());
/// assert_eq!(dbuf.in_use(), 1);
/// dbuf.release();
/// assert_eq!(dbuf.in_use(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    in_use: usize,
}

impl BufferPool {
    /// Creates a pool with `capacity` page slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one slot");
        BufferPool {
            capacity,
            in_use: 0,
        }
    }

    /// Total slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Slots currently reserved.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Free slots.
    #[must_use]
    pub fn available(&self) -> usize {
        self.capacity - self.in_use
    }

    /// True if no slot is free.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.in_use == self.capacity
    }

    /// Reserves one slot; returns false if full.
    pub fn try_reserve(&mut self) -> bool {
        if self.is_full() {
            return false;
        }
        self.in_use += 1;
        true
    }

    /// Releases one slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is reserved (a release/reserve imbalance is a
    /// simulator bug, not a runtime condition).
    pub fn release(&mut self) {
        assert!(self.in_use > 0, "release without reserve");
        self.in_use -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_until_full() {
        let mut p = BufferPool::new(2);
        assert!(p.try_reserve());
        assert!(p.try_reserve());
        assert!(p.is_full());
        assert!(!p.try_reserve());
        assert_eq!(p.available(), 0);
    }

    #[test]
    fn release_frees_slot() {
        let mut p = BufferPool::new(1);
        assert!(p.try_reserve());
        p.release();
        assert!(p.try_reserve());
    }

    #[test]
    #[should_panic(expected = "release without reserve")]
    fn unbalanced_release_panics() {
        BufferPool::new(1).release();
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = BufferPool::new(0);
    }
}
