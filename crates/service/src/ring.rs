//! io_uring/NVMe-style fixed-depth submission ring.
//!
//! The ring is a classic single-producer/single-consumer circular buffer
//! with free-running head/tail cursors masked into a power-of-two slot
//! array. The producer writes a slot and *rings the doorbell* (advances
//! its tail); the consumer reads at head. In this simulated front-end
//! the host driver and the device share one address space, so the
//! doorbell is an ordinary method call — but the protocol (slot reuse
//! only after the consumer advances past it, fullness detected by cursor
//! distance, never by sentinel values) is the real one. Completions need
//! no ring: the pacer folds each one into its tenant's report the moment
//! the simulator logs it.

use dssd_kernel::SimTime;
use dssd_workload::Op;

/// One submission-queue entry: a tenant-relative I/O command.
///
/// The logical address is *namespace-relative* — the service maps it
/// onto the tenant's slice of the drive's logical space at dispatch, so
/// no tenant can name another tenant's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// Direction.
    pub op: Op,
    /// First logical page, relative to the tenant's namespace.
    pub lba: u64,
    /// Consecutive pages.
    pub pages: u32,
    /// Serviced from the device DRAM cache (never touches flash).
    pub cached: bool,
}

/// Error returned when pushing to a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// A fixed-depth ring of `T` with free-running cursors.
#[derive(Debug, Clone)]
struct Ring<T> {
    slots: Vec<Option<T>>,
    /// Consumer cursor: next slot to pop. Free-running; masked on use.
    head: u64,
    /// Producer cursor (the doorbell): next slot to fill.
    tail: u64,
}

impl<T> Ring<T> {
    fn new(depth: usize) -> Self {
        assert!(depth > 0, "ring depth must be non-zero");
        let depth = depth.next_power_of_two();
        Ring { slots: (0..depth).map(|_| None).collect(), head: 0, tail: 0 }
    }

    fn mask(&self, cursor: u64) -> usize {
        (cursor as usize) & (self.slots.len() - 1)
    }

    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    fn is_full(&self) -> bool {
        self.len() == self.slots.len()
    }

    fn push(&mut self, item: T) -> Result<(), RingFull> {
        if self.is_full() {
            return Err(RingFull);
        }
        let slot = self.mask(self.tail);
        debug_assert!(self.slots[slot].is_none(), "producer overran consumer");
        self.slots[slot] = Some(item);
        self.tail += 1; // the doorbell
        Ok(())
    }

    fn pop(&mut self) -> Option<T> {
        if self.head == self.tail {
            return None;
        }
        let slot = self.mask(self.head);
        let item = self.slots[slot].take();
        debug_assert!(item.is_some(), "consumer overran producer");
        self.head += 1;
        item
    }

    fn peek(&self) -> Option<&T> {
        if self.head == self.tail {
            return None;
        }
        self.slots[self.mask(self.head)].as_ref()
    }
}

/// A tenant's submission queue. The host pushes [`Sqe`]s (producer);
/// the device-side arbiter pops them in order (consumer).
///
/// Each accepted entry is stamped with its command id and submission
/// instant, so latency is measured from *submission*, not dispatch —
/// time spent queued behind the token bucket counts against the tenant.
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    ring: Ring<(u64, SimTime, Sqe)>,
    next_cid: u64,
}

impl SubmissionQueue {
    /// Creates a queue of at least `depth` entries (rounded up to a
    /// power of two).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        SubmissionQueue { ring: Ring::new(depth), next_cid: 0 }
    }

    /// Entries currently queued (submitted, not yet dispatched).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no entries are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ring.len() == 0
    }

    /// True when the ring cannot accept another entry.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.ring.is_full()
    }

    /// Host side: submits `sqe` at time `now`, returning its command id.
    ///
    /// # Errors
    ///
    /// [`RingFull`] when the ring has no free slot; the entry is not
    /// enqueued and no command id is consumed.
    pub fn submit(&mut self, now: SimTime, sqe: Sqe) -> Result<u64, RingFull> {
        let cid = self.next_cid;
        self.ring.push((cid, now, sqe))?;
        self.next_cid += 1;
        Ok(cid)
    }

    /// Device side: the oldest queued entry, without consuming it.
    #[must_use]
    pub fn peek(&self) -> Option<&(u64, SimTime, Sqe)> {
        self.ring.peek()
    }

    /// Device side: consumes the oldest queued entry.
    pub fn pop(&mut self) -> Option<(u64, SimTime, Sqe)> {
        self.ring.pop()
    }

    /// Command ids handed out so far ( = total submissions attempted
    /// through this queue that were accepted into the ring).
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.next_cid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sqe(lba: u64) -> Sqe {
        Sqe { op: Op::Write, lba, pages: 1, cached: false }
    }

    #[test]
    fn submission_queue_is_fifo_with_sequential_cids() {
        let mut sq = SubmissionQueue::new(4);
        for i in 0..3 {
            let cid = sq.submit(SimTime::from_ns(i), sqe(i)).unwrap();
            assert_eq!(cid, i);
        }
        assert_eq!(sq.len(), 3);
        for i in 0..3 {
            let (cid, at, e) = sq.pop().unwrap();
            assert_eq!((cid, at, e.lba), (i, SimTime::from_ns(i), i));
        }
        assert!(sq.pop().is_none());
    }

    #[test]
    fn full_ring_rejects_without_consuming_a_cid() {
        let mut sq = SubmissionQueue::new(2);
        sq.submit(SimTime::ZERO, sqe(0)).unwrap();
        sq.submit(SimTime::ZERO, sqe(1)).unwrap();
        assert!(sq.is_full());
        assert_eq!(sq.submit(SimTime::ZERO, sqe(2)), Err(RingFull));
        assert_eq!(sq.submitted(), 2);
        // Freeing a slot makes the next submission take cid 2.
        sq.pop().unwrap();
        assert_eq!(sq.submit(SimTime::ZERO, sqe(2)).unwrap(), 2);
    }

    #[test]
    fn cursors_wrap_the_slot_array_many_times() {
        let mut sq = SubmissionQueue::new(4);
        for round in 0..100u64 {
            sq.submit(SimTime::from_ns(round), sqe(round)).unwrap();
            let (cid, _, e) = sq.pop().unwrap();
            assert_eq!((cid, e.lba), (round, round));
        }
        assert!(sq.is_empty());
        assert_eq!(sq.submitted(), 100);
    }

    #[test]
    fn depth_rounds_up_to_power_of_two() {
        let mut sq = SubmissionQueue::new(3);
        for i in 0..4 {
            sq.submit(SimTime::ZERO, sqe(i)).unwrap();
        }
        assert!(sq.is_full());
    }
}
