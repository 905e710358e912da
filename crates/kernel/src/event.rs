//! Deterministic future-event list.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// Log2 of the calendar bucket width in nanoseconds (256 ns buckets).
/// Pop walks the cursor bucket's list for its minimum, so buckets must
/// stay at a handful of entries. The fNoC's flit events wait on the
/// network's own lanes ([`FifoLanes`]), not here, so the calendar holds
/// only host, channel-leg, GC and timer events: a pop scans 1.5 to 2.1
/// entries on average on the simulator's benchmark workloads at this
/// width, and 1.4 to 1.9 at 16 ns. The largest bucket, 65 entries, is a
/// queue-depth-64 admission burst at one instant, which fills one bucket
/// at any width. Going from 16 to 256 ns ran the Baseline trace replay
/// 1.13× faster, on top of the far run and the per-channel GC pick. A
/// schedule packed far more densely pays for the width in longer scans,
/// and for the lists in pointer chasing: pushing and popping 10,000
/// events inside 5 µs, about 500 per bucket, takes a median 14.4 ms,
/// against 6.6 ms with a contiguous `Vec` per bucket and, in an earlier
/// measurement, 0.63 ms in 16 ns `Vec` buckets. Moving the cursor over
/// empty buckets costs nothing per bucket (two `trailing_zeros` find the
/// next one).
const BUCKET_SHIFT: u32 = 8;
/// Number of calendar buckets (a power of two, one occupancy bit each,
/// and at most 64 occupancy words, one summary bit each). The calendar
/// window spans `NUM_BUCKETS << BUCKET_SHIFT` ≈ 1.05 ms of simulated
/// time: enough for the Baseline's host and copyback legs, which GC
/// copies on the shared system bus park 0.1 to 0.7 ms ahead, and for
/// erases and timers, so that on the benchmark workloads only a trace
/// replay's up-front arrivals overflow (into the far run). At 16 ns
/// buckets (a 66 µs window) those legs took 241,208 of a Baseline trace
/// replay's 560,637 events through the far heap. A bucket costs one
/// `u32` list head (16 KB for the ring). When each bucket was its own
/// `Vec` (~100 KB of headers, 4,096 heap blocks), a 16,384-bucket ring
/// (4× the window, at 16 ns) ran that replay at 0.76×, because its
/// headers no longer stayed cache-resident; the list heads of such a
/// ring would take 64 KB, which has not been measured.
const NUM_BUCKETS: usize = 4096;
/// Words of the occupancy bitmap.
const OCCUPANCY_WORDS: usize = NUM_BUCKETS / 64;
const _: () = assert!(
    NUM_BUCKETS.is_power_of_two() && NUM_BUCKETS.is_multiple_of(64) && OCCUPANCY_WORDS <= 64
);

/// The end of a bucket's list or of the free list.
const NIL: u32 = u32::MAX;

/// Bits of an entry's packed order that hold the insertion sequence;
/// the rank sits above them.
const SEQ_BITS: u32 = 56;

/// A deterministic priority queue of timestamped events.
///
/// Events are delivered in non-decreasing timestamp order. Events that
/// share a timestamp are delivered in the order they were pushed
/// (FIFO tie-breaking), which makes every simulation built on this queue
/// fully deterministic and replayable.
///
/// Same-time ordering can additionally be biased with an explicit *rank*
/// ([`EventQueue::push_ranked`]): at equal timestamps, lower ranks pop
/// first regardless of push order, and FIFO applies within a rank. Plain
/// [`EventQueue::push`] uses [`DEFAULT_RANK`]. Ranks exist so that a
/// caller injecting events incrementally (e.g. a live host front-end
/// feeding arrivals between steps) can reproduce the exact pop order of
/// a caller that pushed the same events up front: give the incremental
/// events a rank below `DEFAULT_RANK` and the tie-break no longer
/// depends on *when* they were pushed.
///
/// # Implementation
///
/// Two tiers: a bucketed *calendar* covering a sliding near-future
/// window, and an overflow for events beyond it. The common
/// short-horizon push/pop is O(1) amortized — link into a bucket, scan
/// the earliest non-empty bucket — instead of the heap's O(log n) sift
/// per operation. The calendar's entries all live in one slab of
/// slots; each bucket is a singly linked list through the slab, found
/// by its `u32` head, and freed slots go on a LIFO free list, so the
/// few live slots are reused while still in cache. An occupancy bitmap
/// over the buckets, with one summary bit per bitmap word, lets the
/// cursor jump straight to the next non-empty bucket, so a sparse
/// schedule costs no more per pop than a dense one. The overflow is a
/// FIFO *run* of far pushes that arrived in key order (a trace replay's
/// up-front arrivals), appended in O(1), beside a binary heap for the
/// far pushes that did not; the earliest far event is the lesser of the
/// run's head and the heap's top. Far events migrate into the calendar
/// as the window slides over their timestamps. Every entry is ordered
/// by one packed [`EventKey`], so ordering (including FIFO tie-breaking
/// by insertion sequence) is bit-identical to a pure-heap
/// implementation; a randomized differential test asserts it, with the
/// calendar's storage audited after every operation.
///
/// Events a caller schedules at a few constant delays need no calendar
/// at all: [`FifoLanes`] stamped from this queue's counter
/// ([`EventQueue::orders`]) hold them, and a caller that pops whichever
/// of [`EventQueue::peek_key`] and [`FifoLanes::peek_key`] is smaller
/// sees exactly the order of one queue holding both.
///
/// # Example
///
/// ```
/// use dssd_kernel::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_us(2), "b");
/// q.push(SimTime::from_us(1), "a");
/// q.push(SimTime::from_us(2), "c"); // same time as "b", pushed later
///
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert_eq!(q.pop().unwrap().1, "c");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Near-future calendar storage: every calendar entry sits in one
    /// slot, and every slot is on exactly one list, its bucket's or the
    /// free list.
    slots: Vec<Slot<E>>,
    /// The ring of buckets, one per time quantum: the first slot of
    /// each bucket's list, [`NIL`] while the bucket is empty.
    heads: Box<[u32]>,
    /// The first slot of the free list ([`NIL`] if none): the most
    /// recently freed slot is reused first.
    free: u32,
    /// Bit `i` is set iff bucket `i` is non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Bit `w` is set iff `occupied[w]` is non-zero.
    summary: u64,
    /// Events currently in the calendar tier.
    near_len: usize,
    /// Quantum index (`time >> BUCKET_SHIFT`) of the bucket at `cursor`.
    window_start_q: u64,
    /// Ring position of the earliest possibly-non-empty bucket.
    cursor: usize,
    /// Overflow tier, with `far_run`: events at or beyond
    /// `window_start_q + NUM_BUCKETS` whose push came earlier in key
    /// order than the run's tail. An aligned second-level ring of pages
    /// in place of a heap ran 15% faster on the sparse Baseline trace
    /// replay but 0.91× on the two-tenant serve workload.
    far: BinaryHeap<Reverse<Entry<E>>>,
    /// Overflow events pushed in key order: a far push at or after the
    /// run's tail appends here, so the run stays sorted and its head is
    /// its minimum. A trace replay pushes its arrivals up front in time
    /// order, and they all land here instead of in `far`, which made the
    /// Baseline replay 1.16× faster at 16 ns buckets and 1.07× at 256 ns.
    far_run: VecDeque<Entry<E>>,
    orders: Orders,
    popped: u64,
}

/// Rank assigned by [`EventQueue::push`]. Ranks below this pop first at
/// equal timestamps; see [`EventQueue::push_ranked`].
pub const DEFAULT_RANK: u8 = 1;

/// Rank for host-arrival events: sorts before internally-scheduled events
/// ([`DEFAULT_RANK`]) at the same instant, no matter when it was pushed.
pub const ARRIVAL_RANK: u8 = 0;

/// An event's place in the total pop order — its time, then its rank,
/// then its insertion sequence — packed into one word, so comparing two
/// events is one integer compare. Keys drawn from one [`Orders`] counter
/// are unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(u128);

impl EventKey {
    /// Greater than every event's key.
    pub const MAX: EventKey = EventKey(u128::MAX);

    fn new(time: SimTime, order: u64) -> Self {
        EventKey((u128::from(time.as_ns()) << 64) | u128::from(order))
    }

    /// The least key at `time`: above every earlier event's key and
    /// below every key at `time` or later, so "key below `at(t)`" means
    /// "strictly earlier than `t`".
    #[must_use]
    pub fn at(time: SimTime) -> Self {
        EventKey::new(time, 0)
    }

    /// The event's time.
    #[must_use]
    pub fn time(self) -> SimTime {
        SimTime::from_ns((self.0 >> 64) as u64)
    }
}

/// The insertion counter behind the same-time tie-break: each draw
/// packs a rank above a sequence number one greater than the last.
/// Every [`EventQueue`] push draws from the queue's own counter, and
/// [`FifoLanes::push`] draws from whichever counter it is handed, so
/// lane entries stamped from a queue's counter ([`EventQueue::orders`])
/// tie-break against the queue's entries exactly as if they had been
/// pushed into it.
#[derive(Debug, Clone, Default)]
pub struct Orders {
    seq: u64,
}

impl Orders {
    /// A counter whose first draw has sequence zero.
    #[must_use]
    pub fn new() -> Self {
        Orders::default()
    }

    /// The next order at `rank`: `rank << 56 | seq`.
    fn draw(&mut self, rank: u8) -> u64 {
        let seq = self.seq;
        debug_assert!(seq < 1 << SEQ_BITS, "insertion sequence overflows the order key");
        self.seq += 1;
        (u64::from(rank) << SEQ_BITS) | seq
    }
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    /// `rank << SEQ_BITS | seq`: the same-time tie-break in one word.
    order: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The entry's place in the total `(time, rank, seq)` order.
    fn key(&self) -> EventKey {
        EventKey::new(self.time, self.order)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// One slot of the calendar's slab.
#[derive(Debug, Clone)]
struct Slot<E> {
    /// The next slot of the list this one is on, or [`NIL`].
    next: u32,
    /// The entry of a bucket's slot; `None` on the free list.
    entry: Option<Entry<E>>,
}

impl<E> Slot<E> {
    fn entry(&self) -> &Entry<E> {
        self.entry.as_ref().expect("a bucket's slot holds an entry")
    }
}

fn quantum(time: SimTime) -> u64 {
    time.as_ns() >> BUCKET_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            heads: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            free: NIL,
            occupied: [0; OCCUPANCY_WORDS],
            summary: 0,
            near_len: 0,
            window_start_q: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            far_run: VecDeque::new(),
            orders: Orders::new(),
            popped: 0,
        }
    }

    /// The insertion counter every push draws from. Stamp [`FifoLanes`]
    /// entries from it to merge them with this queue by key.
    pub fn orders(&mut self) -> &mut Orders {
        &mut self.orders
    }

    /// Schedules `event` at absolute time `time` with [`DEFAULT_RANK`].
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, DEFAULT_RANK, event);
    }

    /// Schedules `event` at `time` with an explicit same-time rank.
    /// At equal timestamps lower ranks pop first; within a rank, pushes
    /// pop FIFO. See the type-level docs for why ranks exist.
    pub fn push_ranked(&mut self, time: SimTime, rank: u8, event: E) {
        let entry = Entry { time, order: self.orders.draw(rank), event };
        let q = quantum(time);
        if q >= self.window_start_q + NUM_BUCKETS as u64 {
            match self.far_run.back() {
                Some(tail) if entry.key() < tail.key() => self.far.push(Reverse(entry)),
                _ => self.far_run.push_back(entry),
            }
            return;
        }
        // Late pushes (before the window) land in the cursor bucket: the
        // per-bucket min-scan still delivers them in key order before
        // anything later.
        let bucket = if q <= self.window_start_q {
            self.cursor
        } else {
            (q % NUM_BUCKETS as u64) as usize
        };
        self.insert_near(bucket, entry);
    }

    /// Links `entry` at the head of `bucket`'s list, in the most
    /// recently freed slot or, with the free list empty, a new one.
    fn insert_near(&mut self, bucket: usize, entry: Entry<E>) {
        let slot = Slot { next: self.heads[bucket], entry: Some(entry) };
        let at = if self.free == NIL {
            debug_assert!(self.slots.len() < NIL as usize, "calendar slot index overflows");
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let at = self.free;
            let free = &mut self.slots[at as usize];
            self.free = free.next;
            *free = slot;
            at
        };
        self.heads[bucket] = at;
        self.occupied[bucket / 64] |= 1 << (bucket % 64);
        self.summary |= 1 << (bucket / 64);
        self.near_len += 1;
    }

    /// Ring position of the first non-empty bucket at or after `from`,
    /// wrapping around the ring. The calendar must not be empty.
    fn next_occupied(&self, from: usize) -> usize {
        debug_assert!(self.near_len > 0);
        let word = from / 64;
        let bits = self.occupied[word] & (u64::MAX << (from % 64));
        if bits != 0 {
            return word * 64 + bits.trailing_zeros() as usize;
        }
        // The first non-empty word after `word`, else the first one from
        // the ring's start, which may be `word` itself, below `from`.
        let later = self.summary & ((u64::MAX << word) << 1);
        let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
        word * 64 + self.occupied[word].trailing_zeros() as usize
    }

    /// Migrates far-tier events whose quantum fell inside the calendar
    /// window into their buckets. Only entries at or ahead of the cursor
    /// can qualify, because the far tier never holds anything earlier
    /// than a past window end.
    fn drain_far_into_window(&mut self) {
        let window_end = self.window_start_q + NUM_BUCKETS as u64;
        // A bucket min-scans its entries, so the run and the heap can
        // migrate one after the other rather than merged by key.
        while self.far_run.front().is_some_and(|e| quantum(e.time) < window_end) {
            let entry = self.far_run.pop_front().expect("checked non-empty");
            self.insert_migrated(entry);
        }
        while self.far.peek().is_some_and(|Reverse(e)| quantum(e.time) < window_end) {
            let Some(Reverse(entry)) = self.far.pop() else { unreachable!() };
            self.insert_migrated(entry);
        }
    }

    fn insert_migrated(&mut self, entry: Entry<E>) {
        let q = quantum(entry.time).max(self.window_start_q);
        self.insert_near((q % NUM_BUCKETS as u64) as usize, entry);
    }

    /// The key of the earliest far-tier event: the least of the run's
    /// head and the heap's top.
    fn far_front_key(&self) -> Option<EventKey> {
        let run = self.far_run.front().map(Entry::key);
        let heap = self.far.peek().map(|Reverse(e)| e.key());
        run.into_iter().chain(heap).min()
    }

    /// The least key of non-empty `bucket`, its slot, and the slot
    /// before that in the list ([`NIL`] if it is the head). Buckets are
    /// small, so the walk is short.
    fn min_in(&self, bucket: usize) -> (EventKey, u32, u32) {
        let mut best = self.heads[bucket];
        let mut best_key = self.slots[best as usize].entry().key();
        let mut best_prev = NIL;
        let (mut prev, mut at) = (best, self.slots[best as usize].next);
        while at != NIL {
            let slot = &self.slots[at as usize];
            let key = slot.entry().key();
            if key < best_key {
                (best_key, best, best_prev) = (key, at, prev);
            }
            (prev, at) = (at, slot.next);
        }
        (best_key, best, best_prev)
    }

    /// Moves the cursor to the earliest non-empty bucket and returns its
    /// minimum entry's slot and the slot before it ([`NIL`] if none), or
    /// `None` if the queue is empty.
    fn front(&mut self) -> Option<(u32, u32)> {
        if self.heads[self.cursor] == NIL {
            self.advance()?;
        }
        // The cursor bucket holds the earliest quantum: its minimum key
        // is the queue's.
        let (_, best, prev) = self.min_in(self.cursor);
        Some((best, prev))
    }

    /// Moves the cursor off its empty bucket to the earliest non-empty
    /// one, migrating far events the moved window now covers; `None` if
    /// the queue is empty.
    fn advance(&mut self) -> Option<()> {
        if self.near_len == 0 {
            // Calendar empty: jump the window to the earliest far event.
            self.window_start_q = quantum(self.far_front_key()?.time());
            self.cursor = (self.window_start_q % NUM_BUCKETS as u64) as usize;
        } else {
            // Jump to the next non-empty bucket. Far events are all
            // beyond the old window end, so none can precede it; the
            // wider window may take some of them in behind it.
            let next = self.next_occupied(self.cursor);
            self.window_start_q += ((next + NUM_BUCKETS - self.cursor) % NUM_BUCKETS) as u64;
            self.cursor = next;
        }
        self.drain_far_into_window();
        Some(())
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, prev) = self.front()?;
        // Unlink the slot and put it at the head of the free list.
        let slot = &mut self.slots[at as usize];
        let next = std::mem::replace(&mut slot.next, self.free);
        let entry = slot.entry.take().expect("a bucket's slot holds an entry");
        self.free = at;
        match prev {
            NIL => self.heads[self.cursor] = next,
            prev => self.slots[prev as usize].next = next,
        }
        if self.heads[self.cursor] == NIL {
            let word = self.cursor / 64;
            self.occupied[word] &= !(1 << (self.cursor % 64));
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
        }
        self.near_len -= 1;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// The key of the earliest pending event, if any.
    #[must_use]
    pub fn peek_key(&self) -> Option<EventKey> {
        if self.near_len == 0 {
            return self.far_front_key();
        }
        // The first non-empty bucket from the cursor holds the earliest
        // calendar quantum, and every far event lies beyond the window.
        let bucket = match self.heads[self.cursor] {
            NIL => self.next_occupied(self.cursor),
            _ => self.cursor,
        };
        Some(self.min_in(bucket).0)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len() + self.far_run.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (a cheap progress/size
    /// metric for long simulations), so `delivered() + len()` always
    /// equals the number of pushes.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.popped
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// `N` FIFO lanes of pending events, for a caller that schedules each
/// lane's events at one constant delay after a non-decreasing "now"
/// (a flit-level network's link and router delays). Such pushes arrive
/// in key order, so a push appends and each lane's head is its minimum:
/// no bucket, no scan, and a pop compares `N` heads.
///
/// A push earlier than its lane's tail is inserted in key order, so
/// each lane stays sorted whatever the caller pushes; a caller that
/// puts an event on the wrong lane loses speed, never order.
///
/// Entries draw their same-time tie-break from an [`Orders`] counter at
/// [`DEFAULT_RANK`]. Stamped from an [`EventQueue`]'s counter, they
/// merge with that queue by [`EventKey`]: pop whichever head is smaller
/// and the sequence is exactly that of one queue holding both.
///
/// # Example
///
/// ```
/// use dssd_kernel::{EventKey, EventQueue, FifoLanes, SimTime};
///
/// let mut q = EventQueue::new();
/// let mut lanes: FifoLanes<&str, 2> = FifoLanes::new();
/// q.push(SimTime::from_ns(50), "queue 50");
/// lanes.push(0, SimTime::from_ns(50), q.orders(), "lane 50"); // stamped later
/// lanes.push(0, SimTime::from_ns(20), q.orders(), "behind the tail");
/// lanes.push(1, SimTime::from_ns(30), q.orders(), "lane 1");
///
/// let mut order = Vec::new();
/// loop {
///     let head = q.peek_key().unwrap_or(EventKey::MAX);
///     match lanes.pop_before(head).or_else(|| q.pop()) {
///         Some((_, e)) => order.push(e),
///         None => break,
///     }
/// }
/// assert_eq!(order, ["behind the tail", "lane 1", "queue 50", "lane 50"]);
/// ```
#[derive(Debug, Clone)]
pub struct FifoLanes<E, const N: usize> {
    lanes: [VecDeque<Entry<E>>; N],
    /// Each lane's head key, [`EventKey::MAX`] while it is empty, so a
    /// pop compares `N` words instead of reading `N` deques.
    heads: [EventKey; N],
}

impl<E, const N: usize> FifoLanes<E, N> {
    /// `N` empty lanes.
    #[must_use]
    pub fn new() -> Self {
        FifoLanes {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heads: [EventKey::MAX; N],
        }
    }

    /// Schedules `event` at `time` on `lane` (below `N`), stamped with
    /// the next order `orders` draws at [`DEFAULT_RANK`].
    pub fn push(&mut self, lane: usize, time: SimTime, orders: &mut Orders, event: E) {
        let entry = Entry { time, order: orders.draw(DEFAULT_RANK), event };
        let key = entry.key();
        let queue = &mut self.lanes[lane];
        match queue.back() {
            Some(tail) if key < tail.key() => Self::insert_sorted(queue, entry),
            _ => queue.push_back(entry),
        }
        self.heads[lane] = self.heads[lane].min(key);
    }

    /// Inserts an entry earlier than its lane's tail in key order.
    #[cold]
    fn insert_sorted(lane: &mut VecDeque<Entry<E>>, entry: Entry<E>) {
        let at = lane.partition_point(|e| e.key() < entry.key());
        lane.insert(at, entry);
    }

    /// The lane whose head has the least key, and that key
    /// ([`EventKey::MAX`] if every lane is empty).
    fn least_head(&self) -> (usize, EventKey) {
        let mut least = (0, self.heads[0]);
        for (i, &key) in self.heads.iter().enumerate().skip(1) {
            if key < least.1 {
                least = (i, key);
            }
        }
        least
    }

    /// The key of the earliest pending entry, if any.
    #[must_use]
    pub fn peek_key(&self) -> Option<EventKey> {
        Some(self.least_head().1).filter(|&key| key != EventKey::MAX)
    }

    /// Removes and returns the earliest entry if its key is below
    /// `limit`; otherwise the lanes are untouched. With `limit` the
    /// merged queue's head key, this is the merge: the lane entry pops
    /// only if it precedes everything the queue holds.
    pub fn pop_before(&mut self, limit: EventKey) -> Option<(SimTime, E)> {
        let (lane, key) = self.least_head();
        if key >= limit {
            return None;
        }
        let queue = &mut self.lanes[lane];
        let entry = queue.pop_front().expect("a lane with a head key holds an entry");
        self.heads[lane] = queue.front().map_or(EventKey::MAX, Entry::key);
        Some((entry.time, entry.event))
    }

    /// Removes and returns the earliest entry, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(EventKey::MAX)
    }

    /// Number of pending entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// True if no entries are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E, const N: usize> Default for FifoLanes<E, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), 3);
        q.push(SimTime::from_ns(10), 1);
        q.push(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_ns(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10), "a");
        q.push(SimTime::from_ns(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_ns(7), "c");
        q.push(SimTime::from_ns(7), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "a");
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        q.push(SimTime::from_ns(42), ());
        assert_eq!(q.peek_key().map(EventKey::time), Some(SimTime::from_ns(42)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.delivered(), 1);
    }

    #[test]
    fn far_horizon_events_cross_the_window() {
        // One window is NUM_BUCKETS << BUCKET_SHIFT ns; schedule well
        // beyond it, plus near events, and check global order.
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(3 * window_ns), "far");
        q.push(SimTime::from_ns(5), "near");
        q.push(SimTime::from_ns(window_ns + 7), "mid");
        q.push(SimTime::from_ns(3 * window_ns), "far2"); // FIFO with "far"
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_key().map(EventKey::time), Some(SimTime::from_ns(5)));
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "far2");
        assert!(q.pop().is_none());
        assert_eq!(q.delivered(), 4);
    }

    #[test]
    fn same_bucket_different_times_order_correctly() {
        // Distinct times inside one bucket quantum must still sort.
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(900), "b");
        q.push(SimTime::from_ns(100), "a");
        q.push(SimTime::from_ns(1000), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn delivered_plus_len_equals_pushes() {
        let mut q = EventQueue::new();
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for i in 0..1000u64 {
            q.push(SimTime::from_ns(i * 173 % (2 * window_ns)), i);
        }
        for _ in 0..400 {
            q.pop();
        }
        assert_eq!(q.delivered(), 400);
        assert_eq!(q.len(), 600);
        assert_eq!(q.delivered() + q.len() as u64, 1000);
    }

    /// Reference entry: the `(time, rank, seq)` order compared field by
    /// field, independent of the packed key under test.
    struct RefEntry<E> {
        time: SimTime,
        rank: u8,
        seq: u64,
        event: E,
    }

    impl<E> RefEntry<E> {
        fn order(&self) -> (SimTime, u8, u64) {
            (self.time, self.rank, self.seq)
        }
    }
    impl<E> PartialEq for RefEntry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.order() == other.order()
        }
    }
    impl<E> Eq for RefEntry<E> {}
    impl<E> PartialOrd for RefEntry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for RefEntry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.order().cmp(&other.order())
        }
    }

    /// Reference implementation: the original single-tier binary heap.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<RefEntry<E>>>,
        seq: u64,
        popped: u64,
    }

    impl<E: Copy> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), seq: 0, popped: 0 }
        }

        fn push_ranked(&mut self, time: SimTime, rank: u8, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(RefEntry { time, rank, seq, event }));
        }

        fn peek(&self) -> Option<(SimTime, E)> {
            self.heap.peek().map(|Reverse(e)| (e.time, e.event))
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(e) = self.heap.pop()?;
            self.popped += 1;
            Some((e.time, e.event))
        }
    }

    impl<E> EventQueue<E> {
        /// Checks the calendar's storage: every slot is on exactly one
        /// list, its bucket's (holding an entry) or the free list
        /// (holding none); `near_len` counts the listed entries; each
        /// occupancy bit and summary bit is set exactly when its bucket
        /// or word is non-empty; and every entry sits in its own
        /// quantum's bucket inside the window, or in the cursor bucket
        /// if its quantum is not past the window start (a late push).
        fn audit(&self) -> Result<(), String> {
            // Which list each slot was found on: a bucket, or `FREE`.
            const FREE: usize = usize::MAX;
            let mut found = vec![None; self.slots.len()];
            let mut visit = |at: u32, list: usize| match found.get_mut(at as usize) {
                None => Err(format!("list {list} links slot {at}, past the slab")),
                Some(Some(first)) => Err(format!("slot {at} is on list {first} and {list}")),
                Some(seen) => {
                    *seen = Some(list);
                    Ok(())
                }
            };
            let mut listed = 0;
            for word in 0..OCCUPANCY_WORDS {
                if (self.summary >> word & 1 == 1) != (self.occupied[word] != 0) {
                    return Err(format!("summary bit {word} disagrees with its word"));
                }
                let mut bits = self.occupied[word];
                while bits != 0 {
                    let bucket = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let mut at = self.heads[bucket];
                    if at == NIL {
                        return Err(format!("occupancy bit {bucket} is set on an empty bucket"));
                    }
                    while at != NIL {
                        visit(at, bucket)?;
                        let slot = &self.slots[at as usize];
                        let Some(entry) = &slot.entry else {
                            return Err(format!("slot {at} in bucket {bucket} holds no entry"));
                        };
                        let q = quantum(entry.time);
                        let home = if q <= self.window_start_q {
                            self.cursor
                        } else {
                            (q % NUM_BUCKETS as u64) as usize
                        };
                        if bucket != home || q >= self.window_start_q + NUM_BUCKETS as u64 {
                            return Err(format!(
                                "an entry of quantum {q} sits in bucket {bucket}, window start {}",
                                self.window_start_q
                            ));
                        }
                        listed += 1;
                        at = slot.next;
                    }
                }
            }
            let mut at = self.free;
            while at != NIL {
                visit(at, FREE)?;
                if self.slots[at as usize].entry.is_some() {
                    return Err(format!("free slot {at} holds an entry"));
                }
                at = self.slots[at as usize].next;
            }
            // A non-empty bucket whose occupancy bit is clear leaves its
            // slots unvisited, so this also catches a cleared bit.
            if let Some(at) = found.iter().position(Option::is_none) {
                return Err(format!("slot {at} is on no list reached from a set bit"));
            }
            same(self.near_len, listed, "near_len vs listed entries")
        }
    }

    type Popped = Option<(SimTime, u64)>;

    /// `Err` naming `what` unless the queue's `got` equals the
    /// reference's `want`.
    fn same<T: PartialEq + std::fmt::Debug>(got: T, want: T, what: &str) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!("{what}: queue {got:?}, reference {want:?}"))
        }
    }

    /// Lanes in the differential schedule.
    const LANES: usize = 3;

    /// The constant delay of each lane in the differential schedule:
    /// inside one bucket, a few buckets, and most of the window.
    const LANE_DELAYS: [u64; LANES] = [5, 40, 50_000];

    /// A queue plus lanes stamped from its counter, popped the way an
    /// embedder merges them: the least lane head pops only if its key is
    /// below the queue's head key.
    struct Merged {
        queue: EventQueue<u64>,
        lanes: FifoLanes<u64, LANES>,
        lane_pops: u64,
    }

    impl Merged {
        fn pop(&mut self) -> Popped {
            let lane = match self.queue.peek_key() {
                Some(head) => self.lanes.pop_before(head),
                None => self.lanes.pop(),
            };
            if lane.is_some() {
                self.lane_pops += 1;
                return lane;
            }
            self.queue.pop()
        }

        fn peek_time(&self) -> Option<SimTime> {
            let heads = [self.queue.peek_key(), self.lanes.peek_key()];
            heads.into_iter().flatten().min().map(EventKey::time)
        }

        fn len(&self) -> usize {
            self.queue.len() + self.lanes.len()
        }

        fn delivered(&self) -> u64 {
            self.queue.delivered() + self.lane_pops
        }
    }

    /// Drives the queue, with or without lanes, and the heap reference
    /// through one random schedule of pushes and pops, comparing every
    /// pop and `peek_time`, `len` and `delivered` before every operation.
    ///
    /// Simulated "now" only moves forward, like a real event loop.
    /// Calendar pushes target six horizon classes: the same bucket, a
    /// few microseconds, the whole window, the far tier, gaps of many
    /// windows, and exactly one lane delay, which ties with that lane's
    /// entries pushed at the same now — ranked below them or after them
    /// in push order. With `lanes`, a quarter of the pushes go to a
    /// random lane at its constant delay after now, except that one in
    /// eight lands anywhere up to that delay, often behind the lane's
    /// tail. Now and then both sides drain to empty and the schedule
    /// restarts from the last popped time. Together these exercise late
    /// pushes, cursor jumps that wrap the occupancy bitmap, far
    /// migration, window jumps over an empty calendar, sorted lane
    /// inserts, and same-time ties between lane heads and ranked
    /// calendar entries.
    ///
    /// With `arrivals`, a trace replay's up-front arrivals come first: a
    /// sorted run of [`ARRIVAL_RANK`] events spanning dozens of windows,
    /// some sharing a time, pushed before any pop, so they fill the far
    /// run and later far pushes land out of order in the heap. A seventh
    /// horizon class then pushes at a pending arrival's exact time, at
    /// either rank: a same-time tie with a run entry, decided in the far
    /// heap while the arrival is beyond the window and in the calendar
    /// once it has migrated.
    fn differential(rng: &mut Rng, lanes: bool, arrivals: bool) -> Result<(), String> {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut merged =
            Merged { queue: EventQueue::new(), lanes: FifoLanes::new(), lane_pops: 0 };
        let mut reference = HeapQueue::new();
        let mut now = 0u64;
        let mut id = 0u64;
        let mut arrival_times = Vec::new();
        if arrivals {
            let mut t = 0;
            for _ in 0..rng.range_u64(100..400) {
                t += match rng.range_u64(0..8) {
                    0 => 0,
                    1 => rng.range_u64(0..1024),
                    _ => rng.range_u64(0..window_ns / 2),
                };
                arrival_times.push(t);
                merged.queue.push_ranked(SimTime::from_ns(t), ARRIVAL_RANK, id);
                reference.push_ranked(SimTime::from_ns(t), ARRIVAL_RANK, id);
                id += 1;
            }
        }
        let check_front = |merged: &Merged, reference: &HeapQueue<u64>| {
            merged.queue.audit()?;
            same(merged.peek_time(), reference.peek().map(|(t, _)| t), "peek_time")?;
            same(merged.len(), reference.heap.len(), "len")?;
            same(merged.delivered(), reference.popped, "delivered")
        };
        for _ in 0..3000 {
            check_front(&merged, &reference)?;
            let op = rng.range_u64(0..400);
            if op < 130 {
                let a = merged.pop();
                same(a, reference.pop(), "pop")?;
                if let Some((t, _)) = a {
                    now = now.max(t.as_ns());
                }
            } else if op < 132 {
                // Drain to empty; the next push re-opens an empty queue.
                while let Some((t, e)) = reference.pop() {
                    same(merged.pop(), Some((t, e)), "drain pop")?;
                    check_front(&merged, &reference)?;
                    now = t.as_ns();
                }
                same(merged.pop(), None, "pop of a drained queue")?;
            } else if op < 300 || !lanes {
                let pending = &arrival_times[arrival_times.partition_point(|&t| t < now)..];
                let horizon = match rng.range_u64(0..7) {
                    0 => rng.range_u64(0..1024),
                    1 => rng.range_u64(0..65536),
                    2 => rng.range_u64(0..window_ns),
                    3 => rng.range_u64(0..3 * window_ns),
                    4 => rng.range_u64(4..64) * window_ns + rng.range_u64(0..window_ns),
                    6 if !pending.is_empty() => {
                        pending[rng.range_u64(0..pending.len() as u64) as usize] - now
                    }
                    _ => LANE_DELAYS[rng.range_u64(0..LANES as u64) as usize],
                };
                let t = SimTime::from_ns(now + horizon);
                let rank = if rng.range_u64(0..4) == 0 { ARRIVAL_RANK } else { DEFAULT_RANK };
                merged.queue.push_ranked(t, rank, id);
                reference.push_ranked(t, rank, id);
                id += 1;
            } else {
                let lane = rng.range_u64(0..LANES as u64) as usize;
                let delay = match rng.range_u64(0..8) {
                    0 => rng.range_u64(0..LANE_DELAYS[lane]),
                    _ => LANE_DELAYS[lane],
                };
                let t = SimTime::from_ns(now + delay);
                merged.lanes.push(lane, t, merged.queue.orders(), id);
                reference.push_ranked(t, DEFAULT_RANK, id);
                id += 1;
            }
        }
        loop {
            check_front(&merged, &reference)?;
            let a = merged.pop();
            same(a, reference.pop(), "final drain pop")?;
            if a.is_none() {
                break;
            }
        }
        same(merged.delivered(), id, "delivered after the final drain")
    }

    /// Randomized differential test: the queue must pop the exact same
    /// sequence as the heap-only reference for any interleaved push/pop
    /// schedule, including times that straddle the window.
    #[test]
    fn differential_against_heap_reference() {
        crate::check(20, 0xCA1E_4DA2, |rng| differential(rng, false, false));
    }

    /// Up-front arrivals in the far run, out-of-order far pushes in the
    /// heap and same-time ties among the run, the heap and the calendar
    /// must pop exactly as the heap reference, with and without lanes.
    #[test]
    fn upfront_arrivals_pop_like_the_heap_reference() {
        crate::check(20, 0xA22_1BA1, |rng| differential(rng, false, true));
        crate::check(10, 0xA22_1A7E, |rng| differential(rng, true, true));
    }

    /// Lanes stamped from the queue's counter and merged by key must pop
    /// exactly as one heap holding both: behind-the-tail lane pushes
    /// keep their lane sorted, and same-time ties with ranked calendar
    /// entries break by rank, then by stamp.
    #[test]
    fn lanes_merged_by_key_pop_like_the_heap_reference() {
        crate::check(20, 0x1A7E_5EED, |rng| differential(rng, true, false));
    }

    /// A lower-rank event pushed *after* a same-time default-rank event
    /// still pops first: the rank decides the tie, not push order.
    #[test]
    fn lower_rank_wins_same_time_ties() {
        let t = SimTime::from_ns(500);
        let mut q = EventQueue::new();
        q.push(t, "internal");
        q.push_ranked(t, ARRIVAL_RANK, "arrival");
        q.push(t, "internal2");
        q.push_ranked(t, ARRIVAL_RANK, "arrival2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["arrival", "arrival2", "internal", "internal2"]);
    }

    /// The pop order of ranked arrivals must not depend on whether they
    /// were pushed up front (batch) or just-in-time between pops (live):
    /// the exact invariant the service front-end relies on.
    #[test]
    fn rank_makes_push_time_irrelevant() {
        let arrivals = [(10u64, "a0"), (20, "a1"), (20, "a2"), (35, "a3")];
        let internals = [(10u64, "i0"), (20, "i1"), (35, "i2")];

        // Batch: all arrivals first (lowest seqs), then internals.
        let mut batch = EventQueue::new();
        for &(t, e) in &arrivals {
            batch.push_ranked(SimTime::from_ns(t), ARRIVAL_RANK, e);
        }
        for &(t, e) in &internals {
            batch.push(SimTime::from_ns(t), e);
        }
        let batch_order: Vec<&str> =
            std::iter::from_fn(|| batch.pop().map(|(_, e)| e)).collect();

        // Live: internals first, arrivals injected interleaved with pops.
        let mut live = EventQueue::new();
        for &(t, e) in &internals {
            live.push(SimTime::from_ns(t), e);
        }
        let mut live_order = Vec::new();
        let mut pending = arrivals.iter().peekable();
        loop {
            // Inject every arrival due at or before the next pop instant.
            while let Some(&&(t, e)) = pending.peek() {
                let due = match live.peek_key() {
                    Some(next) => SimTime::from_ns(t) <= next.time(),
                    None => true,
                };
                if !due {
                    break;
                }
                live.push_ranked(SimTime::from_ns(t), ARRIVAL_RANK, e);
                pending.next();
            }
            match live.pop() {
                Some((_, e)) => live_order.push(e),
                None => break,
            }
        }
        assert_eq!(live_order, batch_order);
    }

    /// Ties pushed into different tiers (one far, one near after the
    /// window slides) must still break FIFO by insertion order.
    #[test]
    fn cross_tier_ties_break_fifo() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let t = SimTime::from_ns(2 * window_ns + 11);
        let mut q = EventQueue::new();
        q.push(t, "first"); // far tier
        q.push(SimTime::from_ns(1), "warm");
        assert_eq!(q.pop().unwrap().1, "warm");
        // Window has not slid past t yet; push the tie directly.
        q.push(t, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    /// Any push sequence drains in (time, insertion) order.
    #[test]
    fn drains_in_stable_time_order() {
        crate::check(256, 0xD7A1_0000, |rng| {
            let n = rng.range_u64(1..200) as usize;
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_ns(rng.range_u64(0..1000)), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut count = 0;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    if t < lt || (t == lt && i < li) {
                        return Err(format!("({t:?}, {i}) popped after ({lt:?}, {li})"));
                    }
                }
                last = Some((t, i));
                count += 1;
            }
            if count != n {
                return Err(format!("{count} of {n} events drained"));
            }
            Ok(())
        });
    }

    /// Interleaved push/pop never loses or duplicates events.
    #[test]
    fn conservation_under_interleaving() {
        crate::check(256, 0xC0A5_0000, |rng| {
            let mut q = EventQueue::new();
            let mut pushed = 0u64;
            let mut popped = 0u64;
            for _ in 0..rng.range_u64(1..300) {
                if rng.chance(0.5) {
                    popped += u64::from(q.pop().is_some());
                } else {
                    q.push(SimTime::from_ns(rng.range_u64(0..100)), ());
                    pushed += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            if pushed != popped {
                return Err(format!("pushed {pushed}, popped {popped}"));
            }
            Ok(())
        });
    }
}
