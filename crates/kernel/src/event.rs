//! Deterministic future-event list.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::SimTime;

/// Log2 of the calendar bucket width in nanoseconds (16 ns buckets).
/// Tuned against the flit-level NoC workloads, where the queue sustains
/// hundreds of events per microsecond: buckets must stay at a handful of
/// entries each, because pop min-scans the cursor bucket. Wider buckets
/// make that scan quadratic-ish in the event density. Moving the cursor
/// over empty buckets costs nothing per bucket (the occupancy bitmap
/// finds the next one), so narrower buckets would buy nothing and cost
/// either a shorter window (more far-heap traffic) or a larger ring.
const BUCKET_SHIFT: u32 = 4;
/// Number of calendar buckets (a power of two and a multiple of 64, one
/// occupancy bit each). The calendar window spans `NUM_BUCKETS <<
/// BUCKET_SHIFT` ≈ 66 µs of simulated time — enough that bus/ECC/NoC/
/// flash-array completions stay in the calendar tier; only erases, GC
/// round boundaries, admission idle timers and a trace replay's
/// up-front arrivals overflow into the far heap. The ring's headers are
/// ~100 KB, small enough to stay cache-resident next to the live
/// buckets; a 16,384-bucket ring (4× the window) ran the sparse
/// Baseline trace replay at 0.76×, because its headers no longer do.
const NUM_BUCKETS: usize = 4096;
/// Words of the occupancy bitmap.
const OCCUPANCY_WORDS: usize = NUM_BUCKETS / 64;
const _: () = assert!(NUM_BUCKETS.is_power_of_two() && NUM_BUCKETS.is_multiple_of(64));

/// Bits of an entry's packed order key that hold the insertion sequence;
/// the rank sits above them.
const SEQ_BITS: u32 = 56;

/// Number of FIFO lanes in the constant-delay tier
/// ([`EventQueue::push_fifo`]).
pub const FIFOS: usize = 3;

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
/// Three tiers: a bucketed *calendar* covering a sliding near-future
/// window, a binary-heap overflow for events beyond it, and [`FIFOS`]
/// FIFO lanes for events scheduled at a constant delay. The common
/// short-horizon push/pop is O(1) amortized — append to a bucket, scan
/// the earliest non-empty bucket — instead of the heap's O(log n)
/// sift per operation. An occupancy bitmap over the buckets lets the
/// cursor jump straight to the next non-empty one, so a sparse schedule
/// costs no more per pop than a dense one. Far events migrate into the
/// calendar as the window slides over their timestamps. A FIFO lane
/// only accepts an entry at or after its tail, so each lane is sorted
/// by construction and its head is its minimum. Every entry is ordered
/// by one packed `(time, rank, seq)` key and a pop takes the least key
/// across the calendar front and the lane heads, so ordering (including
/// FIFO tie-breaking by insertion sequence) is bit-identical to a
/// pure-heap implementation; a randomized differential test asserts it.
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
    /// Near-future calendar: ring of buckets, one per time quantum.
    near: Vec<Vec<Entry<E>>>,
    /// Bit `i` is set iff `near[i]` is non-empty.
    occupied: [u64; OCCUPANCY_WORDS],
    /// Events currently in the calendar tier.
    near_len: usize,
    /// Quantum index (`time >> BUCKET_SHIFT`) of the bucket at `cursor`.
    window_start_q: u64,
    /// Ring position of the earliest possibly-non-empty bucket.
    cursor: usize,
    /// Overflow tier: events at or beyond `window_start_q + NUM_BUCKETS`.
    /// An aligned second-level ring of pages in its place ran 15% faster
    /// on the sparse Baseline trace replay but 0.91× on the two-tenant
    /// serve workload, so it stays a heap.
    far: BinaryHeap<Reverse<Entry<E>>>,
    /// Constant-delay tier: each lane sorted by key, see
    /// [`EventQueue::push_fifo`].
    fifos: [VecDeque<Entry<E>>; FIFOS],
    /// Events currently in the FIFO lanes.
    fifo_len: usize,
    /// A lower bound on every calendar key, near and far: each calendar
    /// push lowers it, and a pop that has to look at the calendar sets it
    /// to the calendar's minimum. A lane head below it pops without that
    /// look, which on flit-level NoC traffic is nearly every pop.
    calendar_floor: u128,
    seq: u64,
    popped: u64,
}

/// Where the earliest pending entry sits.
#[derive(Debug, Clone, Copy)]
enum Front {
    /// Index into the cursor bucket.
    Near(usize),
    /// The head of this FIFO lane.
    Fifo(usize),
}

/// Rank assigned by [`EventQueue::push`]. Ranks below this pop first at
/// equal timestamps; see [`EventQueue::push_ranked`].
pub const DEFAULT_RANK: u8 = 1;

/// Rank for host-arrival events: sorts before internally-scheduled events
/// ([`DEFAULT_RANK`]) at the same instant, no matter when it was pushed.
pub const ARRIVAL_RANK: u8 = 0;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    /// `rank << SEQ_BITS | seq`: the same-time tie-break in one word.
    order: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The entry's place in the total `(time, rank, seq)` order.
    fn key(&self) -> u128 {
        (u128::from(self.time.as_ns()) << 64) | u128::from(self.order)
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

fn quantum(time: SimTime) -> u64 {
    time.as_ns() >> BUCKET_SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            near: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; OCCUPANCY_WORDS],
            near_len: 0,
            window_start_q: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            fifos: std::array::from_fn(|_| VecDeque::new()),
            fifo_len: 0,
            calendar_floor: u128::MAX,
            seq: 0,
            popped: 0,
        }
    }

    /// The next insertion sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        debug_assert!(seq < 1 << SEQ_BITS, "insertion sequence overflows the order key");
        self.seq += 1;
        seq
    }

    /// Schedules `event` at absolute time `time` with [`DEFAULT_RANK`].
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, DEFAULT_RANK, event);
    }

    /// Schedules `event` at `time` with an explicit same-time rank.
    /// At equal timestamps lower ranks pop first; within a rank, pushes
    /// pop FIFO. See the type-level docs for why ranks exist.
    pub fn push_ranked(&mut self, time: SimTime, rank: u8, event: E) {
        let entry = Entry { time, order: (u64::from(rank) << SEQ_BITS) | self.next_seq(), event };
        self.calendar_floor = self.calendar_floor.min(entry.key());
        let q = quantum(time);
        if q >= self.window_start_q + NUM_BUCKETS as u64 {
            self.far.push(Reverse(entry));
            return;
        }
        // Late pushes (before the window) land in the cursor bucket: the
        // per-bucket min-scan still delivers them in key order before
        // anything later.
        let slot = if q <= self.window_start_q {
            self.cursor
        } else {
            (q % NUM_BUCKETS as u64) as usize
        };
        self.insert_near(slot, entry);
    }

    /// Schedules `event` at `time` with [`DEFAULT_RANK`] on FIFO lane
    /// `fifo` (below [`FIFOS`]): exactly [`EventQueue::push`] in the pop
    /// order, only cheaper for a caller that schedules each lane's events
    /// at one constant delay after a non-decreasing "now". Such pushes
    /// arrive in time order, so the lane appends them and its head is
    /// always its minimum — no bucket, no scan. A push earlier than the
    /// lane's tail goes to the calendar instead, so a caller that
    /// classifies an event wrongly loses speed, never order.
    pub fn push_fifo(&mut self, fifo: usize, time: SimTime, event: E) {
        if self.fifos[fifo].back().is_some_and(|tail| time < tail.time) {
            self.push(time, event);
            return;
        }
        let order = (u64::from(DEFAULT_RANK) << SEQ_BITS) | self.next_seq();
        self.fifos[fifo].push_back(Entry { time, order, event });
        self.fifo_len += 1;
    }

    fn insert_near(&mut self, slot: usize, entry: Entry<E>) {
        self.near[slot].push(entry);
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.near_len += 1;
    }

    /// Ring position of the first non-empty bucket at or after `from`,
    /// wrapping around the ring. The calendar must not be empty.
    fn next_occupied(&self, from: usize) -> usize {
        debug_assert!(self.near_len > 0);
        let mut word = from / 64;
        let mut bits = self.occupied[word] & (u64::MAX << (from % 64));
        while bits == 0 {
            word = (word + 1) % OCCUPANCY_WORDS;
            bits = self.occupied[word];
        }
        word * 64 + bits.trailing_zeros() as usize
    }

    /// Migrates far-tier events whose quantum fell inside the calendar
    /// window into their buckets. Only entries at or ahead of the cursor
    /// can qualify, because the far tier never holds anything earlier
    /// than a past window end.
    fn drain_far_into_window(&mut self) {
        let window_end = self.window_start_q + NUM_BUCKETS as u64;
        while let Some(Reverse(top)) = self.far.peek() {
            if quantum(top.time) >= window_end {
                break;
            }
            let Some(Reverse(entry)) = self.far.pop() else { unreachable!() };
            let q = quantum(entry.time).max(self.window_start_q);
            self.insert_near((q % NUM_BUCKETS as u64) as usize, entry);
        }
    }

    /// Moves the cursor to the earliest non-empty bucket and returns the
    /// index of its minimum entry, or `None` if the calendar is empty.
    fn front(&mut self) -> Option<usize> {
        if self.near[self.cursor].is_empty() {
            self.advance()?;
        }
        // The cursor bucket holds the earliest quantum: pick its minimum
        // key. Buckets are small, so the scan is cheap.
        let bucket = &self.near[self.cursor];
        let mut best = 0;
        let mut best_key = bucket[0].key();
        for (i, e) in bucket.iter().enumerate().skip(1) {
            let key = e.key();
            if key < best_key {
                best = i;
                best_key = key;
            }
        }
        Some(best)
    }

    /// Finds the earliest entry across the calendar and the FIFO lanes,
    /// or `None` if the queue is empty.
    fn locate(&mut self) -> Option<Front> {
        if self.fifo_len == 0 {
            return self.front().map(Front::Near);
        }
        let (lane, key) = (0..FIFOS)
            .filter_map(|f| self.fifos[f].front().map(|e| (f, e.key())))
            .min_by_key(|&(_, key)| key)?;
        if key < self.calendar_floor {
            return Some(Front::Fifo(lane));
        }
        // With nothing in the window, the calendar's minimum is the far
        // top; jump the window to it only if it beats the lanes.
        if self.near_len == 0 {
            self.calendar_floor = self.far.peek().map_or(u128::MAX, |Reverse(top)| top.key());
            if key < self.calendar_floor {
                return Some(Front::Fifo(lane));
            }
        }
        let i = self.front().expect("the calendar holds the entry at its floor");
        self.calendar_floor = self.near[self.cursor][i].key();
        Some(if self.calendar_floor < key { Front::Near(i) } else { Front::Fifo(lane) })
    }

    /// Moves the cursor off its empty bucket to the earliest non-empty
    /// one, migrating far events the moved window now covers; `None` if
    /// the calendar is empty.
    fn advance(&mut self) -> Option<()> {
        if self.near_len == 0 {
            // Calendar empty: jump the window to the earliest far event.
            let Reverse(top) = self.far.peek()?;
            self.window_start_q = quantum(top.time);
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

    /// Removes the entry `locate` found.
    fn take(&mut self, front: Front) -> (SimTime, E) {
        match front {
            Front::Near(i) => self.take_near(i),
            Front::Fifo(lane) => {
                let entry = self.fifos[lane].pop_front().expect("located an empty lane");
                self.fifo_len -= 1;
                self.popped += 1;
                (entry.time, entry.event)
            }
        }
    }

    /// Removes entry `index` of the cursor bucket.
    fn take_near(&mut self, index: usize) -> (SimTime, E) {
        let bucket = &mut self.near[self.cursor];
        let entry = bucket.swap_remove(index);
        if bucket.is_empty() {
            self.occupied[self.cursor / 64] &= !(1 << (self.cursor % 64));
        }
        self.near_len -= 1;
        self.popped += 1;
        (entry.time, entry.event)
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // With every lane empty this is the calendar's own pop plus one
        // branch, as before the lanes existed.
        if self.fifo_len == 0 {
            let i = self.front()?;
            return Some(self.take_near(i));
        }
        let front = self.locate()?;
        Some(self.take(front))
    }

    /// Removes and returns the earliest event only if `pred` accepts it;
    /// otherwise the queue is untouched (aside from cursor maintenance
    /// that [`EventQueue::pop`] would also have performed). This lets a
    /// hot loop fuse peek-and-pop into a single bucket scan: the event
    /// loop's NoC burst fast path drains runs of consecutive network
    /// events without paying a separate [`EventQueue::peek_time`] scan
    /// per event.
    pub fn pop_if(&mut self, pred: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        let front = self.locate()?;
        let entry = match front {
            Front::Near(i) => &self.near[self.cursor][i],
            Front::Fifo(lane) => &self.fifos[lane][0],
        };
        if !pred(entry.time, &entry.event) {
            return None;
        }
        Some(self.take(front))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = self.calendar_peek_time();
        if self.fifo_len == 0 {
            return near;
        }
        let lanes = self.fifos.iter().filter_map(|l| l.front().map(|e| e.time));
        near.into_iter().chain(lanes).min()
    }

    /// The timestamp of the calendar's earliest event, if any.
    fn calendar_peek_time(&self) -> Option<SimTime> {
        let mut bucket = &self.near[self.cursor];
        if bucket.is_empty() {
            if self.near_len == 0 {
                return self.far.peek().map(|Reverse(e)| e.time);
            }
            bucket = &self.near[self.next_occupied(self.cursor)];
        }
        // The first non-empty bucket from the cursor holds the earliest
        // calendar quantum, and every far event lies beyond the window.
        bucket.iter().map(|e| e.time).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len() + self.fifo_len
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (a cheap progress/size
    /// metric for long simulations). Counts pops from every tier, so
    /// `delivered() + len()` always equals the number of pushes.
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
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_ns(42), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(42)));
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
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(5)));
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

    /// The constant delay of each FIFO lane in the differential schedule:
    /// inside one bucket, a few buckets, and most of the window.
    const LANE_DELAYS: [u64; FIFOS] = [5, 40, 50_000];

    /// Drives the queue and the heap reference through one random
    /// schedule of pushes and `pop_step` calls (each returning the
    /// queue's and the reference's result), comparing every result and
    /// `peek_time`, `len` and `delivered` before every operation.
    ///
    /// Simulated "now" only moves forward, like a real event loop.
    /// Calendar pushes target five horizon classes: the same bucket, a
    /// few microseconds, the whole window, the far tier, and gaps of many
    /// windows. FIFO pushes go to every lane at the lane's constant delay
    /// after now, except that one in eight lands anywhere up to that
    /// delay, often before the lane's tail, so the lane must hand it to
    /// the calendar. Now and then both queues drain to empty and the
    /// schedule restarts from the last popped time. Together these
    /// exercise late pushes, cursor jumps that wrap the occupancy bitmap,
    /// far migration, window jumps over an empty calendar, lane fallbacks,
    /// and same-time ties between lane heads and calendar entries.
    fn differential(
        rng: &mut Rng,
        mut pop_step: impl FnMut(
            &mut Rng,
            &mut EventQueue<u64>,
            &mut HeapQueue<u64>,
        ) -> (Popped, Popped),
    ) -> Result<(), String> {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut queue = EventQueue::new();
        let mut reference = HeapQueue::new();
        let mut now = 0u64;
        let mut id = 0u64;
        let check_front = |queue: &EventQueue<u64>, reference: &HeapQueue<u64>| {
            same(queue.peek_time(), reference.peek().map(|(t, _)| t), "peek_time")?;
            same(queue.len(), reference.heap.len(), "len")?;
            same(queue.delivered(), reference.popped, "delivered")
        };
        for _ in 0..3000 {
            check_front(&queue, &reference)?;
            let op = rng.range_u64(0..400);
            if op < 130 {
                let (a, b) = pop_step(rng, &mut queue, &mut reference);
                same(a, b, "pop")?;
                if let Some((t, _)) = a {
                    now = now.max(t.as_ns());
                }
            } else if op < 132 {
                // Drain to empty; the next push re-opens an empty queue.
                while let Some((t, e)) = reference.pop() {
                    same(queue.pop(), Some((t, e)), "drain pop")?;
                    check_front(&queue, &reference)?;
                    now = t.as_ns();
                }
                same(queue.pop(), None, "pop of a drained queue")?;
            } else if op < 300 {
                let horizon = match rng.range_u64(0..5) {
                    0 => rng.range_u64(0..1024),
                    1 => rng.range_u64(0..65536),
                    2 => rng.range_u64(0..window_ns),
                    3 => rng.range_u64(0..3 * window_ns),
                    _ => rng.range_u64(4..64) * window_ns + rng.range_u64(0..window_ns),
                };
                let t = SimTime::from_ns(now + horizon);
                let rank = if rng.range_u64(0..4) == 0 { ARRIVAL_RANK } else { DEFAULT_RANK };
                queue.push_ranked(t, rank, id);
                reference.push_ranked(t, rank, id);
                id += 1;
            } else {
                let lane = rng.range_u64(0..FIFOS as u64) as usize;
                let delay = match rng.range_u64(0..8) {
                    0 => rng.range_u64(0..LANE_DELAYS[lane]),
                    _ => LANE_DELAYS[lane],
                };
                let t = SimTime::from_ns(now + delay);
                queue.push_fifo(lane, t, id);
                reference.push_ranked(t, DEFAULT_RANK, id);
                id += 1;
            }
        }
        loop {
            check_front(&queue, &reference)?;
            let a = queue.pop();
            same(a, reference.pop(), "final drain pop")?;
            if a.is_none() {
                break;
            }
        }
        same(queue.delivered(), id, "delivered after the final drain")
    }

    /// Randomized differential test: the queue must pop the exact same
    /// sequence as the heap-only reference for any interleaved push/pop
    /// schedule, including times that straddle the window and FIFO-lane
    /// pushes that fall back to the calendar.
    #[test]
    fn differential_against_heap_reference() {
        crate::check(20, 0xCA1E_4DA2, |rng| {
            differential(rng, |_, queue, reference| (queue.pop(), reference.pop()))
        });
    }

    /// A FIFO-lane push earlier than the lane's tail goes to the calendar
    /// and still pops in `(time, seq)` order; same-time lane entries pop
    /// in push order, interleaved with same-time calendar entries.
    #[test]
    fn fifo_lanes_keep_push_order() {
        let mut q = EventQueue::new();
        q.push_fifo(0, SimTime::from_ns(50), "lane 50");
        q.push(SimTime::from_ns(50), "calendar 50");
        q.push_fifo(0, SimTime::from_ns(50), "lane 50 again");
        q.push_fifo(0, SimTime::from_ns(20), "behind the tail");
        q.push_fifo(1, SimTime::from_ns(30), "lane 1");
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(20)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["behind the tail", "lane 1", "lane 50", "calendar 50", "lane 50 again"]
        );
        assert_eq!(q.delivered(), 5);
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
                let due = match live.peek_time() {
                    Some(next) => SimTime::from_ns(t) <= next,
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

    /// `pop_if` with an always-true predicate is exactly `pop`; with an
    /// always-false predicate it must leave the queue untouched.
    #[test]
    fn pop_if_is_pop_or_noop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30), "late");
        q.push(SimTime::from_ns(10), "early");
        q.push(SimTime::from_ns(10), "early2");
        assert_eq!(q.pop_if(|_, _| false), None);
        assert_eq!(q.len(), 3);
        // Declining must not reorder: the FIFO tie still resolves in
        // insertion order afterwards.
        assert_eq!(q.pop_if(|_, e| *e == "early"), Some((SimTime::from_ns(10), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "early2")));
        assert_eq!(q.pop_if(|t, _| t.as_ns() < 100), Some((SimTime::from_ns(30), "late")));
        assert_eq!(q.pop_if(|_, _| true), None);
    }

    /// Randomized differential: an interleaved schedule of pushes and
    /// `pop_if` calls must match peek-then-pop on the heap reference —
    /// the fused scan may not see a different minimum than `pop` would,
    /// and a declined pop must leave the queue bit-identical.
    #[test]
    fn pop_if_differential_against_peek_then_pop() {
        crate::check(10, 0x90F1_F000, |rng| {
            differential(rng, |rng, queue, reference| {
                // The predicate depends on both time and payload so
                // declines are state-dependent, like the NoC burst loop's
                // "only NoC events before the bound" filter. The time
                // bound sits around the next event, so about half pass it.
                let next = reference.peek().map_or(0, |(t, _)| t.as_ns());
                let bound = next.saturating_sub(128) + rng.range_u64(0..256);
                let accept = |t: SimTime, e: &u64| t.as_ns() <= bound && !e.is_multiple_of(3);
                let a = queue.pop_if(accept);
                let b = match reference.peek() {
                    Some((t, e)) if accept(t, &e) => reference.pop(),
                    _ => None,
                };
                (a, b)
            })
        });
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
