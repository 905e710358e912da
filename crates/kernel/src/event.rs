//! Deterministic future-event list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Log2 of the calendar bucket width in nanoseconds (16 ns buckets).
/// Tuned against the flit-level NoC workloads, where the queue sustains
/// hundreds of events per microsecond: buckets must stay at a handful of
/// entries each, because pop min-scans the cursor bucket. Wider buckets
/// make that scan quadratic-ish in the event density; much narrower ones
/// spend more time sliding the cursor over empty buckets (and blow the
/// ring out of cache).
const BUCKET_SHIFT: u32 = 4;
/// Number of calendar buckets (must be a power of two). The calendar
/// window spans `NUM_BUCKETS << BUCKET_SHIFT` ≈ 66 µs of simulated
/// time — enough that bus/ECC/NoC/flash-array completions stay in the
/// calendar tier; only erases, GC round boundaries and admission idle
/// timers overflow into the far heap. The ring's headers are ~100 KB,
/// small enough to stay cache-resident next to the live buckets.
const NUM_BUCKETS: usize = 4096;

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
/// window, and a binary-heap overflow for events beyond it. The common
/// short-horizon push/pop is O(1) amortized — append to a bucket, scan
/// the earliest non-empty bucket — instead of the heap's O(log n)
/// sift per operation. Far events migrate into the calendar as the
/// window slides over their timestamps. Ordering (including FIFO
/// tie-breaking by insertion sequence) is bit-identical to a pure-heap
/// implementation; a randomized differential test asserts it.
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
    /// Events currently in the calendar tier.
    near_len: usize,
    /// Quantum index (`time >> BUCKET_SHIFT`) of the bucket at `cursor`.
    window_start_q: u64,
    /// Ring position of the earliest possibly-non-empty bucket.
    cursor: usize,
    /// Overflow tier: events at or beyond `window_start_q + NUM_BUCKETS`.
    far: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    popped: u64,
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
    rank: u8,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.rank == other.rank && self.seq == other.seq
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
        self.time
            .cmp(&other.time)
            .then(self.rank.cmp(&other.rank))
            .then(self.seq.cmp(&other.seq))
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
            near_len: 0,
            window_start_q: 0,
            cursor: 0,
            far: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` at absolute time `time` with [`DEFAULT_RANK`].
    pub fn push(&mut self, time: SimTime, event: E) {
        self.push_ranked(time, DEFAULT_RANK, event);
    }

    /// Schedules `event` at `time` with an explicit same-time rank.
    /// At equal timestamps lower ranks pop first; within a rank, pushes
    /// pop FIFO. See the type-level docs for why ranks exist.
    pub fn push_ranked(&mut self, time: SimTime, rank: u8, event: E) {
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { time, rank, seq, event };
        let q = quantum(time);
        if q >= self.window_start_q + NUM_BUCKETS as u64 {
            self.far.push(Reverse(entry));
            return;
        }
        // Late pushes (before the window) land in the cursor bucket: the
        // per-bucket min-scan still delivers them in (time, seq) order
        // before anything later.
        let slot = if q <= self.window_start_q {
            self.cursor
        } else {
            (q % NUM_BUCKETS as u64) as usize
        };
        self.near[slot].push(entry);
        self.near_len += 1;
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
            self.near[(q % NUM_BUCKETS as u64) as usize].push(entry);
            self.near_len += 1;
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            // Calendar empty: jump the window to the earliest far event.
            let Reverse(top) = self.far.peek()?;
            self.window_start_q = quantum(top.time);
            self.cursor = (self.window_start_q % NUM_BUCKETS as u64) as usize;
            self.drain_far_into_window();
        }
        // Slide the cursor to the earliest non-empty bucket. Each slide
        // widens the window by one quantum, so check whether far events
        // became due.
        while self.near[self.cursor].is_empty() {
            self.cursor = (self.cursor + 1) % NUM_BUCKETS;
            self.window_start_q += 1;
            self.drain_far_into_window();
        }
        // The cursor bucket holds the earliest quantum: pick its minimum
        // by (time, seq). Buckets are small, so the scan is cheap.
        let bucket = &mut self.near[self.cursor];
        let mut best = 0;
        for i in 1..bucket.len() {
            if bucket[i] < bucket[best] {
                best = i;
            }
        }
        let entry = bucket.swap_remove(best);
        self.near_len -= 1;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Removes and returns the earliest event only if `pred` accepts it;
    /// otherwise the queue is untouched (aside from cursor maintenance
    /// that [`EventQueue::pop`] would also have performed). This lets a
    /// hot loop fuse peek-and-pop into a single bucket scan: the event
    /// loop's NoC burst fast path drains runs of consecutive network
    /// events without paying a separate [`EventQueue::peek_time`] scan
    /// per event.
    pub fn pop_if(&mut self, pred: impl FnOnce(SimTime, &E) -> bool) -> Option<(SimTime, E)> {
        if self.near_len == 0 {
            let Reverse(top) = self.far.peek()?;
            self.window_start_q = quantum(top.time);
            self.cursor = (self.window_start_q % NUM_BUCKETS as u64) as usize;
            self.drain_far_into_window();
        }
        while self.near[self.cursor].is_empty() {
            self.cursor = (self.cursor + 1) % NUM_BUCKETS;
            self.window_start_q += 1;
            self.drain_far_into_window();
        }
        let bucket = &mut self.near[self.cursor];
        let mut best = 0;
        for i in 1..bucket.len() {
            if bucket[i] < bucket[best] {
                best = i;
            }
        }
        if !pred(bucket[best].time, &bucket[best].event) {
            return None;
        }
        let entry = bucket.swap_remove(best);
        self.near_len -= 1;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let far_min = self.far.peek().map(|Reverse(e)| e.time);
        if self.near_len == 0 {
            return far_min;
        }
        // First non-empty bucket from the cursor holds the earliest
        // calendar quantum; min-scan it.
        let mut slot = self.cursor;
        loop {
            if let Some(near_min) = self.near[slot].iter().map(|e| e.time).min() {
                return match far_min {
                    Some(f) if f < near_min => Some(f),
                    _ => Some(near_min),
                };
            }
            slot = (slot + 1) % NUM_BUCKETS;
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    /// True if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events delivered so far (a cheap progress/size
    /// metric for long simulations). Counts pops from both tiers, so
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

    /// Reference implementation: the original single-tier binary heap.
    struct HeapQueue<E> {
        heap: BinaryHeap<Reverse<Entry<E>>>,
        seq: u64,
    }

    impl<E> HeapQueue<E> {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), seq: 0 }
        }

        fn push_ranked(&mut self, time: SimTime, rank: u8, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { time, rank, seq, event }));
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let Reverse(e) = self.heap.pop()?;
            Some((e.time, e.event))
        }
    }

    /// Randomized differential test: the calendar queue must pop the
    /// exact same sequence as the heap-only reference for any interleaved
    /// push/pop schedule, including times that straddle the window.
    #[test]
    fn differential_against_heap_reference() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for seed in 0..20u64 {
            let mut rng = Rng::new(0xCA1E_4DA2 ^ seed);
            let mut calendar = EventQueue::new();
            let mut reference = HeapQueue::new();
            // Simulated "now" only moves forward, like a real event loop,
            // but pushes may target any horizon from immediate to far
            // beyond one calendar window.
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..3000 {
                if rng.range_u64(0..3) == 0 {
                    let a = calendar.pop();
                    let b = reference.pop();
                    assert_eq!(
                        a.as_ref().map(|(t, e)| (*t, *e)),
                        b.as_ref().map(|(t, e)| (*t, *e)),
                        "divergence at seed {seed}"
                    );
                    if let Some((t, _)) = a {
                        now = now.max(t.as_ns());
                    }
                } else {
                    let horizon = match rng.range_u64(0..4) {
                        0 => rng.range_u64(0..1024),            // same bucket
                        1 => rng.range_u64(0..65536),           // near window
                        2 => rng.range_u64(0..window_ns),       // whole window
                        _ => rng.range_u64(0..3 * window_ns),   // far tier
                    };
                    let t = SimTime::from_ns(now + horizon);
                    let rank = if rng.range_u64(0..4) == 0 { ARRIVAL_RANK } else { DEFAULT_RANK };
                    calendar.push_ranked(t, rank, id);
                    reference.push_ranked(t, rank, id);
                    id += 1;
                }
            }
            // Drain both completely.
            loop {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(
                    a.as_ref().map(|(t, e)| (*t, *e)),
                    b.as_ref().map(|(t, e)| (*t, *e)),
                    "drain divergence at seed {seed}"
                );
                if a.is_none() {
                    break;
                }
            }
        }
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
    /// the fused bucket scan may not see a different minimum than `pop`
    /// would, and a declined pop must leave the queue bit-identical.
    #[test]
    fn pop_if_differential_against_peek_then_pop() {
        let window_ns = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        for seed in 0..10u64 {
            let mut rng = Rng::new(0x90F1_F000 ^ seed);
            let mut calendar = EventQueue::new();
            let mut reference = HeapQueue::new();
            let mut now = 0u64;
            let mut id = 0u64;
            for _ in 0..3000 {
                if rng.range_u64(0..3) == 0 {
                    // The predicate depends on both time and payload so
                    // declines are state-dependent, like the NoC burst
                    // loop's "only same-or-earlier NoC events" filter.
                    let bound = now + rng.range_u64(0..256);
                    let a = calendar.pop_if(|t, e| t.as_ns() <= bound && e % 3 != 0);
                    let b = match reference.heap.peek() {
                        Some(Reverse(e)) if e.time.as_ns() <= bound && e.event % 3 != 0 => {
                            reference.pop()
                        }
                        _ => None,
                    };
                    assert_eq!(a, b, "divergence at seed {seed}");
                    if let Some((t, _)) = a {
                        now = now.max(t.as_ns());
                    }
                } else {
                    let horizon = match rng.range_u64(0..3) {
                        0 => rng.range_u64(0..1024),
                        1 => rng.range_u64(0..window_ns),
                        _ => rng.range_u64(0..3 * window_ns),
                    };
                    let t = SimTime::from_ns(now + horizon);
                    calendar.push(t, id);
                    reference.push_ranked(t, DEFAULT_RANK, id);
                    id += 1;
                }
            }
            loop {
                let a = calendar.pop();
                let b = reference.pop();
                assert_eq!(a, b, "drain divergence at seed {seed}");
                if a.is_none() {
                    break;
                }
            }
        }
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
}

#[cfg(all(test, feature = "proptest"))]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any push sequence drains in (time, insertion) order.
        #[test]
        fn drains_in_stable_time_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(SimTime::from_ns(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut count = 0;
            while let Some((t, i)) = q.pop() {
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "FIFO tie-break violated");
                    }
                }
                last = Some((t, i));
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        /// Interleaved push/pop never loses or duplicates events.
        #[test]
        fn conservation_under_interleaving(
            ops in proptest::collection::vec((any::<bool>(), 0u64..100), 1..300),
        ) {
            let mut q = EventQueue::new();
            let mut pushed = 0u64;
            let mut popped = 0u64;
            for (is_pop, t) in ops {
                if is_pop {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                } else {
                    q.push(SimTime::from_ns(t), ());
                    pushed += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            prop_assert_eq!(pushed, popped);
        }
    }
}
