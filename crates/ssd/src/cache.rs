//! DRAM write-back buffer cache.
//!
//! The paper's background (Sec 2.1): "a significant fraction of DRAM is
//! used as a write-buffer cache by the firmware to hide the relatively
//! slow flash memory latency/bandwidth". This module provides an LRU
//! write-back cache over logical pages: writes are absorbed into DRAM
//! and acknowledged immediately; dirty pages are flushed to flash in the
//! background once a high-water mark is crossed; reads that hit recent
//! writes are served from DRAM.

use std::collections::VecDeque;

use dssd_kernel::FxHashMap;

/// An LRU cache of logical pages with dirty tracking.
///
/// Recency is tracked with the stamp/queue technique: every touch pushes
/// a `(lpn, stamp)` pair and bumps the page's current stamp; stale queue
/// entries are discarded lazily during eviction.
///
/// # Example
///
/// ```
/// use dssd_ssd::WriteCache;
///
/// let mut c = WriteCache::new(2);
/// c.write(1);
/// c.write(2);
/// assert!(c.contains(1));
/// c.write(3); // evicts the LRU *clean* page only — all dirty: grows
/// assert_eq!(c.dirty_count(), 3);
/// let flush = c.take_dirty(8);
/// assert_eq!(flush.len(), 3);
/// assert_eq!(c.dirty_count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct WriteCache {
    capacity: usize,
    /// LPN -> (current stamp, dirty).
    pages: FxHashMap<u64, (u64, bool)>,
    /// Recency queue of (lpn, stamp); stale pairs are skipped lazily.
    order: VecDeque<(u64, u64)>,
    stamp: u64,
    dirty: usize,
    hits: u64,
}

impl WriteCache {
    /// Creates a cache with room for `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache needs capacity");
        WriteCache {
            capacity,
            pages: FxHashMap::default(),
            order: VecDeque::new(),
            stamp: 0,
            dirty: 0,
            hits: 0,
        }
    }

    /// Page capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pages currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Dirty (unflushed) pages.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.dirty
    }

    /// True once the dirty population crosses the flush high-water mark
    /// (¾ of capacity).
    #[must_use]
    pub fn needs_flush(&self) -> bool {
        self.dirty * 4 > self.capacity * 3
    }

    /// Read-path lookup; counts a hit and refreshes recency on a hit.
    pub fn read(&mut self, lpn: u64) -> bool {
        let hit = self.pages.contains_key(&lpn);
        if hit {
            self.touch(lpn);
            self.hits += 1;
        }
        hit
    }

    /// True if the page is cached (no statistics side effects).
    #[must_use]
    pub fn contains(&self, lpn: u64) -> bool {
        self.pages.contains_key(&lpn)
    }

    /// Absorbs a write: the page becomes cached and dirty. Clean LRU
    /// pages are evicted to stay within capacity; dirty pages are never
    /// dropped (they leave via [`WriteCache::take_dirty`]), so the cache
    /// can temporarily exceed capacity under flush back-pressure.
    pub fn write(&mut self, lpn: u64) {
        match self.pages.get_mut(&lpn) {
            Some((_, dirty)) => {
                if !*dirty {
                    *dirty = true;
                    self.dirty += 1;
                }
            }
            None => {
                self.pages.insert(lpn, (0, true));
                self.dirty += 1;
            }
        }
        self.touch(lpn);
        self.evict_clean();
    }

    /// Takes up to `max` of the least-recently-used dirty pages for
    /// flushing; they remain cached as clean pages.
    pub fn take_dirty(&mut self, max: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut keep = VecDeque::new();
        while out.len() < max {
            let Some((lpn, stamp)) = self.order.pop_front() else { break };
            match self.pages.get_mut(&lpn) {
                Some((cur, dirty)) if *cur == stamp => {
                    if *dirty {
                        *dirty = false;
                        self.dirty -= 1;
                        out.push(lpn);
                    }
                    keep.push_back((lpn, stamp));
                }
                _ => {} // stale entry
            }
        }
        // The scanned (still-valid) entries stay in LRU order at the front.
        while let Some(e) = keep.pop_back() {
            self.order.push_front(e);
        }
        self.evict_clean();
        out
    }

    /// Cache hits observed on the read path.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    fn touch(&mut self, lpn: u64) {
        self.stamp += 1;
        if let Some((cur, _)) = self.pages.get_mut(&lpn) {
            *cur = self.stamp;
        }
        self.order.push_back((lpn, self.stamp));
    }

    fn evict_clean(&mut self) {
        while self.pages.len() > self.capacity {
            let Some((lpn, stamp)) = self.order.pop_front() else { break };
            match self.pages.get(&lpn) {
                Some((cur, dirty)) if *cur == stamp => {
                    if *dirty {
                        // Dirty pages cannot be dropped; put it back and
                        // stop — flushing will restore capacity.
                        self.order.push_front((lpn, stamp));
                        break;
                    }
                    self.pages.remove(&lpn);
                }
                _ => {} // stale entry
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_hits() {
        let mut c = WriteCache::new(8);
        c.write(5);
        assert!(c.read(5));
        assert!(!c.read(6));
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn lru_evicts_clean_pages_in_order() {
        let mut c = WriteCache::new(2);
        c.write(1);
        c.write(2);
        let flushed = c.take_dirty(2);
        assert_eq!(flushed, vec![1, 2]);
        c.write(3); // over capacity: clean LRU (1) is dropped
        assert!(!c.contains(1));
        assert!(c.contains(2));
        assert!(c.contains(3));
    }

    #[test]
    fn read_refreshes_recency() {
        let mut c = WriteCache::new(2);
        c.write(1);
        c.write(2);
        c.take_dirty(2);
        assert!(c.read(1)); // 1 becomes MRU
        c.write(3); // evicts 2, not 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn dirty_pages_survive_eviction_pressure() {
        let mut c = WriteCache::new(2);
        for lpn in 0..5 {
            c.write(lpn);
        }
        assert_eq!(c.dirty_count(), 5);
        assert_eq!(c.len(), 5, "dirty pages must not be dropped");
        assert!(c.needs_flush());
        let flushed = c.take_dirty(5);
        assert_eq!(flushed.len(), 5);
        assert!(c.len() <= 2, "capacity enforced once clean");
    }

    #[test]
    fn take_dirty_prefers_lru_and_keeps_pages_cached() {
        let mut c = WriteCache::new(8);
        c.write(1);
        c.write(2);
        c.write(3);
        let f = c.take_dirty(2);
        assert_eq!(f, vec![1, 2]);
        assert_eq!(c.dirty_count(), 1);
        assert!(c.contains(1) && c.contains(2), "flushed pages stay clean-cached");
    }

    #[test]
    fn rewrite_of_dirty_page_does_not_double_count() {
        let mut c = WriteCache::new(4);
        c.write(7);
        c.write(7);
        assert_eq!(c.dirty_count(), 1);
        assert_eq!(c.take_dirty(4), vec![7]);
    }

    #[test]
    fn flush_watermark() {
        let mut c = WriteCache::new(4);
        c.write(0);
        c.write(1);
        c.write(2);
        assert!(!c.needs_flush()); // 3 dirty of 4 = 75%, not above
        c.write(3);
        assert!(c.needs_flush());
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = WriteCache::new(0);
    }
}
