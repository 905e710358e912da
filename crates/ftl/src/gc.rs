//! Garbage-collection work units and scheduling policies.

use std::fmt;

use dssd_flash::{BlockAddr, DieAddr, PageAddr};

use crate::Lpn;

/// How GC page copies are scheduled relative to host I/O — the prior-work
/// spectrum the paper compares against (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPolicy {
    /// PaGC: "perform GC in parallel across all flash memory". The
    /// paper's baseline; copies are issued on every channel at once.
    Parallel,
    /// Semi-preemptive GC: copies yield to pending host I/O until the
    /// free-superblock pool drops to `hard_free_superblocks`, after which
    /// GC can no longer be postponed and runs unconditionally.
    Preemptive {
        /// Free-superblock count at which GC becomes non-preemptible.
        hard_free_superblocks: usize,
    },
    /// TinyTail-style partial GC: copies are confined to at most
    /// `concurrent_channels` flash channels at a time so the remaining
    /// channels serve I/O unobstructed (the RAIN-parity reconstruction of
    /// reads is modeled by the embedding simulator).
    TinyTail {
        /// Channels allowed to run GC simultaneously.
        concurrent_channels: usize,
    },
}

impl GcPolicy {
    /// Whether a GC copy may be issued right now.
    ///
    /// * `host_idle` — no host I/O is waiting.
    /// * `must_gc` — the free pool is at or below the hard threshold.
    #[must_use]
    pub fn allows_issue(&self, host_idle: bool, must_gc: bool) -> bool {
        match self {
            GcPolicy::Parallel | GcPolicy::TinyTail { .. } => true,
            GcPolicy::Preemptive { .. } => host_idle || must_gc,
        }
    }

    /// How many channels may run GC copies at once, out of `channels`.
    #[must_use]
    pub fn channel_limit(&self, channels: usize) -> usize {
        match self {
            GcPolicy::Parallel | GcPolicy::Preemptive { .. } => channels,
            GcPolicy::TinyTail { concurrent_channels } => {
                (*concurrent_channels).clamp(1, channels)
            }
        }
    }
}

/// Most planes per die the FTL supports: a [`CopyGroup`] holds one page
/// row of one die inline, at most one page per plane.
pub const MAX_PLANES: u32 = 8;

/// One multi-plane read's worth of GC copy work: valid pages from one
/// page row of one die of the victim superblock, held inline (no heap
/// memory per group).
#[derive(Clone)]
pub struct CopyGroup {
    /// The die the pages are read from.
    pub src_die: DieAddr,
    len: usize,
    pages: [(Lpn, PageAddr); MAX_PLANES as usize],
}

impl CopyGroup {
    /// An empty group reading from `src_die`.
    #[must_use]
    pub fn new(src_die: DieAddr) -> Self {
        CopyGroup { src_die, len: 0, pages: [(0, PageAddr::default()); MAX_PLANES as usize] }
    }

    /// Appends the copy of `lpn` from `src`.
    ///
    /// # Panics
    ///
    /// Panics if the group already holds [`MAX_PLANES`] pages.
    pub fn push(&mut self, lpn: Lpn, src: PageAddr) {
        assert!(self.len < self.pages.len(), "copy group holds at most {MAX_PLANES} pages");
        self.pages[self.len] = (lpn, src);
        self.len += 1;
    }

    /// `(LPN, source page)` pairs — distinct planes, same page row.
    #[must_use]
    pub fn pages(&self) -> &[(Lpn, PageAddr)] {
        &self.pages[..self.len]
    }

    /// Pages in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the group carries no pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keeps the first `at` pages and returns the rest as a group of
    /// their own, on the same die.
    ///
    /// # Panics
    ///
    /// Panics if `at` exceeds the group's length.
    #[must_use]
    pub fn split_off(&mut self, at: usize) -> CopyGroup {
        let mut rest = CopyGroup::new(self.src_die);
        for &(lpn, src) in &self.pages()[at..] {
            rest.push(lpn, src);
        }
        self.len = at;
        rest
    }
}

impl PartialEq for CopyGroup {
    fn eq(&self, other: &Self) -> bool {
        self.src_die == other.src_die && self.pages() == other.pages()
    }
}

impl Eq for CopyGroup {}

impl fmt::Debug for CopyGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CopyGroup")
            .field("src_die", &self.src_die)
            .field("pages", &self.pages())
            .finish()
    }
}

/// One round of garbage collection: a victim superblock, its live data
/// organized into multi-plane copy groups, and the erases to perform
/// once the copies land.
#[derive(Debug, Clone)]
pub struct GcRound {
    /// The victim superblock id.
    pub victim: u32,
    /// Multi-plane copy groups (may be empty if the victim is all-invalid).
    pub groups: Vec<CopyGroup>,
    /// Every sub-block of the victim, to erase after the copies.
    pub erases: Vec<BlockAddr>,
    /// Total valid pages to move.
    pub valid_pages: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_always_issues_on_all_channels() {
        let p = GcPolicy::Parallel;
        assert!(p.allows_issue(false, false));
        assert!(p.allows_issue(true, true));
        assert_eq!(p.channel_limit(8), 8);
    }

    #[test]
    fn preemptive_yields_until_forced() {
        let p = GcPolicy::Preemptive { hard_free_superblocks: 2 };
        assert!(!p.allows_issue(false, false)); // host busy, not forced
        assert!(p.allows_issue(true, false)); // host idle
        assert!(p.allows_issue(false, true)); // forced
        assert_eq!(p.channel_limit(8), 8);
    }

    #[test]
    fn copy_group_pushes_and_splits() {
        let die = DieAddr { channel: 1, way: 0, die: 0 };
        let page = |plane| PageAddr { channel: 1, plane, page: 3, ..PageAddr::default() };
        let mut g = CopyGroup::new(die);
        assert!(g.is_empty());
        for plane in 0..5 {
            g.push(u64::from(plane) + 10, page(plane));
        }
        let rest = g.split_off(2);
        assert_eq!(g.pages(), &[(10, page(0)), (11, page(1))]);
        assert_eq!(rest.pages(), &[(12, page(2)), (13, page(3)), (14, page(4))]);
        assert_eq!(rest.src_die, die);
        // Equality looks at the pages held, not at what a split left behind.
        let mut same = CopyGroup::new(die);
        same.push(10, page(0));
        same.push(11, page(1));
        assert_eq!(g, same);
    }

    #[test]
    #[should_panic(expected = "at most 8 pages")]
    fn copy_group_is_bounded_by_the_plane_limit() {
        let mut g = CopyGroup::new(DieAddr { channel: 0, way: 0, die: 0 });
        for plane in 0..=MAX_PLANES {
            g.push(0, PageAddr { plane, ..PageAddr::default() });
        }
    }

    #[test]
    fn tinytail_limits_channels() {
        let p = GcPolicy::TinyTail { concurrent_channels: 1 };
        assert!(p.allows_issue(false, false));
        assert_eq!(p.channel_limit(8), 1);
        let wide = GcPolicy::TinyTail { concurrent_channels: 99 };
        assert_eq!(wide.channel_limit(8), 8);
        let zero = GcPolicy::TinyTail { concurrent_channels: 0 };
        assert_eq!(zero.channel_limit(8), 1);
    }
}
