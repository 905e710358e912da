//! Page allocation within an active superblock.

use dssd_flash::PageAddr;

use crate::SuperblockLayout;

/// A group of freshly allocated pages on one die — the unit that becomes
/// a single (multi-plane) program operation.
///
/// The allocator only hands out plane-consecutive slots of one page row
/// of one die, so a group is its first page and its length: page `i` is
/// the first page on plane `first.plane + i`, and a group of `n` pages
/// is an `n`-plane program. The group is `Copy` and owns no heap memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGroup {
    first: PageAddr,
    len: u32,
}

impl AllocGroup {
    /// Number of pages in the group.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the group is empty (never produced by the allocator).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Page `i` of the group.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`AllocGroup::len`].
    #[must_use]
    pub fn addr(&self, i: usize) -> PageAddr {
        assert!(i < self.len(), "page {i} of a {}-page group", self.len);
        PageAddr { plane: self.first.plane + i as u32, ..self.first }
    }

    /// The group's pages, in plane order.
    pub fn addrs(&self) -> impl ExactSizeIterator<Item = PageAddr> {
        let first = self.first;
        (0..self.len).map(move |i| PageAddr { plane: first.plane + i, ..first })
    }
}

/// Allocation state of one active superblock.
///
/// Groups are handed out die-interleaved (round-robin across the stripe)
/// and plane-packed within a die, reproducing the paper's two bandwidth
/// regimes: a stream of 4 KB writes lands one page on each die in turn
/// (1 of 8 planes busy → "low bandwidth"), while one 32 KB write fills a
/// full 8-plane row of a single die (multi-plane → "high bandwidth").
#[derive(Debug, Clone)]
pub(crate) struct ActiveSuperblock {
    pub(crate) sb: u32,
    die_fill: Vec<u32>,
    allocated: u64,
    rr: u32,
}

impl ActiveSuperblock {
    pub(crate) fn new(sb: u32, layout: &SuperblockLayout) -> Self {
        ActiveSuperblock {
            sb,
            die_fill: vec![0; layout.stripe_dies() as usize],
            allocated: 0,
            rr: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn allocated(&self) -> u64 {
        self.allocated
    }

    pub(crate) fn is_full(&self, layout: &SuperblockLayout) -> bool {
        self.allocated == layout.capacity_pages()
    }

    pub(crate) fn remaining(&self, layout: &SuperblockLayout) -> u64 {
        layout.capacity_pages() - self.allocated
    }

    /// Allocates up to `want` pages as one same-row group on the next
    /// die (round-robin) with space. Returns `None` when full.
    pub(crate) fn alloc_group(
        &mut self,
        layout: &SuperblockLayout,
        want: u32,
    ) -> Option<AllocGroup> {
        debug_assert!(want > 0);
        let dies = layout.stripe_dies();
        let slots = layout.slots_per_die();
        let planes = layout.geometry().planes;
        for off in 0..dies {
            let d = (self.rr + off) % dies;
            let fill = self.die_fill[d as usize];
            if fill >= slots {
                continue;
            }
            // Stay within the current plane row so the group is one
            // multi-plane program.
            let row_left = planes - (fill % planes);
            let len = want.min(row_left).min(slots - fill);
            self.die_fill[d as usize] = fill + len;
            self.allocated += u64::from(len);
            self.rr = (d + 1) % dies;
            return Some(AllocGroup { first: layout.page_at(self.sb, d, fill), len });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_flash::FlashGeometry;

    fn layout() -> SuperblockLayout {
        SuperblockLayout::new(FlashGeometry::tiny()) // 2ch 2w 1die 2pl 4pg
    }

    #[test]
    fn small_writes_interleave_across_dies() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        let g1 = a.alloc_group(&l, 1).unwrap();
        let g2 = a.alloc_group(&l, 1).unwrap();
        let g3 = a.alloc_group(&l, 1).unwrap();
        let die = |g: AllocGroup| g.addr(0).die_addr();
        assert_ne!(die(g1), die(g2));
        assert_ne!(die(g2), die(g3));
        // consecutive dies sit on different channels (channel-major stripe)
        assert_ne!(die(g1).channel, die(g2).channel);
    }

    #[test]
    fn large_write_packs_planes_of_one_die() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        let g = a.alloc_group(&l, 2).unwrap(); // planes = 2
        assert_eq!(g.len(), 2);
        assert_eq!(g.addr(0).page, g.addr(1).page); // same row
        assert_ne!(g.addr(0).plane, g.addr(1).plane);
        assert_eq!(g.addr(0).die_addr(), g.addr(1).die_addr());
    }

    #[test]
    fn groups_never_span_rows() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        a.alloc_group(&l, 1).unwrap(); // fill 1 slot on die 0
        // Ask for 2 from every die until we wrap back to die 0's
        // half-filled row: group must be clipped to the row.
        for _ in 0..3 {
            a.alloc_group(&l, 2).unwrap();
        }
        let g = a.alloc_group(&l, 2).unwrap(); // back on die 0, mid-row
        assert_eq!(g.len(), 1, "group must not cross the plane row");
    }

    #[test]
    fn fills_exactly_to_capacity() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        let mut total = 0u64;
        let mut seen = std::collections::HashSet::new();
        while let Some(g) = a.alloc_group(&l, 2) {
            for p in g.addrs() {
                assert!(seen.insert(l.geometry().page_index(p)));
                assert_eq!(p.block, 0);
            }
            total += g.len() as u64;
        }
        assert_eq!(total, l.capacity_pages());
        assert_eq!(a.allocated(), l.capacity_pages());
        assert!(a.is_full(&l));
        assert_eq!(a.remaining(&l), 0);
    }

    /// Each group is what the allocator's slots name: page `i` of a group
    /// taken at die `d`'s fill `f` is `layout.page_at(sb, d, f + i)`.
    /// Mixed `want` sizes fill whole superblocks, so groups start and end
    /// mid-row and get clipped at row ends.
    #[test]
    fn groups_are_the_allocated_slots() {
        use dssd_kernel::Rng;
        for geo in [FlashGeometry::tiny(), FlashGeometry::table1_ull()] {
            let l = SuperblockLayout::new(geo);
            let mut rng = Rng::new(u64::from(geo.planes));
            for sb in [0, 3] {
                let mut a = ActiveSuperblock::new(sb, &l);
                let mut fill = vec![0u32; l.stripe_dies() as usize];
                while !a.is_full(&l) {
                    let want = 1 + rng.index(2 * geo.planes as usize) as u32;
                    let g = a.alloc_group(&l, want).unwrap();
                    let die = g.addr(0).die_addr();
                    let d = (0..l.stripe_dies()).find(|&d| l.stripe_die(d) == die).unwrap();
                    assert!(!g.is_empty() && g.len() as u32 <= want.min(geo.planes));
                    let slots: Vec<PageAddr> = (0..g.len() as u32)
                        .map(|i| l.page_at(sb, d, fill[d as usize] + i))
                        .collect();
                    let addrs: Vec<PageAddr> = (0..g.len()).map(|i| g.addr(i)).collect();
                    assert_eq!(addrs, slots);
                    assert!(g.addrs().eq(slots.iter().copied()));
                    fill[d as usize] += g.len() as u32;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "page 2 of a 2-page group")]
    fn addr_past_the_group_panics() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        let _ = a.alloc_group(&l, 2).unwrap().addr(2);
    }

    #[test]
    fn want_larger_than_planes_is_clipped() {
        let l = layout();
        let mut a = ActiveSuperblock::new(0, &l);
        let g = a.alloc_group(&l, 100).unwrap();
        assert_eq!(g.len() as u32, l.geometry().planes);
    }
}
