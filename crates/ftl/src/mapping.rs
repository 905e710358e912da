//! Page-level logical→physical mapping with valid-page accounting.

use dssd_flash::FlashGeometry;

/// Logical page number.
pub type Lpn = u64;
/// Physical page number (the geometry's linear page index).
pub type Ppn = u64;

const NONE: u32 = u32::MAX;

/// Page-level mapping table.
///
/// Tracks `LPN → PPN`, the reverse `PPN → LPN` (a physical page is valid
/// iff it has a reverse entry), and valid-page counters per block and
/// per static superblock. Greedy victim selection reads the superblock
/// counter, so ranking a superblock costs one load, not a sum over its
/// sub-blocks.
///
/// # Example
///
/// ```
/// use dssd_ftl::MappingTable;
/// use dssd_flash::FlashGeometry;
///
/// let geo = FlashGeometry::tiny();
/// let mut map = MappingTable::new(&geo, geo.total_pages() / 2);
/// assert_eq!(map.map_write(3, 10), None);       // first write of LPN 3
/// assert_eq!(map.lookup(3), Some(10));
/// assert_eq!(map.map_write(3, 11), Some(10));   // overwrite invalidates PPN 10
/// assert!(!map.is_valid(10));
/// ```
#[derive(Debug, Clone)]
pub struct MappingTable {
    /// LPN -> PPN (NONE = unmapped).
    l2p: Vec<u32>,
    /// PPN -> LPN (NONE = invalid page).
    p2l: Vec<u32>,
    /// Valid pages per physical block.
    valid_per_block: Vec<u32>,
    /// Valid pages per static superblock: the sum of `valid_per_block`
    /// over the superblock's sub-blocks, kept in step with it.
    valid_per_superblock: Vec<u32>,
    pages_per_block: u32,
}

impl MappingTable {
    /// Creates an empty table for `lpn_count` logical pages over the
    /// geometry's physical space.
    ///
    /// # Panics
    ///
    /// Panics if the geometry or LPN space does not fit the 32-bit
    /// in-memory encoding, or if the logical space exceeds the physical.
    #[must_use]
    pub fn new(geometry: &FlashGeometry, lpn_count: u64) -> Self {
        let total = geometry.total_pages();
        assert!(total < NONE as u64, "geometry too large for 32-bit PPN encoding");
        assert!(lpn_count < NONE as u64, "LPN space too large for 32-bit encoding");
        assert!(lpn_count <= total, "logical space exceeds physical space");
        MappingTable {
            l2p: vec![NONE; lpn_count as usize],
            p2l: vec![NONE; total as usize],
            valid_per_block: vec![0; geometry.total_blocks() as usize],
            valid_per_superblock: vec![0; geometry.blocks as usize],
            pages_per_block: geometry.pages,
        }
    }

    /// Number of logical pages.
    #[must_use]
    pub fn lpn_count(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// The physical page backing `lpn`, if mapped.
    #[must_use]
    pub fn lookup(&self, lpn: Lpn) -> Option<Ppn> {
        match self.l2p[lpn as usize] {
            NONE => None,
            p => Some(p as Ppn),
        }
    }

    /// The logical page stored at `ppn`, if the physical page is valid.
    #[must_use]
    pub fn lpn_of(&self, ppn: Ppn) -> Option<Lpn> {
        match self.p2l[ppn as usize] {
            NONE => None,
            l => Some(l as Lpn),
        }
    }

    /// True if the physical page holds live data.
    #[must_use]
    pub fn is_valid(&self, ppn: Ppn) -> bool {
        self.p2l[ppn as usize] != NONE
    }

    /// Valid pages in physical block `block` (linear block index).
    #[must_use]
    pub fn valid_in_block(&self, block: usize) -> u32 {
        self.valid_per_block[block]
    }

    /// Valid pages in static superblock `sb`: block `sb` of every plane
    /// (see [`SuperblockLayout`](crate::SuperblockLayout)).
    #[must_use]
    pub fn valid_in_superblock(&self, sb: u32) -> u64 {
        u64::from(self.valid_per_superblock[sb as usize])
    }

    /// Maps `lpn` to the freshly programmed `ppn`, returning the
    /// now-invalid previous physical page (if any).
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is already valid (two LPNs on one physical page is
    /// an allocator bug).
    pub fn map_write(&mut self, lpn: Lpn, ppn: Ppn) -> Option<Ppn> {
        assert!(
            self.p2l[ppn as usize] == NONE,
            "PPN {ppn} programmed twice without erase"
        );
        let old = self.l2p[lpn as usize];
        if old != NONE {
            self.p2l[old as usize] = NONE;
            self.dec_valid(old as Ppn);
        }
        self.l2p[lpn as usize] = ppn as u32;
        self.p2l[ppn as usize] = lpn as u32;
        self.inc_valid(ppn);
        if old == NONE {
            None
        } else {
            Some(old as Ppn)
        }
    }

    /// Completes a GC copy of `lpn` from `src` to `dst`.
    ///
    /// If the host overwrote `lpn` while the copy was in flight (the
    /// mapping no longer points at `src`), the destination page is dead
    /// on arrival: it stays invalid and the mapping is untouched.
    /// Returns `true` if the copy took effect.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is already valid.
    pub fn complete_copy(&mut self, lpn: Lpn, src: Ppn, dst: Ppn) -> bool {
        assert!(
            self.p2l[dst as usize] == NONE,
            "copy destination {dst} already valid"
        );
        if self.l2p[lpn as usize] != src as u32 {
            return false; // stale copy
        }
        self.p2l[src as usize] = NONE;
        self.dec_valid(src);
        self.l2p[lpn as usize] = dst as u32;
        self.p2l[dst as usize] = lpn as u32;
        self.inc_valid(dst);
        true
    }

    /// Unmaps `lpn` (TRIM), invalidating its physical page.
    pub fn trim(&mut self, lpn: Lpn) -> Option<Ppn> {
        let old = self.l2p[lpn as usize];
        if old == NONE {
            return None;
        }
        self.l2p[lpn as usize] = NONE;
        self.p2l[old as usize] = NONE;
        self.dec_valid(old as Ppn);
        Some(old as Ppn)
    }

    /// Asserts block `block` holds no valid pages and resets it (erase).
    ///
    /// # Panics
    ///
    /// Panics if the block still has valid pages — erasing live data is a
    /// GC sequencing bug.
    pub fn erase_block(&mut self, block: usize) {
        assert_eq!(
            self.valid_per_block[block], 0,
            "erasing block {block} with valid pages"
        );
        // p2l entries are already NONE for invalid pages; nothing to clear.
    }

    /// The linear block holding `ppn`, and its static superblock: the
    /// block's `block` field, which is its linear index modulo the
    /// blocks per plane.
    fn blocks_of(&self, ppn: Ppn) -> (usize, usize) {
        let b = (ppn / u64::from(self.pages_per_block)) as usize;
        (b, b % self.valid_per_superblock.len())
    }

    fn inc_valid(&mut self, ppn: Ppn) {
        let (b, sb) = self.blocks_of(ppn);
        self.valid_per_block[b] += 1;
        self.valid_per_superblock[sb] += 1;
        debug_assert!(self.valid_per_block[b] <= self.pages_per_block);
        debug_assert!(
            u64::from(self.valid_per_superblock[sb])
                <= (self.p2l.len() / self.valid_per_superblock.len()) as u64
        );
    }

    fn dec_valid(&mut self, ppn: Ppn) {
        let (b, sb) = self.blocks_of(ppn);
        debug_assert!(self.valid_per_block[b] > 0);
        debug_assert!(self.valid_per_superblock[sb] > 0);
        self.valid_per_block[b] -= 1;
        self.valid_per_superblock[sb] -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_kernel::check;

    fn table() -> (FlashGeometry, MappingTable) {
        let geo = FlashGeometry::tiny();
        let lpns = geo.total_pages() / 2;
        (geo, MappingTable::new(&geo, lpns))
    }

    #[test]
    fn write_then_lookup() {
        let (_, mut m) = table();
        assert_eq!(m.lookup(0), None);
        m.map_write(0, 5);
        assert_eq!(m.lookup(0), Some(5));
        assert_eq!(m.lpn_of(5), Some(0));
        assert!(m.is_valid(5));
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let (geo, mut m) = table();
        m.map_write(0, 0);
        let old = m.map_write(0, geo.pages as u64); // next block
        assert_eq!(old, Some(0));
        assert!(!m.is_valid(0));
        assert_eq!(m.valid_in_block(0), 0);
        assert_eq!(m.valid_in_block(1), 1);
    }

    #[test]
    #[should_panic(expected = "programmed twice")]
    fn double_program_panics() {
        let (_, mut m) = table();
        m.map_write(0, 3);
        m.map_write(1, 3);
    }

    #[test]
    fn copy_moves_mapping() {
        let (geo, mut m) = table();
        m.map_write(7, 1);
        let dst = geo.pages as u64 + 1;
        assert!(m.complete_copy(7, 1, dst));
        assert_eq!(m.lookup(7), Some(dst));
        assert!(!m.is_valid(1));
        assert!(m.is_valid(dst));
    }

    #[test]
    fn stale_copy_is_dropped() {
        let (geo, mut m) = table();
        m.map_write(7, 1);
        m.map_write(7, 2); // host overwrites while copy of PPN 1 in flight
        let dst = geo.pages as u64 + 1;
        assert!(!m.complete_copy(7, 1, dst));
        assert_eq!(m.lookup(7), Some(2));
        assert!(!m.is_valid(dst), "stale copy destination must stay invalid");
    }

    #[test]
    fn trim_unmaps() {
        let (_, mut m) = table();
        m.map_write(4, 9);
        assert_eq!(m.trim(4), Some(9));
        assert_eq!(m.trim(4), None);
        assert_eq!(m.lookup(4), None);
        assert!(!m.is_valid(9));
    }

    #[test]
    fn erase_requires_no_valid_pages() {
        let (_, mut m) = table();
        m.map_write(0, 0);
        m.trim(0);
        m.erase_block(0); // fine: no valid pages
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_pages_panics() {
        let (_, mut m) = table();
        m.map_write(0, 0);
        m.erase_block(0);
    }

    #[test]
    #[should_panic(expected = "exceeds physical")]
    fn oversized_lpn_space_rejected() {
        let geo = FlashGeometry::tiny();
        let _ = MappingTable::new(&geo, geo.total_pages() + 1);
    }

    /// After any sequence of writes/overwrites, the mapping is a
    /// bijection between mapped LPNs and valid PPNs, and the per-block
    /// counters agree with the reverse map.
    #[test]
    fn mapping_stays_bijective() {
        check(8192, 0xB1_0000, |rng| {
            let geo = FlashGeometry::tiny();
            let mut m = MappingTable::new(&geo, 32);
            let mut used = std::collections::HashSet::new();
            for _ in 0..1 + rng.index(199) {
                let lpn = rng.range_u64(0..32);
                let ppn = rng.range_u64(0..64) % geo.total_pages();
                // A real allocator never reuses a page before erase.
                if used.insert(ppn) {
                    m.map_write(lpn, ppn);
                }
            }
            // Forward implies reverse.
            let mut valid_seen = vec![0u32; geo.total_blocks() as usize];
            for lpn in 0..32u64 {
                if let Some(ppn) = m.lookup(lpn) {
                    if m.lpn_of(ppn) != Some(lpn) {
                        return Err(format!("LPN {lpn} -> PPN {ppn} does not map back"));
                    }
                    valid_seen[(ppn / u64::from(geo.pages)) as usize] += 1;
                }
            }
            for (b, &seen) in valid_seen.iter().enumerate() {
                if m.valid_in_block(b) != seen {
                    let counted = m.valid_in_block(b);
                    return Err(format!("block {b} counts {counted} valid pages, maps {seen}"));
                }
            }
            // Each superblock counts the valid pages of its sub-blocks.
            for sb in 0..geo.blocks {
                let sub_blocks = valid_seen.iter().skip(sb as usize).step_by(geo.blocks as usize);
                let summed: u32 = sub_blocks.sum();
                let counted = m.valid_in_superblock(sb);
                if counted != u64::from(summed) {
                    return Err(format!("superblock {sb} counts {counted} valid pages, maps {summed}"));
                }
            }
            // Reverse implies forward.
            for ppn in 0..geo.total_pages() {
                if let Some(lpn) = m.lpn_of(ppn) {
                    if m.lookup(lpn) != Some(ppn) {
                        return Err(format!("PPN {ppn} -> LPN {lpn} does not map forward"));
                    }
                }
            }
            Ok(())
        });
    }
}
