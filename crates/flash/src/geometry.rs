//! Physical flash organization and strongly-typed addresses.

use std::fmt;

/// The physical organization of the flash array.
///
/// The hierarchy follows the paper (and ONFI): the SSD has `channels`
/// flash-bus channels; each channel connects `ways` packages; each package
/// holds `dies` dies; each die has `planes` planes; each plane has
/// `blocks` erase blocks of `pages` program pages of `page_bytes` bytes.
///
/// # Example
///
/// ```
/// use dssd_flash::FlashGeometry;
/// let geo = FlashGeometry::table1_ull();
/// assert_eq!(geo.channels, 8);
/// assert_eq!(geo.planes, 8);
/// assert_eq!(geo.page_bytes, 4096);
/// assert_eq!(geo.total_dies(), 8 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of flash-bus channels.
    pub channels: u32,
    /// Packages (ways) per channel.
    pub ways: u32,
    /// Dies per package.
    pub dies: u32,
    /// Planes per die.
    pub planes: u32,
    /// Erase blocks per plane.
    pub blocks: u32,
    /// Pages per block.
    pub pages: u32,
    /// Bytes per page.
    pub page_bytes: u32,
}

impl FlashGeometry {
    /// The Table 1 performance-evaluation geometry: 8 channels × 8 ways ×
    /// 1 die × 8 planes × 1384 blocks × 384 pages, 4 KB pages (ULL device).
    #[must_use]
    pub fn table1_ull() -> Self {
        FlashGeometry {
            channels: 8,
            ways: 8,
            dies: 1,
            planes: 8,
            blocks: 1384,
            pages: 384,
            page_bytes: 4096,
        }
    }

    /// The Table 1 superblock-evaluation geometry: 8 channels × 4 ways ×
    /// 2 dies × 2 planes with 32 pages/block, 16 KB pages (TLC device,
    /// simplified "for feasible simulation time" per Sec 6.2 footnote).
    #[must_use]
    pub fn table1_tlc() -> Self {
        FlashGeometry {
            channels: 8,
            ways: 4,
            dies: 2,
            planes: 2,
            blocks: 256,
            pages: 32,
            page_bytes: 16384,
        }
    }

    /// A small geometry for fast tests.
    #[must_use]
    pub fn tiny() -> Self {
        FlashGeometry {
            channels: 2,
            ways: 2,
            dies: 1,
            planes: 2,
            blocks: 8,
            pages: 4,
            page_bytes: 4096,
        }
    }

    /// Total dies in the SSD.
    #[must_use]
    pub fn total_dies(&self) -> u64 {
        self.channels as u64 * self.ways as u64 * self.dies as u64
    }

    /// Total planes in the SSD.
    #[must_use]
    pub fn total_planes(&self) -> u64 {
        self.total_dies() * self.planes as u64
    }

    /// Total erase blocks in the SSD.
    #[must_use]
    pub fn total_blocks(&self) -> u64 {
        self.total_planes() * self.blocks as u64
    }

    /// Total pages in the SSD.
    #[must_use]
    pub fn total_pages(&self) -> u64 {
        self.total_blocks() * self.pages as u64
    }

    /// Linear index of a die address in `[0, total_dies)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for this geometry.
    #[must_use]
    pub fn die_index(&self, a: DieAddr) -> usize {
        assert!(a.channel < self.channels && a.way < self.ways && a.die < self.dies,
                "die address {a:?} out of range");
        ((a.channel * self.ways + a.way) * self.dies + a.die) as usize
    }

    /// Inverse of [`FlashGeometry::die_index`].
    #[must_use]
    pub fn die_at(&self, index: usize) -> DieAddr {
        let i = index as u32;
        let die = i % self.dies;
        let way = (i / self.dies) % self.ways;
        let channel = i / (self.dies * self.ways);
        debug_assert!(channel < self.channels);
        DieAddr { channel, way, die }
    }

    /// Linear index of a block address in `[0, total_blocks)`.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range for this geometry.
    #[must_use]
    pub fn block_index(&self, a: BlockAddr) -> usize {
        assert!(a.plane < self.planes && a.block < self.blocks,
                "block address {a:?} out of range");
        (self.die_index(a.die_addr()) as u64 * self.planes as u64 * self.blocks as u64
            + a.plane as u64 * self.blocks as u64
            + a.block as u64) as usize
    }

    /// Inverse of [`FlashGeometry::block_index`].
    #[must_use]
    pub fn block_at(&self, index: usize) -> BlockAddr {
        let per_die = (self.planes * self.blocks) as u64;
        let die = self.die_at((index as u64 / per_die) as usize);
        let rem = index as u64 % per_die;
        BlockAddr {
            channel: die.channel,
            way: die.way,
            die: die.die,
            plane: (rem / self.blocks as u64) as u32,
            block: (rem % self.blocks as u64) as u32,
        }
    }

    /// Linear index of a page address in `[0, total_pages)`.
    #[must_use]
    pub fn page_index(&self, a: PageAddr) -> u64 {
        assert!(a.page < self.pages, "page address {a:?} out of range");
        self.block_index(a.block_addr()) as u64 * self.pages as u64 + a.page as u64
    }

    /// Inverse of [`FlashGeometry::page_index`].
    #[must_use]
    pub fn page_at(&self, index: u64) -> PageAddr {
        let block = self.block_at((index / self.pages as u64) as usize);
        PageAddr {
            channel: block.channel,
            way: block.way,
            die: block.die,
            plane: block.plane,
            block: block.block,
            page: (index % self.pages as u64) as u32,
        }
    }
}

/// Address of one die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DieAddr {
    /// Flash-bus channel.
    pub channel: u32,
    /// Package (way) on the channel.
    pub way: u32,
    /// Die within the package.
    pub die: u32,
}

/// Address of one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaneAddr {
    /// Flash-bus channel.
    pub channel: u32,
    /// Package (way) on the channel.
    pub way: u32,
    /// Die within the package.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
}

/// Address of one erase block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Flash-bus channel.
    pub channel: u32,
    /// Package (way) on the channel.
    pub way: u32,
    /// Die within the package.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
}

/// Address of one program page.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageAddr {
    /// Flash-bus channel.
    pub channel: u32,
    /// Package (way) on the channel.
    pub way: u32,
    /// Die within the package.
    pub die: u32,
    /// Plane within the die.
    pub plane: u32,
    /// Block within the plane.
    pub block: u32,
    /// Page within the block.
    pub page: u32,
}

impl PlaneAddr {
    /// The die containing this plane.
    #[must_use]
    pub fn die_addr(&self) -> DieAddr {
        DieAddr { channel: self.channel, way: self.way, die: self.die }
    }
}

impl BlockAddr {
    /// The die containing this block.
    #[must_use]
    pub fn die_addr(&self) -> DieAddr {
        DieAddr { channel: self.channel, way: self.way, die: self.die }
    }

    /// The plane containing this block.
    #[must_use]
    pub fn plane_addr(&self) -> PlaneAddr {
        PlaneAddr { channel: self.channel, way: self.way, die: self.die, plane: self.plane }
    }

    /// The address of page `page` within this block.
    #[must_use]
    pub fn page(&self, page: u32) -> PageAddr {
        PageAddr {
            channel: self.channel,
            way: self.way,
            die: self.die,
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

impl PageAddr {
    /// The die containing this page.
    #[must_use]
    pub fn die_addr(&self) -> DieAddr {
        DieAddr { channel: self.channel, way: self.way, die: self.die }
    }

    /// The block containing this page.
    #[must_use]
    pub fn block_addr(&self) -> BlockAddr {
        BlockAddr {
            channel: self.channel,
            way: self.way,
            die: self.die,
            plane: self.plane,
            block: self.block,
        }
    }
}

impl fmt::Display for PageAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ch{}/w{}/d{}/pl{}/blk{}/pg{}",
            self.channel, self.way, self.die, self.plane, self.block, self.page
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_kernel::{check, Rng};

    #[test]
    fn table1_ull_counts() {
        let g = FlashGeometry::table1_ull();
        assert_eq!(g.total_dies(), 64);
        assert_eq!(g.total_planes(), 512);
        assert_eq!(g.total_blocks(), 512 * 1384);
        assert_eq!(g.total_pages(), 512 * 1384 * 384);
    }

    #[test]
    fn die_index_round_trip() {
        let g = FlashGeometry::table1_tlc();
        for i in 0..g.total_dies() as usize {
            assert_eq!(g.die_index(g.die_at(i)), i);
        }
    }

    #[test]
    fn block_index_round_trip() {
        let g = FlashGeometry::tiny();
        for i in 0..g.total_blocks() as usize {
            assert_eq!(g.block_index(g.block_at(i)), i);
        }
    }

    #[test]
    fn page_index_round_trip() {
        let g = FlashGeometry::tiny();
        for i in 0..g.total_pages() {
            assert_eq!(g.page_index(g.page_at(i)), i);
        }
    }

    #[test]
    fn page_index_is_dense_and_ordered() {
        let g = FlashGeometry::tiny();
        let a = PageAddr { channel: 0, way: 0, die: 0, plane: 0, block: 0, page: 0 };
        assert_eq!(g.page_index(a), 0);
        let b = PageAddr { channel: 0, way: 0, die: 0, plane: 0, block: 0, page: 1 };
        assert_eq!(g.page_index(b), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_die_panics() {
        let g = FlashGeometry::tiny();
        let _ = g.die_index(DieAddr { channel: 99, way: 0, die: 0 });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        let g = FlashGeometry::tiny();
        let mut a = g.page_at(0);
        a.page = g.pages;
        let _ = g.page_index(a);
    }

    #[test]
    fn addr_projections_agree() {
        let g = FlashGeometry::tiny();
        let p = g.page_at(g.total_pages() - 1);
        assert_eq!(p.block_addr().die_addr(), p.die_addr());
        assert_eq!(p.block_addr().page(p.page), p);
        assert_eq!(p.block_addr().plane_addr().die_addr(), p.die_addr());
    }

    #[test]
    fn display_is_informative() {
        let p = PageAddr { channel: 1, way: 2, die: 0, plane: 3, block: 4, page: 5 };
        assert_eq!(format!("{p}"), "ch1/w2/d0/pl3/blk4/pg5");
    }

    /// A random small geometry: 1–4 channels, ways and planes, 1–2 dies,
    /// 1–9 blocks and pages.
    fn any_geometry(rng: &mut Rng) -> FlashGeometry {
        FlashGeometry {
            channels: 1 + rng.index(4) as u32,
            ways: 1 + rng.index(4) as u32,
            dies: 1 + rng.index(2) as u32,
            planes: 1 + rng.index(4) as u32,
            blocks: 1 + rng.index(9) as u32,
            pages: 1 + rng.index(9) as u32,
            page_bytes: 4096,
        }
    }

    #[test]
    fn page_round_trip_all_geometries() {
        check(8192, 0x9A6E_0000, |rng| {
            let g = any_geometry(rng);
            let idx = rng.range_u64(0..10_000) % g.total_pages();
            let back = g.page_index(g.page_at(idx));
            if back == idx {
                Ok(())
            } else {
                Err(format!("{g:?}: page {idx} came back as {back}"))
            }
        });
    }

    #[test]
    fn block_round_trip_all_geometries() {
        check(8192, 0xB10C_0000, |rng| {
            let g = any_geometry(rng);
            let idx = rng.index(10_000) % g.total_blocks() as usize;
            let back = g.block_index(g.block_at(idx));
            if back == idx {
                Ok(())
            } else {
                Err(format!("{g:?}: block {idx} came back as {back}"))
            }
        });
    }

    #[test]
    fn page_indices_are_unique() {
        check(4096, 0x0417_0000, |rng| {
            let g = any_geometry(rng);
            let mut seen = std::collections::HashSet::new();
            for i in 0..g.total_pages().min(512) {
                if !seen.insert(g.page_index(g.page_at(i))) {
                    return Err(format!("{g:?}: page {i} collides"));
                }
            }
            Ok(())
        });
    }
}
