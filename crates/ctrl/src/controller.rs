//! The decoupled flash controller (C_D) of Fig 4, composed.

use crate::{BufferPool, EccConfig, EccEngine, RecycleBlockTable, SuperblockRemapTable};

/// One decoupled flash controller: the dSSD additions to a conventional
/// controller — an integrated [`EccEngine`], the decoupled buffer
/// ([`BufferPool`]), and the dynamic-superblock hardware
/// ([`SuperblockRemapTable`] and [`RecycleBlockTable`], keyed by global
/// block index).
///
/// The controller is passive state, like every resource in this
/// reproduction; the event-driven world drives it. The network interface
/// and router live in `dssd-noc` (one terminal per controller).
///
/// # Example
///
/// ```
/// use dssd_ctrl::{DecoupledController, EccConfig};
///
/// let mut ctrl = DecoupledController::new(EccConfig::default(), 16, 1024, 4096);
/// assert!(ctrl.dbuf_mut().try_reserve());
/// ctrl.dbuf_mut().release();
/// ```
#[derive(Debug, Clone)]
pub struct DecoupledController {
    ecc: EccEngine,
    dbuf: BufferPool,
    srt: SuperblockRemapTable<u32>,
    rbt: RecycleBlockTable<u32>,
}

impl DecoupledController {
    /// Creates an idle controller.
    ///
    /// * `ecc` — integrated ECC engine configuration.
    /// * `dbuf_pages` — decoupled-buffer capacity in pages.
    /// * `srt_entries` — superblock remapping table capacity.
    /// * `rbt_entries` — recycle block table capacity.
    #[must_use]
    pub fn new(
        ecc: EccConfig,
        dbuf_pages: usize,
        srt_entries: usize,
        rbt_entries: usize,
    ) -> Self {
        DecoupledController {
            ecc: EccEngine::new(ecc),
            dbuf: BufferPool::new(dbuf_pages),
            srt: SuperblockRemapTable::new(srt_entries),
            rbt: RecycleBlockTable::new(rbt_entries),
        }
    }

    /// The integrated ECC engine (read-only).
    #[must_use]
    pub fn ecc(&self) -> &EccEngine {
        &self.ecc
    }

    /// The integrated ECC engine.
    pub fn ecc_mut(&mut self) -> &mut EccEngine {
        &mut self.ecc
    }

    /// The decoupled buffer (read-only).
    #[must_use]
    pub fn dbuf(&self) -> &BufferPool {
        &self.dbuf
    }

    /// The decoupled buffer.
    pub fn dbuf_mut(&mut self) -> &mut BufferPool {
        &mut self.dbuf
    }

    /// The superblock remapping table (read-only).
    #[must_use]
    pub fn srt(&self) -> &SuperblockRemapTable<u32> {
        &self.srt
    }

    /// The superblock remapping table.
    pub fn srt_mut(&mut self) -> &mut SuperblockRemapTable<u32> {
        &mut self.srt
    }

    /// The recycle block table (read-only).
    #[must_use]
    pub fn rbt(&self) -> &RecycleBlockTable<u32> {
        &self.rbt
    }

    /// The recycle block table.
    pub fn rbt_mut(&mut self) -> &mut RecycleBlockTable<u32> {
        &mut self.rbt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composes_all_parts() {
        let c = DecoupledController::new(EccConfig::default(), 16, 1024, 64);
        assert_eq!(c.dbuf().capacity(), 16);
        assert_eq!(c.srt().capacity(), 1024);
        assert_eq!(c.rbt().capacity(), 64);
        assert_eq!(c.ecc().busy_total(), dssd_kernel::SimSpan::ZERO);
    }

    #[test]
    fn tables_are_independent_per_controller() {
        let mut a = DecoupledController::new(EccConfig::default(), 16, 8, 8);
        let b = DecoupledController::new(EccConfig::default(), 16, 8, 8);
        a.srt_mut().insert(1, 2).unwrap();
        a.rbt_mut().deposit(9).unwrap();
        assert_eq!(a.srt().active_entries(), 1);
        assert_eq!(b.srt().active_entries(), 0);
        assert!(b.rbt().is_empty());
    }
}
