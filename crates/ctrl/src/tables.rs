//! Dynamic-superblock hardware tables: the recycle block table (RBT) and
//! the superblock remapping table (SRT) of Sec 5.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Identity of one sub-block within a decoupled controller's channel.
///
/// Matches the paper's SRT entry layout: 7 bits select the die and 9 bits
/// the block, so one sub-block id packs into 16 bits and one remapping
/// entry (source + destination) into 32 bits.
///
/// # Example
///
/// ```
/// use dssd_ctrl::SubBlockId;
/// let id = SubBlockId::new(3, 100);
/// assert_eq!(id.die(), 3);
/// assert_eq!(id.block(), 100);
/// assert_eq!(SubBlockId::from_bits(id.to_bits()), id);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubBlockId(u16);

impl SubBlockId {
    /// Creates an id from a die (< 128) and block (< 512) number.
    ///
    /// # Panics
    ///
    /// Panics if either field exceeds its bit budget.
    #[must_use]
    pub fn new(die: u16, block: u16) -> Self {
        assert!(die < 128, "die {die} exceeds 7 bits");
        assert!(block < 512, "block {block} exceeds 9 bits");
        SubBlockId((die << 9) | block)
    }

    /// The die field.
    #[must_use]
    pub fn die(self) -> u16 {
        self.0 >> 9
    }

    /// The block field.
    #[must_use]
    pub fn block(self) -> u16 {
        self.0 & 0x1FF
    }

    /// The packed 16-bit representation.
    #[must_use]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Reconstructs an id from its packed representation.
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        SubBlockId(bits)
    }
}

impl fmt::Display for SubBlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}b{}", self.die(), self.block())
    }
}

/// Error returned when a bounded hardware table has no free entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableFull {
    /// The table's entry capacity.
    pub capacity: usize,
}

impl fmt::Display for TableFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hardware table full ({} entries)", self.capacity)
    }
}

impl Error for TableFull {}

/// The recycle block table: a per-controller pool of still-good
/// sub-blocks salvaged from dead superblocks (Sec 5.1).
///
/// "The RBT is effectively a recycling bin of blocks that can be recycled
/// and used as part of a dynamic superblock." Reservation-based operation
/// (Sec 5.3) pre-fills the bin with provisioned blocks.
///
/// # Example
///
/// ```
/// use dssd_ctrl::{RecycleBlockTable, SubBlockId};
///
/// let mut rbt = RecycleBlockTable::new(8);
/// rbt.deposit(SubBlockId::new(0, 5)).unwrap();
/// assert_eq!(rbt.len(), 1);
/// assert_eq!(rbt.take(), Some(SubBlockId::new(0, 5)));
/// assert!(rbt.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct RecycleBlockTable<K = SubBlockId> {
    pool: VecDeque<K>,
    capacity: usize,
}

impl<K: Copy + PartialEq> RecycleBlockTable<K> {
    /// Creates an empty table with room for `capacity` recycled blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RBT needs at least one entry");
        RecycleBlockTable {
            pool: VecDeque::new(),
            capacity,
        }
    }

    /// Creates a table pre-filled with `reserved` blocks — the
    /// reservation-based recycled superblock of Sec 5.3.
    #[must_use]
    pub fn with_reserved<I: IntoIterator<Item = K>>(capacity: usize, reserved: I) -> Self {
        let mut t = Self::new(capacity);
        for b in reserved {
            t.deposit(b).expect("reserved blocks exceed RBT capacity");
        }
        t
    }

    /// Adds a salvaged sub-block to the recycling bin.
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] if the table is at capacity (the block is
    /// then simply not recycled, as real hardware would drop it).
    pub fn deposit(&mut self, block: K) -> Result<(), TableFull> {
        if self.pool.len() >= self.capacity {
            return Err(TableFull { capacity: self.capacity });
        }
        self.pool.push_back(block);
        Ok(())
    }

    /// Takes the oldest recycled block, if any.
    pub fn take(&mut self) -> Option<K> {
        self.pool.pop_front()
    }

    /// Recycled blocks currently available.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if no recycled block is available.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if `block` is currently in the bin.
    #[must_use]
    pub fn contains(&self, block: K) -> bool {
        self.pool.contains(&block)
    }
}

/// The superblock remapping table: bounded hardware map from an
/// FTL-visible sub-block to the recycled sub-block actually backing it
/// (Sec 5.1–5.2).
///
/// "Any commands destined for \[the dead sub-block\] are internally
/// remapped"; the FTL never sees the table. Each entry is 32 bits
/// (16-bit source + 16-bit destination), so a 1 k-entry SRT is the
/// paper's ≈4 kB table.
///
/// # Example
///
/// ```
/// use dssd_ctrl::{SuperblockRemapTable, SubBlockId};
///
/// let mut srt = SuperblockRemapTable::new(1024);
/// let dead = SubBlockId::new(1, 3);
/// let spare = SubBlockId::new(0, 7);
/// srt.insert(dead, spare).unwrap();
/// assert_eq!(srt.resolve(dead), spare);        // remapped
/// assert_eq!(srt.resolve(spare), spare);       // untouched blocks pass through
/// assert_eq!(srt.size_bytes(), 4096);
/// ```
///
/// Backed by a sorted `Vec` of `(src, dst)` pairs with binary-search
/// lookup — the table is bounded and small (≤ a few k entries), so a
/// dense sorted array beats a hash map on the datapath and keeps
/// iteration order deterministic.
#[derive(Debug, Clone)]
pub struct SuperblockRemapTable<K = SubBlockId> {
    entries: Vec<(K, K)>,
    capacity: usize,
}

impl<K: Copy + Ord> SuperblockRemapTable<K> {
    /// Creates an empty table with room for `capacity` remappings.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SRT needs at least one entry");
        SuperblockRemapTable {
            entries: Vec::new(),
            capacity,
        }
    }

    fn position(&self, src: K) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&src, |&(s, _)| s)
    }

    /// Inserts (or updates) the remapping `src → dst`.
    ///
    /// # Errors
    ///
    /// Returns [`TableFull`] when inserting a *new* source into a full
    /// table. Updating an existing source always succeeds (the hardware
    /// rewrites the entry in place when a recycled destination itself
    /// dies and is replaced).
    pub fn insert(&mut self, src: K, dst: K) -> Result<(), TableFull> {
        match self.position(src) {
            Ok(i) => self.entries[i].1 = dst,
            Err(i) => {
                if self.entries.len() >= self.capacity {
                    return Err(TableFull { capacity: self.capacity });
                }
                self.entries.insert(i, (src, dst));
            }
        }
        Ok(())
    }

    /// Removes a remapping, returning its destination if present.
    pub fn remove(&mut self, src: K) -> Option<K> {
        match self.position(src) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// The destination backing `src`, if remapped.
    #[must_use]
    pub fn lookup(&self, src: K) -> Option<K> {
        self.position(src).ok().map(|i| self.entries[i].1)
    }

    /// Translates an access: remapped sources go to their destination,
    /// everything else passes through unchanged.
    #[must_use]
    pub fn resolve(&self, src: K) -> K {
        self.lookup(src).unwrap_or(src)
    }

    /// Active (valid) remapping entries — the quantity plotted in Fig 16b.
    #[must_use]
    pub fn active_entries(&self) -> usize {
        self.entries.len()
    }

    /// True if no remapping is active.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entry capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if no new source can be inserted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Hardware size: 32 bits per entry of capacity.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.capacity * 4
    }

    /// Iterates over active `(src, dst)` remappings in source order.
    pub fn iter(&self) -> impl Iterator<Item = (K, K)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subblock_packs_paper_layout() {
        let id = SubBlockId::new(127, 511);
        assert_eq!(id.die(), 127);
        assert_eq!(id.block(), 511);
        assert_eq!(id.to_bits(), 0xFFFF);
        assert_eq!(format!("{}", SubBlockId::new(2, 9)), "d2b9");
    }

    #[test]
    #[should_panic(expected = "exceeds 7 bits")]
    fn oversized_die_rejected() {
        let _ = SubBlockId::new(128, 0);
    }

    #[test]
    #[should_panic(expected = "exceeds 9 bits")]
    fn oversized_block_rejected() {
        let _ = SubBlockId::new(0, 512);
    }

    #[test]
    fn rbt_is_fifo() {
        let mut rbt = RecycleBlockTable::new(4);
        rbt.deposit(SubBlockId::new(0, 1)).unwrap();
        rbt.deposit(SubBlockId::new(0, 2)).unwrap();
        assert_eq!(rbt.take(), Some(SubBlockId::new(0, 1)));
        assert_eq!(rbt.take(), Some(SubBlockId::new(0, 2)));
        assert_eq!(rbt.take(), None);
    }

    #[test]
    fn rbt_rejects_overflow() {
        let mut rbt = RecycleBlockTable::new(1);
        rbt.deposit(SubBlockId::new(0, 1)).unwrap();
        let err = rbt.deposit(SubBlockId::new(0, 2)).unwrap_err();
        assert_eq!(err.capacity, 1);
        assert!(err.to_string().contains("full"));
    }

    #[test]
    fn rbt_reservation_prefill() {
        let reserved = (0..5).map(|b| SubBlockId::new(0, b));
        let rbt = RecycleBlockTable::with_reserved(16, reserved);
        assert_eq!(rbt.len(), 5);
        assert!(rbt.contains(SubBlockId::new(0, 3)));
    }

    #[test]
    fn srt_resolves_and_passes_through() {
        let mut srt = SuperblockRemapTable::new(4);
        let (a, b, c) = (
            SubBlockId::new(0, 1),
            SubBlockId::new(0, 2),
            SubBlockId::new(0, 3),
        );
        srt.insert(a, b).unwrap();
        assert_eq!(srt.resolve(a), b);
        assert_eq!(srt.resolve(c), c);
    }

    #[test]
    fn srt_capacity_enforced_but_updates_allowed() {
        let mut srt = SuperblockRemapTable::new(1);
        let (a, b, c, d) = (
            SubBlockId::new(0, 1),
            SubBlockId::new(0, 2),
            SubBlockId::new(0, 3),
            SubBlockId::new(0, 4),
        );
        srt.insert(a, b).unwrap();
        assert!(srt.is_full());
        assert!(srt.insert(c, d).is_err());
        srt.insert(a, d).unwrap(); // in-place update
        assert_eq!(srt.lookup(a), Some(d));
        assert_eq!(srt.active_entries(), 1);
    }

    #[test]
    fn srt_remove() {
        let mut srt = SuperblockRemapTable::new(4);
        let (a, b) = (SubBlockId::new(1, 1), SubBlockId::new(1, 2));
        srt.insert(a, b).unwrap();
        assert_eq!(srt.remove(a), Some(b));
        assert_eq!(srt.remove(a), None);
        assert!(srt.is_empty());
    }

    #[test]
    fn srt_size_matches_paper() {
        // "Assuming each SRT entry is 32 bits … the SRT table overhead is
        // approximately 4kB" for 1k entries.
        assert_eq!(SuperblockRemapTable::<SubBlockId>::new(1024).size_bytes(), 4096);
    }

    #[test]
    fn srt_iter_reports_entries() {
        let mut srt = SuperblockRemapTable::new(4);
        srt.insert(SubBlockId::new(0, 1), SubBlockId::new(0, 2)).unwrap();
        srt.insert(SubBlockId::new(0, 3), SubBlockId::new(0, 4)).unwrap();
        let mut got: Vec<_> = srt.iter().collect();
        got.sort();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], (SubBlockId::new(0, 1), SubBlockId::new(0, 2)));
    }
}
