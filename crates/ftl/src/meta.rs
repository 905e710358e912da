//! FTL metadata durability model: per-page P2L-in-OOB, a write-ahead
//! mapping journal, and periodic L2P checkpoints.
//!
//! Real FTLs survive power loss because the mapping is reconstructible
//! from three durable artifacts: each flash page's out-of-band (OOB)
//! area carries the LPN (and a version stamp) of the data it holds; a
//! write-ahead journal records mapping mutations in batches; and a full
//! L2P checkpoint is flushed periodically so mount never replays an
//! unbounded journal. This module models all three *logically* — which
//! entries exist and *when they became durable* — while the event-driven
//! simulator charges the journal/checkpoint writes as real flash traffic
//! and stamps their durability times.
//!
//! The journal is one flat queue of ops. Each flushed page is an end
//! offset into it with a durable instant, and the ops past the last
//! page's end are the volatile pending page. Checkpoints form a second
//! queue in capture order; each covers the journal pages flushed before
//! its capture. Truncation pops the front of the queues once a newer
//! checkpoint is durable at the simulator's clock.
//!
//! Versioning: every mapping mutation (host write, GC relocation, TRIM)
//! gets a globally unique, monotonically increasing version. Recovery is
//! then "max durable version wins" per LPN:
//!
//! 1. load the newest checkpoint durable by the crash (versions + P2L as
//!    of its capture);
//! 2. replay the durable journal pages it does not cover in order,
//!    applying ops whose version is newer than the recovered one;
//! 3. scan the OOB of durable pages programmed *after* the journal tip
//!    (the open, not-yet-journaled region) and apply newer versions.
//!
//! Because journal ops are appended in program-completion order and
//! replay stops at the first page not yet durable, the replayed journal
//! is always a prefix — which makes the "programmed after the tip" scan
//! set exact.
//!
//! The module also keeps the *acknowledgement oracle* used to verify the
//! two crash-consistency invariants: no acknowledged write may be lost,
//! and no trimmed data may be resurrected. The simulator reports each
//! host-visible completion; [`MetaState::recover`] checks the recovered
//! state against the oracle.

use std::collections::VecDeque;

use dssd_kernel::{SimSpan, SimTime};

use crate::{Lpn, MappingTable, Ppn};

/// Sentinel for "no physical page" in recovered mappings.
pub const META_UNMAPPED: u64 = u64::MAX;

/// Ticket sentinel for "no durability tracking" (model disabled or
/// prefill-time instant durability).
pub const META_NO_TICKET: u32 = u32::MAX;

/// Durability-model knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaConfig {
    /// Mapping-journal entries packed into one flash page. The pending
    /// buffer flushes (as one charged page program) when it fills.
    pub journal_entries_per_page: u32,
    /// Data-page programs between L2P checkpoints (0 = never
    /// checkpoint after the mount baseline).
    pub checkpoint_interval_pages: u64,
    /// Flash page size in bytes (for sizing checkpoint traffic).
    pub page_bytes: u32,
}

/// Bytes per serialized checkpoint entry (packed PPN + version).
pub const CHECKPOINT_ENTRY_BYTES: u64 = 16;

/// One OOB record: what the media remembers about a programmed page.
#[derive(Debug, Clone, Copy)]
struct OobRec {
    lpn: Lpn,
    version: u64,
    /// Global program-order stamp (strictly increasing).
    programmed: u64,
    /// Simulated instant the program completed (data on media).
    durable_at: SimTime,
}

/// One write-ahead journal operation.
#[derive(Debug, Clone, Copy)]
enum JournalOp {
    /// `lpn` now maps to `ppn` at `version`; the data page carries
    /// program stamp `programmed`.
    Map { lpn: Lpn, version: u64, ppn: Ppn, programmed: u64 },
    /// `lpn` was trimmed at `version`.
    Trim { lpn: Lpn, version: u64 },
}

/// A flushed journal page: the journal's ops from the previous page's
/// end up to `end`.
#[derive(Debug, Clone, Copy)]
struct JournalPage {
    /// Journal offset one past the page's last op.
    end: u64,
    /// When the page program completed; [`SimTime::MAX`] until the
    /// simulator reports it.
    durable_at: SimTime,
}

/// A captured L2P checkpoint.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// Per-LPN version at capture.
    versions: Vec<u64>,
    /// Per-LPN physical page at capture ([`META_UNMAPPED`] = unmapped).
    ppns: Vec<u64>,
    /// Journal pages flushed before the capture: the ones it covers.
    pages: u64,
    /// Journal offset where those pages end.
    upto: u64,
    /// Highest program stamp covered by this checkpoint.
    tip_programmed: u64,
    /// Checkpoints captured before this one (0 = the mount baseline).
    seq: u64,
    /// When the checkpoint finished flushing.
    durable_at: SimTime,
}

/// Metadata I/O the simulator must charge as flash traffic. Drained via
/// [`MetaState::drain_io`]; the simulator computes each transfer's
/// completion time and reports it back through
/// [`MetaState::journal_durable`] / [`MetaState::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaIo {
    /// One journal-page program of `bytes` bytes; `page` identifies the
    /// flush for the durability callback.
    JournalFlush {
        /// Flush sequence number (argument to [`MetaState::journal_durable`]).
        page: u64,
        /// Payload size.
        bytes: u32,
    },
    /// A full L2P checkpoint flush of `pages` flash pages.
    Checkpoint {
        /// Number of flash-page programs.
        pages: u64,
        /// Total payload size.
        bytes: u64,
    },
}

/// Durability-model activity counters (for reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetaStats {
    /// Journal pages flushed.
    pub journal_pages: u64,
    /// Journal entries written (ops across all flushed pages).
    pub journal_entries: u64,
    /// Checkpoints flushed (excluding the mount baseline).
    pub checkpoints: u64,
    /// Flash pages consumed by checkpoint flushes.
    pub checkpoint_pages: u64,
}

/// Result of a simulated mount after power loss at `t_loss`.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// Recovered per-LPN version (0 = never written).
    pub versions: Vec<u64>,
    /// Recovered per-LPN physical page ([`META_UNMAPPED`] = unmapped).
    pub ppns: Vec<u64>,
    /// Flash pages read to load the checkpoint.
    pub checkpoint_pages: u64,
    /// Durable journal pages replayed.
    pub journal_pages_replayed: u64,
    /// Journal ops applied-or-examined during replay.
    pub journal_entries_replayed: u64,
    /// OOB records examined in the post-tip scan.
    pub oob_pages_scanned: u64,
    /// Programs whose completion the crash tore (OOB records dropped).
    pub torn_pages: u64,
    /// Invariant violations: acknowledged writes the recovered mapping
    /// lost (stale or missing version).
    pub lost_acked_writes: u64,
    /// Invariant violations: trimmed LPNs that came back mapped to
    /// stale data.
    pub resurrected_trims: u64,
    /// Total flash-page reads the mount performed.
    pub pages_read: u64,
}

/// One issued write group: its `(lpn, version, ppn)` entries. A retired
/// ticket keeps its buffer's capacity for the next ticket to reuse.
#[derive(Debug, Clone, Default)]
struct Ticket {
    live: bool,
    entries: Vec<(Lpn, u64, Ppn)>,
}

/// The full durability model (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct MetaState {
    config: MetaConfig,
    /// Current (volatile) per-LPN version.
    versions: Vec<u64>,
    next_version: u64,
    /// OOB records per physical page (`None` = erased).
    oob: Vec<Option<OobRec>>,
    next_programmed: u64,
    /// Every op past the front checkpoint's coverage, oldest first: the
    /// flushed pages' ops, then the pending (volatile) page.
    journal: VecDeque<JournalOp>,
    /// Journal pages flushed past the front checkpoint, oldest first.
    pages: VecDeque<JournalPage>,
    /// Checkpoints in capture order; the front is the mount baseline or
    /// the newest durable at the last capture.
    checkpoints: VecDeque<Checkpoint>,
    pages_since_checkpoint: u64,
    /// Write groups issued and not yet retired, indexed by ticket.
    tickets: Vec<Ticket>,
    free_tickets: Vec<u32>,
    issued_order: Vec<u32>,
    /// Metadata I/O awaiting the simulator's traffic charge.
    io: Vec<MetaIo>,
    /// Acknowledgement oracle: highest version acked to the host per
    /// LPN, and whether that ack was a trim (unmapped) state.
    acked_version: Vec<u64>,
    acked_trim: Vec<bool>,
}

impl MetaState {
    /// Creates the model for a device of `lpn_count` logical and
    /// `total_pages` physical pages.
    ///
    /// # Panics
    ///
    /// Panics if `journal_entries_per_page` is zero.
    #[must_use]
    pub fn new(config: MetaConfig, lpn_count: u64, total_pages: u64) -> Self {
        assert!(
            config.journal_entries_per_page > 0,
            "journal entries per page must be non-zero"
        );
        MetaState {
            config,
            versions: vec![0; lpn_count as usize],
            next_version: 1,
            oob: vec![None; total_pages as usize],
            next_programmed: 1,
            journal: VecDeque::new(),
            pages: VecDeque::new(),
            checkpoints: VecDeque::new(),
            pages_since_checkpoint: 0,
            tickets: Vec::new(),
            free_tickets: Vec::new(),
            issued_order: Vec::new(),
            io: Vec::new(),
            acked_version: vec![0; lpn_count as usize],
            acked_trim: vec![false; lpn_count as usize],
        }
    }

    /// Activity counters.
    #[must_use]
    pub fn stats(&self) -> MetaStats {
        let checkpoints = self.checkpoints.back().map_or(0, |c| c.seq);
        MetaStats {
            journal_pages: self.base().0 + self.pages.len() as u64,
            journal_entries: self.flushed_end(),
            checkpoints,
            checkpoint_pages: checkpoints * self.checkpoint_flash_pages(),
        }
    }

    /// True once [`MetaState::mount_baseline`] has run.
    fn mounted(&self) -> bool {
        !self.checkpoints.is_empty()
    }

    /// The journal page index and offset the front checkpoint covers up
    /// to, where `pages` and `journal` start.
    fn base(&self) -> (u64, u64) {
        self.checkpoints.front().map_or((0, 0), |c| (c.pages, c.upto))
    }

    /// Journal offset one past the last flushed op.
    fn flushed_end(&self) -> u64 {
        self.pages.back().map_or(self.base().1, |p| p.end)
    }

    /// Journal entries buffered in volatile memory.
    fn pending(&self) -> u64 {
        self.base().1 + self.journal.len() as u64 - self.flushed_end()
    }

    fn lpn_count(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Issues a ticket with no entries yet, reusing the most recently
    /// retired one.
    fn alloc_ticket(&mut self) -> u32 {
        let id = self.free_tickets.pop().unwrap_or_else(|| {
            self.tickets.push(Ticket::default());
            (self.tickets.len() - 1) as u32
        });
        self.tickets[id as usize].live = true;
        self.issued_order.push(id);
        id
    }

    /// Retires `ticket`, keeping its buffer for reuse.
    fn free_ticket(&mut self, ticket: u32) {
        let t = &mut self.tickets[ticket as usize];
        t.live = false;
        t.entries.clear();
        self.free_tickets.push(ticket);
    }

    /// Records one allocation group of host writes: bumps each LPN's
    /// version and returns a ticket the simulator redeems when the
    /// program completes ([`MetaState::mark_programmed`]) or tears
    /// ([`MetaState::mark_torn`]).
    ///
    /// Before the mount baseline (prefill), writes are applied with
    /// instant durability and no ticket is issued.
    pub fn note_host_writes(&mut self, pairs: impl IntoIterator<Item = (Lpn, Ppn)>) -> u32 {
        if !self.mounted() {
            for (lpn, ppn) in pairs {
                let version = self.next_version;
                self.next_version += 1;
                self.versions[lpn as usize] = version;
                let programmed = self.next_programmed;
                self.next_programmed += 1;
                self.oob[ppn as usize] = Some(OobRec {
                    lpn,
                    version,
                    programmed,
                    durable_at: SimTime::ZERO,
                });
            }
            return META_NO_TICKET;
        }
        let id = self.alloc_ticket();
        let entries = &mut self.tickets[id as usize].entries;
        for (lpn, ppn) in pairs {
            let version = self.next_version;
            self.next_version += 1;
            self.versions[lpn as usize] = version;
            entries.push((lpn, version, ppn));
        }
        id
    }

    /// Replaces `into`'s contents with the tickets issued since the last
    /// drain, in order.
    pub fn drain_tickets(&mut self, into: &mut Vec<u32>) {
        into.clear();
        into.append(&mut self.issued_order);
    }

    /// The program behind `ticket` completed at `at`: its pages' OOB
    /// becomes durable and their mapping ops enter the journal.
    pub fn mark_programmed(&mut self, ticket: u32, at: SimTime) {
        if ticket == META_NO_TICKET {
            return;
        }
        let t = &mut self.tickets[ticket as usize];
        assert!(t.live, "live ticket");
        // Lent out while `append_op` borrows the model, then put back.
        let entries = std::mem::take(&mut t.entries);
        for &(lpn, version, ppn) in &entries {
            let programmed = self.next_programmed;
            self.next_programmed += 1;
            self.oob[ppn as usize] = Some(OobRec { lpn, version, programmed, durable_at: at });
            self.append_op(JournalOp::Map { lpn, version, ppn, programmed });
        }
        self.tickets[ticket as usize].entries = entries;
        self.note_data_programs();
    }

    /// The program behind `ticket` failed: no OOB record, no journal op.
    /// The caller re-allocates, which issues a fresh ticket.
    pub fn mark_torn(&mut self, ticket: u32) {
        if ticket == META_NO_TICKET {
            return;
        }
        self.free_ticket(ticket);
    }

    /// The host was acknowledged for the request that owned `ticket`:
    /// its versions join the oracle, and the ticket is retired.
    pub fn ack(&mut self, ticket: u32) {
        if ticket == META_NO_TICKET {
            return;
        }
        let t = &self.tickets[ticket as usize];
        assert!(t.live, "live ticket");
        for &(lpn, version, _) in &t.entries {
            if version > self.acked_version[lpn as usize] {
                self.acked_version[lpn as usize] = version;
                self.acked_trim[lpn as usize] = false;
            }
        }
        self.free_ticket(ticket);
    }

    /// Retires `ticket` without acknowledging (the owning request
    /// failed).
    pub fn discard(&mut self, ticket: u32) {
        if ticket == META_NO_TICKET {
            return;
        }
        if self.tickets[ticket as usize].live {
            self.free_ticket(ticket);
        }
    }

    /// Records a completed GC relocation of `lpn` from `src` to `dst` at
    /// `at`. `live` is false when the copy arrived stale (the host
    /// overwrote the LPN in flight): the destination page still exists
    /// on media — its OOB keeps the *old* version, which recovery must
    /// ignore — but no mapping op is journaled.
    pub fn note_copy(&mut self, lpn: Lpn, src: Ppn, dst: Ppn, live: bool, at: SimTime) {
        let programmed = self.next_programmed;
        self.next_programmed += 1;
        if live {
            let version = self.next_version;
            self.next_version += 1;
            self.versions[lpn as usize] = version;
            self.oob[dst as usize] = Some(OobRec { lpn, version, programmed, durable_at: at });
            if self.mounted() {
                self.append_op(JournalOp::Map { lpn, version, ppn: dst, programmed });
            }
        } else {
            // Stale media content: carry the source page's version.
            let version = self.oob[src as usize].map_or(0, |r| r.version);
            self.oob[dst as usize] = Some(OobRec { lpn, version, programmed, durable_at: at });
        }
        self.note_data_programs();
    }

    /// Records a TRIM of `lpn`.
    pub fn note_trim(&mut self, lpn: Lpn) {
        let version = self.next_version;
        self.next_version += 1;
        self.versions[lpn as usize] = version;
        if self.mounted() {
            self.append_op(JournalOp::Trim { lpn, version });
        }
    }

    /// Clears the OOB records of an erased block (`first_ppn` ..
    /// `first_ppn + pages`).
    pub fn note_erase(&mut self, first_ppn: u64, pages: u64) {
        for ppn in first_ppn..first_ppn + pages {
            self.oob[ppn as usize] = None;
        }
    }

    /// Takes the mount baseline, once: an always-durable checkpoint of
    /// the current mapping (checkpoint 0, covering prefill state,
    /// including prefill trims), and seeds the acknowledgement oracle —
    /// everything the device held at mount is implicitly acknowledged.
    pub fn mount_baseline(&mut self, map: &MappingTable) {
        if self.mounted() {
            return;
        }
        self.checkpoint(map, SimTime::ZERO, SimTime::ZERO);
        for lpn in 0..self.versions.len() {
            self.acked_version[lpn] = self.versions[lpn];
            self.acked_trim[lpn] = map.lookup(lpn as Lpn).is_none();
        }
    }

    fn append_op(&mut self, op: JournalOp) {
        self.journal.push_back(op);
        if self.pending() >= u64::from(self.config.journal_entries_per_page) {
            self.flush_journal();
        }
    }

    fn flush_journal(&mut self) {
        if self.pending() == 0 {
            return;
        }
        let (first_page, first_op) = self.base();
        let page = first_page + self.pages.len() as u64;
        let end = first_op + self.journal.len() as u64;
        self.pages.push_back(JournalPage { end, durable_at: SimTime::MAX });
        self.io.push(MetaIo::JournalFlush { page, bytes: self.config.page_bytes });
    }

    fn note_data_programs(&mut self) {
        if !self.mounted() || self.config.checkpoint_interval_pages == 0 {
            return;
        }
        self.pages_since_checkpoint += 1;
        if self.pages_since_checkpoint >= self.config.checkpoint_interval_pages {
            self.pages_since_checkpoint = 0;
            // Flush the pending journal first so the checkpoint's
            // coverage stays a journal-page boundary.
            self.flush_journal();
            self.io.push(MetaIo::Checkpoint {
                pages: self.checkpoint_flash_pages(),
                bytes: self.lpn_count() * CHECKPOINT_ENTRY_BYTES,
            });
            // Captured by the simulator via `checkpoint`.
        }
    }

    /// Flash pages one checkpoint occupies.
    #[must_use]
    pub fn checkpoint_flash_pages(&self) -> u64 {
        (self.lpn_count() * CHECKPOINT_ENTRY_BYTES).div_ceil(u64::from(self.config.page_bytes))
    }

    /// Captures a checkpoint of the current versions and `map`, durable
    /// at `durable_at`, covering the journal pages flushed so far. The
    /// simulator calls this when it dequeues a [`MetaIo::Checkpoint`],
    /// *before* any further mapping mutation, with its clock `now`.
    ///
    /// First every checkpoint older than the newest one durable at `now`
    /// is dropped, with the journal pages that one covers: no crash from
    /// `now` on mounts them. The last dropped checkpoint's buffers hold
    /// the new capture.
    pub fn checkpoint(&mut self, map: &MappingTable, now: SimTime, durable_at: SimTime) {
        let newest_durable = self.checkpoints.iter().rposition(|c| c.durable_at <= now);
        let mut spare = None;
        if let Some(keep @ 1..) = newest_durable {
            let (first_page, first_op) = self.base();
            let front = &self.checkpoints[keep];
            self.pages.drain(..(front.pages - first_page) as usize);
            self.journal.drain(..(front.upto - first_op) as usize);
            spare = self.checkpoints.drain(..keep).next_back();
        }
        let (mut versions, mut ppns) =
            spare.map_or_else(Default::default, |c| (c.versions, c.ppns));
        versions.clone_from(&self.versions);
        ppns.clear();
        ppns.extend((0..self.lpn_count()).map(|lpn| map.lookup(lpn).unwrap_or(META_UNMAPPED)));
        self.checkpoints.push_back(Checkpoint {
            versions,
            ppns,
            pages: self.base().0 + self.pages.len() as u64,
            upto: self.flushed_end(),
            tip_programmed: self.next_programmed - 1,
            seq: self.checkpoints.back().map_or(0, |c| c.seq + 1),
            durable_at,
        });
    }

    /// Moves the pending metadata I/O for the simulator to charge into
    /// `out`, keeping both buffers' capacity for reuse.
    pub fn drain_io(&mut self, out: &mut Vec<MetaIo>) {
        out.append(&mut self.io);
    }

    /// The journal flush `page` completed at `at`.
    pub fn journal_durable(&mut self, page: u64, at: SimTime) {
        let idx = (page - self.base().0) as usize;
        let slot = &mut self.pages[idx].durable_at;
        assert_eq!(*slot, SimTime::MAX, "journal page already durable");
        *slot = at;
    }

    /// Simulates a mount after power loss at `t_loss`: everything not
    /// durable by then is gone. Reconstructs the L2P and verifies the
    /// two invariants against the acknowledgement oracle.
    ///
    /// # Panics
    ///
    /// Panics if no checkpoint is durable by `t_loss`: before
    /// [`MetaState::mount_baseline`], or earlier than the clock of the
    /// last [`MetaState::checkpoint`].
    #[must_use]
    pub fn recover(&self, t_loss: SimTime) -> RecoveryOutcome {
        // 1. Newest checkpoint durable by the crash.
        let ckpt = self
            .checkpoints
            .iter()
            .rev()
            .find(|c| c.durable_at <= t_loss)
            .expect("a checkpoint must be durable by the crash");
        let mut versions = ckpt.versions.clone();
        let mut ppns = ckpt.ppns.clone();
        let mut tip_programmed = ckpt.tip_programmed;
        let checkpoint_pages = self.checkpoint_flash_pages();

        // 2. Replay the durable journal pages past its coverage, up to
        //    the first page not durable by the crash.
        let (first_page, first_op) = self.base();
        let mut start = ckpt.upto;
        let mut journal_pages_replayed = 0;
        let replayed = self.pages.iter().skip((ckpt.pages - first_page) as usize);
        for page in replayed.take_while(|p| p.durable_at <= t_loss) {
            journal_pages_replayed += 1;
            let ops = (start - first_op) as usize..(page.end - first_op) as usize;
            for op in self.journal.range(ops) {
                match *op {
                    JournalOp::Map { lpn, version, ppn, programmed } => {
                        tip_programmed = tip_programmed.max(programmed);
                        if version > versions[lpn as usize] {
                            versions[lpn as usize] = version;
                            ppns[lpn as usize] = ppn;
                        }
                    }
                    JournalOp::Trim { lpn, version } => {
                        if version > versions[lpn as usize] {
                            versions[lpn as usize] = version;
                            ppns[lpn as usize] = META_UNMAPPED;
                        }
                    }
                }
            }
            start = page.end;
        }
        let journal_entries_replayed = start - ckpt.upto;

        // 3. OOB scan of the open region: durable pages programmed after
        //    the durable journal tip.
        let mut oob_pages_scanned = 0;
        let mut torn_pages = 0;
        for (ppn, rec) in self.oob.iter().enumerate() {
            let Some(rec) = rec else { continue };
            if rec.durable_at > t_loss {
                torn_pages += 1;
                continue;
            }
            if rec.programmed <= tip_programmed {
                continue;
            }
            oob_pages_scanned += 1;
            if rec.version > versions[rec.lpn as usize] {
                versions[rec.lpn as usize] = rec.version;
                ppns[rec.lpn as usize] = ppn as u64;
            }
        }

        // 4. Invariants vs. the acknowledgement oracle.
        let mut lost_acked_writes = 0;
        let mut resurrected_trims = 0;
        for lpn in 0..versions.len() {
            let acked = self.acked_version[lpn];
            if acked == 0 {
                continue;
            }
            let recovered = versions[lpn];
            let mapped = ppns[lpn] != META_UNMAPPED;
            if self.acked_trim[lpn] {
                if mapped && recovered <= acked {
                    resurrected_trims += 1;
                }
            } else if recovered < acked || (recovered == acked && !mapped) {
                lost_acked_writes += 1;
            }
        }

        let pages_read = checkpoint_pages + journal_pages_replayed + oob_pages_scanned;
        RecoveryOutcome {
            versions,
            ppns,
            checkpoint_pages,
            journal_pages_replayed,
            journal_entries_replayed,
            oob_pages_scanned,
            torn_pages,
            lost_acked_writes,
            resurrected_trims,
            pages_read,
        }
    }

    /// Analytic mount latency for `pages_read` flash-page reads spread
    /// over `channels` parallel channel buses.
    #[must_use]
    pub fn recovery_time(
        &self,
        pages_read: u64,
        channels: u64,
        page_read: SimSpan,
        bus_ns_per_page: u64,
    ) -> SimSpan {
        let rounds = pages_read.div_ceil(channels.max(1));
        SimSpan::from_ns(rounds * (page_read.as_ns() + bus_ns_per_page))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dssd_flash::FlashGeometry;

    fn t(ns: u64) -> SimTime {
        SimTime::ZERO + SimSpan::from_ns(ns)
    }

    fn setup(entries_per_page: u32, ckpt_interval: u64) -> (MetaState, MappingTable) {
        let geo = FlashGeometry::tiny();
        let total = geo.total_pages();
        let meta = MetaState::new(
            MetaConfig {
                journal_entries_per_page: entries_per_page,
                checkpoint_interval_pages: ckpt_interval,
                page_bytes: geo.page_bytes,
            },
            16,
            total,
        );
        let map = MappingTable::new(&geo, 16);
        (meta, map)
    }

    /// Drives one acknowledged host write of `lpn` -> `ppn` end to end:
    /// version bump, program completion at `at`, host ack.
    fn write_acked(meta: &mut MetaState, map: &mut MappingTable, lpn: Lpn, ppn: Ppn, at: SimTime) {
        let ticket = meta.note_host_writes([(lpn, ppn)]);
        map.map_write(lpn, ppn);
        meta.mark_programmed(ticket, at);
        meta.ack(ticket);
    }

    #[test]
    fn prefill_writes_are_instantly_durable_without_tickets() {
        let (mut meta, mut map) = setup(4, 0);
        assert_eq!(meta.note_host_writes([(0, 0), (1, 1)]), META_NO_TICKET);
        map.map_write(0, 0);
        map.map_write(1, 1);
        meta.mount_baseline(&map);
        let out = meta.recover(t(0));
        assert_eq!(out.ppns[0], 0);
        assert_eq!(out.ppns[1], 1);
        assert_eq!(out.lost_acked_writes, 0);
        assert_eq!(out.resurrected_trims, 0);
    }

    #[test]
    fn journal_flushes_when_page_fills_and_durable_replay_recovers() {
        let (mut meta, mut map) = setup(2, 0);
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 3, 7, t(100));
        write_acked(&mut meta, &mut map, 4, 8, t(200));
        let mut io = Vec::new();
        meta.drain_io(&mut io);
        assert_eq!(io, vec![MetaIo::JournalFlush { page: 0, bytes: meta.config.page_bytes }]);
        meta.journal_durable(0, t(250));
        let out = meta.recover(t(300));
        assert_eq!(out.journal_pages_replayed, 1);
        assert_eq!(out.journal_entries_replayed, 2);
        assert_eq!(out.ppns[3], 7);
        assert_eq!(out.ppns[4], 8);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn unjournaled_acked_write_recovers_via_oob_scan() {
        let (mut meta, mut map) = setup(1024, 0); // journal never fills
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 5, 9, t(100));
        assert_eq!(meta.pending(), 1);
        let out = meta.recover(t(200));
        assert_eq!(out.journal_pages_replayed, 0);
        assert_eq!(out.oob_pages_scanned, 1);
        assert_eq!(out.ppns[5], 9);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn torn_program_is_invisible_and_unacked_loss_is_not_a_violation() {
        let (mut meta, mut map) = setup(1024, 0);
        meta.mount_baseline(&map);
        // Program completes at t=500, crash at t=100: the page tore.
        let ticket = meta.note_host_writes([(6, 10)]);
        map.map_write(6, 10);
        meta.mark_programmed(ticket, t(500));
        let out = meta.recover(t(100));
        assert_eq!(out.torn_pages, 1);
        assert_eq!(out.ppns[6], META_UNMAPPED);
        assert_eq!(out.lost_acked_writes, 0, "never acked, so no promise broken");
    }

    #[test]
    fn losing_an_acked_write_is_detected() {
        let (mut meta, mut map) = setup(1024, 0);
        meta.mount_baseline(&map);
        // Pathological: host acked, but the program lands after the
        // crash instant. The detector must flag it.
        let ticket = meta.note_host_writes([(6, 10)]);
        map.map_write(6, 10);
        meta.mark_programmed(ticket, t(500));
        meta.ack(ticket);
        let out = meta.recover(t(100));
        assert_eq!(out.lost_acked_writes, 1);
    }

    #[test]
    fn checkpoint_truncates_durable_covered_journal_prefix() {
        let (mut meta, mut map) = setup(1, 1); // flush every op, checkpoint every program
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 1, 2, t(100));
        let mut io = Vec::new();
        meta.drain_io(&mut io);
        assert_eq!(io.len(), 2, "journal flush then checkpoint: {io:?}");
        assert!(matches!(io[1], MetaIo::Checkpoint { .. }));
        meta.journal_durable(0, t(150));
        meta.checkpoint(&map, t(100), t(300));
        let out = meta.recover(t(400));
        assert_eq!(out.journal_pages_replayed, 0);
        assert_eq!(out.ppns[1], 2);
        assert_eq!(out.lost_acked_writes, 0);
        assert_eq!(meta.stats().checkpoints, 1);
        assert_eq!(meta.pages.len(), 1, "kept until the checkpoint is durable at the clock");
        // The next capture, with the clock past t(300), drops the
        // baseline and the journal page the first checkpoint covers.
        write_acked(&mut meta, &mut map, 3, 4, t(400));
        meta.journal_durable(1, t(450));
        meta.checkpoint(&map, t(400), t(600));
        assert_eq!(meta.checkpoints.len(), 2);
        let kept = (meta.pages.len(), meta.journal.len());
        assert_eq!(kept, (1, 1), "covered durable prefix truncated");
        let out = meta.recover(t(500));
        assert_eq!(out.journal_pages_replayed, 1);
        assert_eq!((out.ppns[1], out.ppns[3]), (2, 4));
        assert_eq!(out.lost_acked_writes, 0);
        assert_eq!(meta.stats().journal_pages, 2);
    }

    /// A crash after a checkpoint is booked but before its flush is
    /// durable mounts the older checkpoint and replays the journal.
    #[test]
    fn crash_before_a_checkpoint_is_durable_mounts_the_older_one() {
        let (mut meta, mut map) = setup(1, 1);
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 1, 2, t(100));
        meta.journal_durable(0, t(150));
        meta.checkpoint(&map, t(100), t(300));
        let out = meta.recover(t(200));
        assert_eq!(out.journal_pages_replayed, 1, "the baseline is mounted");
        assert_eq!(out.journal_entries_replayed, 1);
        assert_eq!(out.ppns[1], 2);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn stale_gc_copy_never_wins_recovery() {
        let (mut meta, mut map) = setup(1024, 0);
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 2, 4, t(100));
        // Host overwrites LPN 2 while GC was copying 4 -> 7: the copy
        // lands stale, carrying the old version in its OOB.
        write_acked(&mut meta, &mut map, 2, 6, t(200));
        meta.note_copy(2, 4, 7, false, t(300));
        let out = meta.recover(t(400));
        assert_eq!(out.ppns[2], 6, "newest host write wins, not the stale copy");
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn live_gc_copy_moves_the_mapping() {
        let (mut meta, mut map) = setup(1024, 0);
        meta.mount_baseline(&map);
        write_acked(&mut meta, &mut map, 2, 4, t(100));
        meta.note_copy(2, 4, 5, true, t(200));
        meta.note_erase(4, 1);
        let out = meta.recover(t(300));
        assert_eq!(out.ppns[2], 5);
        assert_eq!(out.lost_acked_writes, 0);
    }

    #[test]
    fn recovery_time_spreads_reads_over_channels() {
        let (meta, _) = setup(4, 0);
        let span = meta.recovery_time(10, 4, SimSpan::from_ns(2_000), 500);
        assert_eq!(span.as_ns(), 3 * 2_500); // ceil(10/4) = 3 rounds
    }

    #[test]
    #[should_panic(expected = "journal entries per page must be non-zero")]
    fn zero_entries_per_page_panics() {
        let geo = FlashGeometry::tiny();
        let _ = MetaState::new(
            MetaConfig {
                journal_entries_per_page: 0,
                checkpoint_interval_pages: 0,
                page_bytes: geo.page_bytes,
            },
            4,
            geo.total_pages(),
        );
    }
}
