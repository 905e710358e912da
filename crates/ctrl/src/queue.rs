//! Controller command queue with staged copyback tracking.
//!
//! The paper (Sec 4.2): "the command queue keeps track of the commands;
//! for the copyback commands, a 'status' is also maintained to determine
//! which stage of the command is currently being executed — e.g., R
//! identifies that the read has been done, RE identifies that error
//! detection/correction has been done after the read".

use dssd_kernel::{Slab, SlabKey};

/// Identifier of a queued command, unique within one queue.
///
/// Packed [`SlabKey`] bits: the low 32 bits index the queue's slab slot
/// and the high 32 bits carry the slot generation, so a retired id never
/// aliases a later command that reuses the slot.
pub type CommandId = u64;

/// What a queued command does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Host read I/O.
    HostRead,
    /// Host write I/O.
    HostWrite,
    /// Block erase (GC).
    Erase,
    /// A (global) copyback: read at this controller, write at `dst_node`.
    Copyback {
        /// fNoC node of the destination controller (may equal the source
        /// for same-channel copies).
        dst_node: usize,
    },
}

/// Execution stage of a copyback command (the paper's status field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CopybackStage {
    /// Command accepted, read not yet complete.
    Issued,
    /// `R`: page read into the dBUF.
    ReadDone,
    /// `RE`: error detection/correction complete.
    EccDone,
    /// `N`: packetized and traversing the fNoC.
    InNetwork,
    /// `W`: write issued at the destination controller.
    WriteIssued,
    /// Copy complete; queue entry can be retired.
    Done,
}

impl CopybackStage {
    /// The stage that legally follows this one. Same-channel copies skip
    /// [`CopybackStage::InNetwork`] by advancing twice.
    #[must_use]
    pub fn next(self) -> CopybackStage {
        match self {
            CopybackStage::Issued => CopybackStage::ReadDone,
            CopybackStage::ReadDone => CopybackStage::EccDone,
            CopybackStage::EccDone => CopybackStage::InNetwork,
            CopybackStage::InNetwork => CopybackStage::WriteIssued,
            CopybackStage::WriteIssued | CopybackStage::Done => CopybackStage::Done,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    kind: CommandKind,
    stage: Option<CopybackStage>,
}

/// Per-controller command queue.
///
/// Tracks in-flight commands and, for copybacks, their execution stage.
/// The queue is bookkeeping: timing comes from the event-driven world
/// that drives it.
///
/// # Example
///
/// ```
/// use dssd_ctrl::{CommandQueue, CommandKind, CopybackStage};
///
/// let mut q = CommandQueue::new();
/// let id = q.submit(CommandKind::Copyback { dst_node: 3 });
/// assert_eq!(q.stage(id), Some(CopybackStage::Issued));
/// q.advance(id); // R
/// q.advance(id); // RE
/// assert_eq!(q.stage(id), Some(CopybackStage::EccDone));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommandQueue {
    entries: Slab<Entry>,
    submitted: u64,
    retired: u64,
}

impl CommandQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        CommandQueue::default()
    }

    /// Enqueues a command and returns its id.
    pub fn submit(&mut self, kind: CommandKind) -> CommandId {
        self.submitted += 1;
        let stage = match kind {
            CommandKind::Copyback { .. } => Some(CopybackStage::Issued),
            _ => None,
        };
        self.entries.insert(Entry { kind, stage }).to_bits()
    }

    /// The kind of a queued command.
    #[must_use]
    pub fn kind(&self, id: CommandId) -> Option<CommandKind> {
        self.entries.get(SlabKey::from_bits(id)).map(|e| e.kind)
    }

    /// The copyback stage of a queued command (`None` for non-copybacks
    /// or unknown ids).
    #[must_use]
    pub fn stage(&self, id: CommandId) -> Option<CopybackStage> {
        self.entries.get(SlabKey::from_bits(id)).and_then(|e| e.stage)
    }

    /// Advances a copyback to its next stage and returns the new stage.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a queued copyback — stage transitions on
    /// retired or non-copyback commands are simulator bugs.
    pub fn advance(&mut self, id: CommandId) -> CopybackStage {
        let e = self
            .entries
            .get_mut(SlabKey::from_bits(id))
            .expect("advance on unknown command");
        let stage = e.stage.expect("advance on non-copyback command");
        let next = stage.next();
        e.stage = Some(next);
        next
    }

    /// Removes a completed command.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not queued.
    pub fn retire(&mut self, id: CommandId) {
        self.entries
            .remove(SlabKey::from_bits(id))
            .expect("retire on unknown command");
        self.retired += 1;
    }

    /// Commands currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no command is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total commands ever submitted.
    #[must_use]
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Total commands retired.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copyback_walks_all_stages() {
        let mut q = CommandQueue::new();
        let id = q.submit(CommandKind::Copyback { dst_node: 1 });
        let expected = [
            CopybackStage::ReadDone,
            CopybackStage::EccDone,
            CopybackStage::InNetwork,
            CopybackStage::WriteIssued,
            CopybackStage::Done,
        ];
        for want in expected {
            assert_eq!(q.advance(id), want);
        }
        assert_eq!(q.advance(id), CopybackStage::Done); // idempotent at end
        q.retire(id);
        assert!(q.is_empty());
    }

    #[test]
    fn io_commands_have_no_stage() {
        let mut q = CommandQueue::new();
        let id = q.submit(CommandKind::HostWrite);
        assert_eq!(q.stage(id), None);
        assert_eq!(q.kind(id), Some(CommandKind::HostWrite));
        q.retire(id);
    }

    #[test]
    #[should_panic(expected = "non-copyback")]
    fn advance_io_panics() {
        let mut q = CommandQueue::new();
        let id = q.submit(CommandKind::HostRead);
        q.advance(id);
    }

    #[test]
    #[should_panic(expected = "unknown command")]
    fn retire_twice_panics() {
        let mut q = CommandQueue::new();
        let id = q.submit(CommandKind::Erase);
        q.retire(id);
        q.retire(id);
    }

    #[test]
    fn ids_are_unique() {
        let mut q = CommandQueue::new();
        let a = q.submit(CommandKind::HostRead);
        let b = q.submit(CommandKind::HostRead);
        assert_ne!(a, b);
        assert_eq!(q.submitted(), 2);
        assert_eq!(q.retired(), 0);
    }

    #[test]
    fn retired_ids_never_alias_slot_reuse() {
        let mut q = CommandQueue::new();
        let a = q.submit(CommandKind::HostRead);
        q.retire(a);
        // The new command reuses a's slab slot but carries a fresh
        // generation, so the retired id must not resolve to it.
        let b = q.submit(CommandKind::HostWrite);
        assert_ne!(a, b);
        assert_eq!(q.kind(a), None);
        assert_eq!(q.kind(b), Some(CommandKind::HostWrite));
        assert_eq!(q.retired(), 1);
    }
}
