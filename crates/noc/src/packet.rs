//! Packets and flits.

use dssd_kernel::SimTime;

/// Unique identifier of a packet within one [`Network`](crate::Network).
pub type PacketId = u64;

/// A message to move across the fNoC.
///
/// In the dSSD a packet is one page (plus command/header information) of a
/// global copyback: the paper's Fig 4 step ⑤ "packetization" appends the
/// command information and packet header to the page data.
///
/// # Example
///
/// ```
/// use dssd_noc::Packet;
/// let p = Packet::new(1, 0, 5, 4096);
/// assert_eq!(p.bytes, 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Unique packet id (assigned by the caller; must be unique per network).
    pub id: PacketId,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Payload bytes (header bytes are added by the network config).
    pub bytes: u64,
}

impl Packet {
    /// Creates a packet.
    #[must_use]
    pub fn new(id: PacketId, src: usize, dst: usize, bytes: u64) -> Self {
        Packet { id, src, dst, bytes }
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitKind {
    /// First flit; carries the route.
    Head,
    /// Middle flit.
    Body,
    /// Last flit; releases the wormhole locks.
    Tail,
    /// A single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flow-control unit traversing the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Destination node (replicated so every flit can be validated).
    /// Narrow on purpose: flits flow through the event queue by value,
    /// so their size is hot-path memory traffic.
    pub dst: u32,
    /// Head/body/tail position.
    pub kind: FlitKind,
}

/// Per-packet bookkeeping held by the network while a packet is in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PacketState {
    pub(crate) packet: Packet,
    pub(crate) injected_at: SimTime,
    pub(crate) flits_remaining: u32,
    pub(crate) hops: u32,
}

/// Splits a packet into `n` flits given flit and header sizes.
#[must_use]
pub(crate) fn flit_count(payload_bytes: u64, header_bytes: u32, flit_bytes: u32) -> u32 {
    let total = payload_bytes + header_bytes as u64;
    (total.div_ceil(flit_bytes as u64)).max(1) as u32
}

/// The kind of the `i`-th flit out of `n`.
#[must_use]
pub(crate) fn flit_kind(i: u32, n: u32) -> FlitKind {
    match (i, n) {
        (0, 1) => FlitKind::HeadTail,
        (0, _) => FlitKind::Head,
        (i, n) if i + 1 == n => FlitKind::Tail,
        _ => FlitKind::Body,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_count_rounds_up() {
        assert_eq!(flit_count(4096, 16, 32), (4096u32 + 16).div_ceil(32));
        assert_eq!(flit_count(0, 16, 32), 1);
        assert_eq!(flit_count(32, 0, 32), 1);
        assert_eq!(flit_count(33, 0, 32), 2);
    }

    #[test]
    fn flit_kinds_cover_packet() {
        assert_eq!(flit_kind(0, 1), FlitKind::HeadTail);
        assert_eq!(flit_kind(0, 3), FlitKind::Head);
        assert_eq!(flit_kind(1, 3), FlitKind::Body);
        assert_eq!(flit_kind(2, 3), FlitKind::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Body.is_head());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    fn packet_builder() {
        let p = Packet::new(9, 1, 2, 100);
        assert_eq!(p.id, 9);
        assert_eq!(p.src, 1);
        assert_eq!(p.dst, 2);
    }
}
