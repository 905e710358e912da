//! FIFO bandwidth-server resource.

use crate::{SimSpan, SimTime};

/// The outcome of enqueueing a transfer on a [`BandwidthServer`]: when the
/// transfer starts occupying the resource and when it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When the resource starts serving this transfer.
    pub start: SimTime,
    /// When the transfer completes (schedule your completion event here).
    pub done: SimTime,
}

impl Transfer {
    /// Time spent in service.
    #[must_use]
    pub fn service(&self) -> SimSpan {
        self.done - self.start
    }
}

/// A FIFO bandwidth resource.
///
/// Models a bus, a DRAM port, or a flash channel: transfers are served one
/// at a time in arrival order, each occupying the resource for
/// `overhead + bytes / bandwidth`. Because all SSD data movement in this
/// reproduction is page-granular (4 KB / 16 KB), FIFO service at item
/// granularity is an accurate contention model — exactly the "bus
/// structure … modeled for system-bus in SimpleSSD" of the paper's
/// methodology.
///
/// The server is *passive*: it computes start/finish times analytically
/// and never schedules events itself. Callers schedule a completion event
/// at [`Transfer::done`].
///
/// # Example
///
/// ```
/// use dssd_kernel::{BandwidthServer, SimSpan, SimTime};
///
/// // An 8 GB/s system bus with no per-item overhead.
/// let mut bus = BandwidthServer::new(8_000_000_000, SimSpan::ZERO);
/// let a = bus.enqueue(SimTime::ZERO, 4096);
/// let b = bus.enqueue(SimTime::ZERO, 4096);
/// assert_eq!(a.done.as_ns(), 512);      // 4 KiB at 8 GB/s
/// assert_eq!(b.start, a.done);          // FIFO: b waits for a
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthServer {
    bytes_per_sec: u64,
    overhead: SimSpan,
    busy_until: SimTime,
}

impl BandwidthServer {
    /// Creates a server with the given bandwidth (bytes per second) and a
    /// fixed per-item overhead (arbitration/protocol cost).
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    #[must_use]
    pub fn new(bytes_per_sec: u64, overhead: SimSpan) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
        BandwidthServer {
            bytes_per_sec,
            overhead,
            busy_until: SimTime::ZERO,
        }
    }

    /// Enqueues a transfer of `bytes` arriving at `now`. Returns when the
    /// transfer starts and completes.
    pub fn enqueue(&mut self, now: SimTime, bytes: u64) -> Transfer {
        self.enqueue_extra(now, bytes, SimSpan::ZERO)
    }

    /// [`BandwidthServer::enqueue`] with additional per-item overhead on
    /// top of the server's base overhead (e.g. firmware descriptor
    /// management for individually-shepherded transfers).
    pub fn enqueue_extra(&mut self, now: SimTime, bytes: u64, extra: SimSpan) -> Transfer {
        let start = now.max(self.busy_until);
        let service =
            self.overhead + extra + SimSpan::for_transfer(bytes, self.bytes_per_sec);
        let done = start + service;
        self.busy_until = done;
        Transfer { start, done }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(n: u64) -> u64 {
        n * 1_000_000_000
    }

    #[test]
    fn idle_server_serves_immediately() {
        let mut s = BandwidthServer::new(gbps(1), SimSpan::ZERO);
        let t = s.enqueue(SimTime::from_us(10), 4096);
        assert_eq!(t.start, SimTime::from_us(10));
        assert_eq!(t.done, SimTime::from_us(10) + SimSpan::from_ns(4096));
    }

    #[test]
    fn fifo_serializes_contending_transfers() {
        let mut s = BandwidthServer::new(gbps(1), SimSpan::ZERO);
        let a = s.enqueue(SimTime::ZERO, 4096);
        let b = s.enqueue(SimTime::ZERO, 4096);
        assert_eq!(b.start, a.done);
        assert_eq!(b.done.as_ns(), 2 * 4096);
        assert_eq!(b.start - SimTime::ZERO, SimSpan::from_ns(4096));
    }

    #[test]
    fn overhead_is_charged_per_item() {
        let mut s = BandwidthServer::new(gbps(1), SimSpan::from_ns(100));
        let a = s.enqueue(SimTime::ZERO, 1000);
        assert_eq!(a.service(), SimSpan::from_ns(1100));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut s = BandwidthServer::new(gbps(1), SimSpan::ZERO);
        let a = s.enqueue(SimTime::ZERO, 1000);
        let b = s.enqueue(SimTime::from_us(100), 1000); // long idle gap
        assert_eq!(b.start, SimTime::from_us(100));
        assert_eq!(a.service() + b.service(), SimSpan::from_ns(2000));
    }

    #[test]
    fn throughput_matches_bandwidth_under_saturation() {
        let mut s = BandwidthServer::new(gbps(8), SimSpan::ZERO);
        let mut done = SimTime::ZERO;
        let n = 10_000u64;
        for _ in 0..n {
            done = s.enqueue(SimTime::ZERO, 4096).done;
        }
        let achieved = (n * 4096) as f64 / done.as_secs_f64();
        let rel = (achieved - 8e9).abs() / 8e9;
        assert!(rel < 0.01, "achieved {achieved}");
    }

    /// Each transfer starts at its arrival or when the previous one is
    /// done, whichever is later (FIFO, never idle with work queued), and
    /// is served for exactly the overhead plus its bytes at the rate.
    #[test]
    fn fifo_invariants() {
        crate::check(256, 0xF1F0_0000, |rng| {
            let overhead = SimSpan::from_ns(7);
            let mut s = BandwidthServer::new(1_000_000_000, overhead);
            let mut arrivals: Vec<(u64, u64)> = (0..rng.range_u64(1..100))
                .map(|_| (rng.range_u64(0..10_000), rng.range_u64(1..100_000)))
                .collect();
            arrivals.sort_unstable();
            let mut prev_done = SimTime::ZERO;
            for &(at, bytes) in &arrivals {
                let t = s.enqueue(SimTime::from_ns(at), bytes);
                let service = overhead + SimSpan::for_transfer(bytes, 1_000_000_000);
                if t.start != SimTime::from_ns(at).max(prev_done) || t.service() != service {
                    return Err(format!("{t:?} for {bytes} B at {at} ns after {prev_done:?}"));
                }
                prev_done = t.done;
            }
            Ok(())
        });
    }

    /// `enqueue_extra` lengthens service by exactly the extra overhead.
    #[test]
    fn extra_overhead_is_additive() {
        crate::check(256, 0xE47A_0000, |rng| {
            let bytes = rng.range_u64(1..100_000);
            let extra = rng.range_u64(0..10_000);
            let mut a = BandwidthServer::new(2_000_000_000, SimSpan::from_ns(5));
            let mut b = BandwidthServer::new(2_000_000_000, SimSpan::from_ns(5));
            let ta = a.enqueue(SimTime::ZERO, bytes);
            let tb = b.enqueue_extra(SimTime::ZERO, bytes, SimSpan::from_ns(extra));
            if tb.service().as_ns() != ta.service().as_ns() + extra {
                return Err(format!("{bytes} B + {extra} ns: {ta:?} vs {tb:?}"));
            }
            Ok(())
        });
    }
}
