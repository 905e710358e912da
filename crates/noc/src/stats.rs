//! Network measurement counters.

use dssd_kernel::SimSpan;

use crate::Delivered;

/// Aggregate network statistics.
///
/// # Example
///
/// ```
/// use dssd_noc::{drive, Network, NocConfig, Packet, TopologyKind};
/// use dssd_kernel::SimTime;
///
/// let mut net = Network::new(NocConfig::new(TopologyKind::Ring, 4));
/// drive(&mut net, vec![(SimTime::ZERO, Packet::new(0, 0, 2, 4096))]);
/// assert_eq!(net.stats().delivered, 1);
/// assert!(net.stats().mean_latency().as_ns() > 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct NocStats {
    /// Packets injected.
    pub injected: u64,
    /// Packets fully delivered.
    pub delivered: u64,
    /// Payload bytes delivered.
    pub bytes_delivered: u64,
    /// Total flit-link traversals (a load/energy proxy).
    pub flit_hops: u64,
    /// Summed injection-to-ejection latency of delivered packets, in ns
    /// (for mean latency).
    pub total_latency_ns: u64,
    /// Total head-flit hops (for mean hop count).
    pub total_hops: u64,
    /// Arbitration attempts that found a routable flit but no downstream
    /// credit — a back-pressure signal sampled by the telemetry epoch
    /// probe.
    pub credit_stalls: u64,
}

impl NocStats {
    pub(crate) fn record_delivery(&mut self, d: &Delivered) {
        self.delivered += 1;
        self.bytes_delivered += d.packet.bytes;
        self.total_hops += d.hops as u64;
        self.total_latency_ns += d.latency().as_ns();
    }

    /// Mean packet latency, rounded down to the nanosecond
    /// ([`SimSpan::ZERO`] if nothing delivered).
    #[must_use]
    pub fn mean_latency(&self) -> SimSpan {
        SimSpan::from_ns(
            self.total_latency_ns
                .checked_div(self.delivered)
                .unwrap_or(0),
        )
    }

    /// Mean hops per delivered packet.
    #[must_use]
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }

    /// Delivered payload throughput over `elapsed`.
    #[must_use]
    pub fn throughput(&self, elapsed: SimSpan) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes_delivered as f64 / elapsed.as_secs_f64()
        }
    }
}
