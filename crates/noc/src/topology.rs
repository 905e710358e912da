//! fNoC topologies: 1-D mesh, ring, crossbar (modeled as a star).

use dssd_kernel::SimSpan;

/// The interconnect shapes compared in the paper (Fig 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Bidirectional line; dimension-order (left/right) routing. The
    /// paper's default — it matches the linear floorplan of the flash
    /// controllers.
    Mesh1D,
    /// Bidirectional ring; shortest-path routing.
    Ring,
    /// Full crossbar, modeled as a star: every controller connects to a
    /// central switch with one link pair, and the switch has no internal
    /// contention.
    Crossbar,
    /// 2-D mesh with XY dimension-order routing — the paper's future-work
    /// question ("as the number of flash controllers increases ... it
    /// remains to be seen what the optimal topology will be"), answerable
    /// here. `cols` is the X dimension; terminals are laid out row-major.
    Mesh2D {
        /// Columns of the grid (terminals must divide evenly).
        cols: usize,
    },
}

impl TopologyKind {
    /// Number of unidirectional channels crossing the bisection for `k`
    /// terminal nodes.
    ///
    /// * 1-D mesh: one bidirectional channel crosses the middle → 2.
    /// * Ring: two bidirectional channels cross → 4.
    /// * Crossbar: conventionally credited with `k/2` port-bandwidth
    ///   units each way → `k`.
    #[must_use]
    pub fn bisection_channels(self, k: usize) -> usize {
        match self {
            TopologyKind::Mesh1D => 2,
            TopologyKind::Ring => 4,
            TopologyKind::Crossbar => k.max(2),
            TopologyKind::Mesh2D { cols } => {
                // Cut across the longer dimension.
                let rows = k.div_ceil(cols.max(1));
                2 * rows.min(cols).max(1)
            }
        }
    }

    /// The per-link bandwidth that gives this topology a total bisection
    /// bandwidth of `bisection_bytes_per_sec` with `k` terminals — the
    /// normalization used for the Fig 13 comparison ("bisection bandwidth
    /// is held constant across the different topologies").
    #[must_use]
    pub fn link_bw_for_bisection(self, k: usize, bisection_bytes_per_sec: u64) -> u64 {
        (bisection_bytes_per_sec / self.bisection_channels(k) as u64).max(1)
    }
}

/// Where an output port leads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortLink {
    /// Ejection to the local terminal (the controller's NI).
    Local,
    /// A channel to `(node, input port at that node)`.
    Link {
        /// Downstream node.
        peer: usize,
        /// Input-port index at the downstream node.
        peer_in: usize,
    },
}

/// A built topology: per-node port maps and a routing function.
///
/// Ports are symmetric: output port `p` of node `n` feeds input port
/// `peer_in` of its peer, and input port `p` of node `n` is fed by the
/// matching reverse channel. Port 0 is always the local port.
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    terminals: usize,
    /// Output links per node (index = output port).
    outputs: Vec<Vec<PortLink>>,
}

impl Topology {
    /// Builds a topology over `terminals` terminal nodes.
    ///
    /// For [`TopologyKind::Crossbar`] an extra hub node is appended after
    /// the terminals (node index `terminals`).
    ///
    /// # Panics
    ///
    /// Panics if `terminals < 2`.
    #[must_use]
    pub fn build(kind: TopologyKind, terminals: usize) -> Self {
        assert!(terminals >= 2, "need at least two terminals");
        let outputs = match kind {
            TopologyKind::Mesh1D | TopologyKind::Ring => {
                let wrap = kind == TopologyKind::Ring;
                (0..terminals)
                    .map(|n| {
                        // port 0 = local, 1 = left (toward n-1), 2 = right.
                        let left = if n > 0 {
                            Some(n - 1)
                        } else if wrap {
                            Some(terminals - 1)
                        } else {
                            None
                        };
                        let right = if n + 1 < terminals {
                            Some(n + 1)
                        } else if wrap {
                            Some(0)
                        } else {
                            None
                        };
                        let mut v = vec![PortLink::Local];
                        // A packet leaving left arrives at the peer's
                        // "right" input (port 2) and vice versa.
                        v.push(match left {
                            Some(p) => PortLink::Link { peer: p, peer_in: 2 },
                            None => PortLink::Local, // unused edge port
                        });
                        v.push(match right {
                            Some(p) => PortLink::Link { peer: p, peer_in: 1 },
                            None => PortLink::Local, // unused edge port
                        });
                        v
                    })
                    .collect()
            }
            TopologyKind::Mesh2D { cols } => {
                assert!(cols >= 1 && terminals.is_multiple_of(cols),
                        "terminals must fill the 2-D mesh grid");
                let rows = terminals / cols;
                (0..terminals)
                    .map(|n| {
                        let (x, y) = (n % cols, n / cols);
                        // ports: 0=local, 1=-x, 2=+x, 3=-y, 4=+y;
                        // a -x departure arrives on the peer's +x input.
                        let mut v = vec![PortLink::Local];
                        v.push(if x > 0 {
                            PortLink::Link { peer: n - 1, peer_in: 2 }
                        } else {
                            PortLink::Local
                        });
                        v.push(if x + 1 < cols {
                            PortLink::Link { peer: n + 1, peer_in: 1 }
                        } else {
                            PortLink::Local
                        });
                        v.push(if y > 0 {
                            PortLink::Link { peer: n - cols, peer_in: 4 }
                        } else {
                            PortLink::Local
                        });
                        v.push(if y + 1 < rows {
                            PortLink::Link { peer: n + cols, peer_in: 3 }
                        } else {
                            PortLink::Local
                        });
                        v
                    })
                    .collect()
            }
            TopologyKind::Crossbar => {
                let hub = terminals;
                let mut outputs: Vec<Vec<PortLink>> = (0..terminals)
                    .map(|n| {
                        vec![
                            PortLink::Local,
                            // Leaf uplink lands on hub input port n.
                            PortLink::Link { peer: hub, peer_in: n },
                        ]
                    })
                    .collect();
                // Hub: output port n goes down to leaf n's input port 1.
                outputs.push(
                    (0..terminals)
                        .map(|n| PortLink::Link { peer: n, peer_in: 1 })
                        .collect(),
                );
                outputs
            }
        };
        Topology { kind, terminals, outputs }
    }

    /// The topology kind.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of terminal (injecting/ejecting) nodes.
    #[must_use]
    pub fn terminals(&self) -> usize {
        self.terminals
    }

    /// Total nodes including any internal switch nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.outputs.len()
    }

    /// Ports at `node` (inputs and outputs are symmetric).
    #[must_use]
    pub fn ports(&self, node: usize) -> usize {
        self.outputs[node].len()
    }

    /// Where output port `port` of `node` leads.
    #[must_use]
    pub fn output(&self, node: usize, port: usize) -> PortLink {
        self.outputs[node][port]
    }

    /// The output port a packet at `node` destined for terminal `dst`
    /// should take (deterministic routing: dimension-order on the mesh,
    /// shortest path on the ring, up/down on the star).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a terminal.
    #[must_use]
    pub fn route(&self, node: usize, dst: usize) -> usize {
        assert!(dst < self.terminals, "destination {dst} is not a terminal");
        match self.kind {
            TopologyKind::Mesh1D => {
                if dst == node {
                    0
                } else if dst < node {
                    1
                } else {
                    2
                }
            }
            TopologyKind::Ring => {
                if dst == node {
                    return 0;
                }
                let k = self.terminals;
                let cw = (dst + k - node) % k; // hops going "right"
                let ccw = (node + k - dst) % k; // hops going "left"
                if cw <= ccw {
                    2
                } else {
                    1
                }
            }
            TopologyKind::Crossbar => {
                if node == self.terminals {
                    dst // hub: direct down-port per leaf
                } else if dst == node {
                    0
                } else {
                    1 // leaf: uplink
                }
            }
            TopologyKind::Mesh2D { cols } => {
                if dst == node {
                    return 0;
                }
                let (x, y) = (node % cols, node / cols);
                let (dx, dy) = (dst % cols, dst / cols);
                // XY dimension-order: resolve X first, then Y.
                if dx < x {
                    1
                } else if dx > x {
                    2
                } else if dy < y {
                    3
                } else {
                    4
                }
            }
        }
    }

    /// Minimal hop count (links traversed) between terminals.
    #[must_use]
    pub fn hops(&self, src: usize, dst: usize) -> usize {
        if src == dst {
            return 0;
        }
        match self.kind {
            TopologyKind::Mesh1D => src.abs_diff(dst),
            TopologyKind::Ring => {
                let k = self.terminals;
                ((dst + k - src) % k).min((src + k - dst) % k)
            }
            TopologyKind::Crossbar => 2,
            TopologyKind::Mesh2D { cols } => {
                (src % cols).abs_diff(dst % cols) + (src / cols).abs_diff(dst / cols)
            }
        }
    }
}

/// Configuration of a [`Network`](crate::Network).
///
/// # Example
///
/// ```
/// use dssd_noc::{NocConfig, TopologyKind};
/// use dssd_kernel::SimSpan;
///
/// let cfg = NocConfig::new(TopologyKind::Mesh1D, 8)
///     .with_link_bandwidth(2_000_000_000)
///     .with_input_buffer_flits(8);
/// assert_eq!(cfg.terminals, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NocConfig {
    /// Interconnect shape.
    pub topology: TopologyKind,
    /// Number of terminal nodes (`k` in the paper; one per flash channel).
    pub terminals: usize,
    /// Flit size in bytes.
    pub flit_bytes: u32,
    /// Packet header/command bytes prepended to the page payload
    /// (Fig 4 step ⑤).
    pub header_bytes: u32,
    /// Per-link channel bandwidth in bytes/second.
    pub link_bytes_per_sec: u64,
    /// Router pipeline latency added per hop.
    pub router_latency: SimSpan,
    /// Input buffer capacity per port, in flits.
    pub input_buffer_flits: usize,
    /// Enable the contention-free express path (default on). When a
    /// packet's whole route is provably free of interference, the network
    /// fast-forwards it with a single delivery event instead of per-flit
    /// router events (`--no-noc-express` turns it off). It is meant to
    /// be bit-identical to the flit-level engine, but two figure points
    /// differ: fig08's dSSD_f at ×4 on-chip bandwidth and fig13's ring at
    /// 2 GB/s bisection with 4-flit buffers (ROADMAP.md, "Delete the NoC
    /// express path").
    pub express: bool,
}

impl NocConfig {
    /// The widest crossbar a [`Network`](crate::Network) runs. Each
    /// router output keeps a one-`u64` request mask over its node's
    /// input slots (ports × 2 virtual channels), and the crossbar hub has
    /// one port per terminal; every mesh, ring and 2-D mesh router has at
    /// most five ports.
    pub const MAX_CROSSBAR_TERMINALS: usize = 32;

    /// Checks that a [`Network`](crate::Network) can be built from this
    /// config and carry traffic: at least two terminals, input buffers of
    /// at least one flit (a zero-flit buffer never grants a credit), and a
    /// crossbar no wider than [`Self::MAX_CROSSBAR_TERMINALS`]. The link
    /// bandwidth is not checked: embedders use zero as a "derive it"
    /// sentinel.
    ///
    /// # Errors
    ///
    /// A message naming the first violated rule.
    pub fn validate(&self) -> Result<(), String> {
        if self.terminals < 2 {
            let k = self.terminals;
            return Err(format!("fNoC needs at least two terminals, got {k}"));
        }
        if self.input_buffer_flits == 0 {
            return Err("fNoC input buffers need at least one flit".into());
        }
        let widest = Self::MAX_CROSSBAR_TERMINALS;
        if self.topology == TopologyKind::Crossbar && self.terminals > widest {
            return Err(format!(
                "a crossbar fNoC supports at most {widest} terminals, got {}",
                self.terminals
            ));
        }
        Ok(())
    }

    /// A config with the paper's defaults: 1 GB/s channels (equal to one
    /// flash-bus channel), 32 B flits, 16 B header, 4-flit input buffers
    /// and a 2 ns router pipeline.
    #[must_use]
    pub fn new(topology: TopologyKind, terminals: usize) -> Self {
        NocConfig {
            topology,
            terminals,
            flit_bytes: 32,
            header_bytes: 16,
            link_bytes_per_sec: 1_000_000_000,
            router_latency: SimSpan::from_ns(2),
            input_buffer_flits: 4,
            express: true,
        }
    }

    /// Sets the per-link bandwidth.
    #[must_use]
    pub fn with_link_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.link_bytes_per_sec = bytes_per_sec;
        self
    }

    /// Sets the per-link bandwidth so the topology's bisection bandwidth
    /// equals `bytes_per_sec` (the Fig 13 normalization).
    #[must_use]
    pub fn with_bisection_bandwidth(mut self, bytes_per_sec: u64) -> Self {
        self.link_bytes_per_sec =
            self.topology.link_bw_for_bisection(self.terminals, bytes_per_sec);
        self
    }

    /// Sets the input buffer depth in flits.
    #[must_use]
    pub fn with_input_buffer_flits(mut self, flits: usize) -> Self {
        self.input_buffer_flits = flits;
        self
    }

    /// Enables or disables the contention-free express path.
    #[must_use]
    pub fn with_express(mut self, on: bool) -> Self {
        self.express = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_routes_toward_destination() {
        let t = Topology::build(TopologyKind::Mesh1D, 8);
        assert_eq!(t.route(3, 3), 0);
        assert_eq!(t.route(3, 0), 1);
        assert_eq!(t.route(3, 7), 2);
    }

    #[test]
    fn ring_takes_shortest_direction() {
        let t = Topology::build(TopologyKind::Ring, 8);
        assert_eq!(t.route(0, 1), 2); // 1 hop right vs 7 left
        assert_eq!(t.route(0, 7), 1); // 1 hop left vs 7 right
        assert_eq!(t.route(0, 4), 2); // tie -> right
    }

    #[test]
    fn crossbar_goes_through_hub() {
        let t = Topology::build(TopologyKind::Crossbar, 8);
        assert_eq!(t.nodes(), 9);
        assert_eq!(t.route(2, 5), 1); // leaf uplink
        assert_eq!(t.route(8, 5), 5); // hub down-port
        assert_eq!(t.route(2, 2), 0); // self
    }

    #[test]
    fn ports_are_wired_symmetrically() {
        for kind in [TopologyKind::Mesh1D, TopologyKind::Ring, TopologyKind::Crossbar] {
            let t = Topology::build(kind, 8);
            for n in 0..t.nodes() {
                for p in 0..t.ports(n) {
                    if let PortLink::Link { peer, peer_in } = t.output(n, p) {
                        // The peer's output on that same port index must
                        // come back to us (mesh/ring) or be a valid port
                        // (star).
                        assert!(peer < t.nodes());
                        assert!(peer_in < t.ports(peer), "{kind:?} {n}:{p}");
                    }
                }
            }
        }
    }

    #[test]
    fn hop_counts() {
        let mesh = Topology::build(TopologyKind::Mesh1D, 8);
        assert_eq!(mesh.hops(0, 7), 7);
        assert_eq!(mesh.hops(4, 4), 0);
        let ring = Topology::build(TopologyKind::Ring, 8);
        assert_eq!(ring.hops(0, 7), 1);
        assert_eq!(ring.hops(0, 4), 4);
        let xbar = Topology::build(TopologyKind::Crossbar, 8);
        assert_eq!(xbar.hops(0, 7), 2);
    }

    #[test]
    fn bisection_normalization() {
        // 2 GB/s bisection over 8 terminals.
        let b = 2_000_000_000u64;
        assert_eq!(TopologyKind::Mesh1D.link_bw_for_bisection(8, b), b / 2);
        assert_eq!(TopologyKind::Ring.link_bw_for_bisection(8, b), b / 4);
        assert_eq!(TopologyKind::Crossbar.link_bw_for_bisection(8, b), b / 8);
    }

    #[test]
    fn routes_follow_links_to_destination() {
        // Walking the route from every src to every dst terminates at dst.
        for kind in [TopologyKind::Mesh1D, TopologyKind::Ring, TopologyKind::Crossbar] {
            let t = Topology::build(kind, 8);
            for src in 0..t.terminals() {
                for dst in 0..t.terminals() {
                    let mut at = src;
                    let mut hops = 0;
                    loop {
                        let port = t.route(at, dst);
                        match t.output(at, port) {
                            PortLink::Local => break,
                            PortLink::Link { peer, .. } => {
                                at = peer;
                                hops += 1;
                                assert!(hops <= t.nodes(), "{kind:?} loop {src}->{dst}");
                            }
                        }
                    }
                    assert_eq!(at, dst, "{kind:?} route {src}->{dst}");
                    assert_eq!(hops, t.hops(src, dst), "{kind:?} hops {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn mesh2d_routes_xy() {
        // 4x2 grid: nodes 0..3 on row 0, 4..7 on row 1.
        let t = Topology::build(TopologyKind::Mesh2D { cols: 4 }, 8);
        assert_eq!(t.route(0, 3), 2); // +x first
        assert_eq!(t.route(3, 0), 1);
        assert_eq!(t.route(0, 4), 4); // same column -> +y
        assert_eq!(t.route(5, 1), 3);
        assert_eq!(t.route(0, 7), 2); // X before Y
        assert_eq!(t.hops(0, 7), 4);
        assert_eq!(t.hops(0, 5), 2);
    }

    #[test]
    fn mesh2d_routes_terminate_everywhere() {
        let t = Topology::build(TopologyKind::Mesh2D { cols: 4 }, 8);
        for src in 0..8 {
            for dst in 0..8 {
                let mut at = src;
                let mut hops = 0;
                loop {
                    match t.output(at, t.route(at, dst)) {
                        PortLink::Local => break,
                        PortLink::Link { peer, .. } => {
                            at = peer;
                            hops += 1;
                            assert!(hops <= 16, "loop {src}->{dst}");
                        }
                    }
                }
                assert_eq!(at, dst);
                assert_eq!(hops, t.hops(src, dst));
            }
        }
    }

    #[test]
    fn mesh2d_bisection() {
        // 4x2: cut across the 4-column dimension -> 2 rows x 2 dirs = 4.
        assert_eq!(TopologyKind::Mesh2D { cols: 4 }.bisection_channels(8), 4);
        // 4x4: 8 channels.
        assert_eq!(TopologyKind::Mesh2D { cols: 4 }.bisection_channels(16), 8);
    }

    #[test]
    #[should_panic(expected = "fill the 2-D mesh")]
    fn mesh2d_ragged_grid_rejected() {
        let _ = Topology::build(TopologyKind::Mesh2D { cols: 3 }, 8);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_topology_rejected() {
        let _ = Topology::build(TopologyKind::Mesh1D, 1);
    }

    #[test]
    #[should_panic(expected = "not a terminal")]
    fn routing_to_hub_rejected() {
        let t = Topology::build(TopologyKind::Crossbar, 4);
        let _ = t.route(0, 4);
    }
}
