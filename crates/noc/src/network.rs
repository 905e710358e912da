//! The flit-level network engine.
//!
//! Routers are input-buffered with virtual channels (VCs) and
//! credit-based flow control; switching is wormhole (a packet holds its
//! output VC from head to tail). Two VCs with a dateline discipline make
//! the ring topology deadlock-free; the 1-D mesh and star are acyclic and
//! need only one, but run the same machinery for uniformity.

use std::collections::VecDeque;

use dssd_kernel::{EventKey, EventQueue, FifoLanes, FxHashMap, Orders, SimSpan, SimTime};

use crate::packet::{flit_count, flit_kind, PacketState};
use crate::stats::NocStats;
use crate::topology::PortLink;
use crate::{Flit, NocConfig, Packet, PacketId, Topology};

/// Number of virtual channels per input port.
const VCS: usize = 2;

/// Number of the network's constant-delay event lanes
/// ([`NocEvent::lane`]).
const LANES: usize = 3;

/// Internal network event. The network holds its pending flit events
/// itself, on constant-delay lanes that [`Network::run`] drains; the one
/// event an embedder sees is [`NocEvent::ExpressDone`], which
/// [`Step::schedule`] hands out for the embedder's own queue and
/// [`Network::handle_into`] takes back.
///
/// Fields are deliberately narrow (`u32`/`u8` indices): these events are
/// the bulk of a flit-level simulation's events, and every byte here is
/// copied on each push/pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NocEvent {
    /// A flit finished traversing a link and lands in an input buffer.
    FlitArrive {
        /// Receiving node.
        node: u32,
        /// Input port at the receiving node.
        in_port: u32,
        /// Virtual channel at the receiving input.
        vc: u8,
        /// The flit.
        flit: Flit,
    },
    /// An output link finished serializing a flit.
    OutputFree {
        /// Node owning the output.
        node: u32,
        /// Output port index.
        out_port: u32,
    },
    /// A downstream buffer slot was freed.
    Credit {
        /// Node owning the output the credit belongs to.
        node: u32,
        /// Output port index.
        out_port: u32,
        /// Virtual channel the credit replenishes.
        vc: u8,
    },
    /// A flit left the network through a local (ejection) port.
    Eject {
        /// Ejecting node.
        node: u32,
        /// The flit.
        flit: Flit,
    },
    /// An express-path reservation reached its (precomputed) delivery
    /// time. Stale instances — the reservation was demoted back to
    /// flit-level simulation, or the packet id was reused — are detected
    /// by the nonce and ignored.
    ExpressDone {
        /// The reserved packet.
        packet: PacketId,
        /// Reservation generation, guarding against packet-id reuse.
        nonce: u64,
    },
    /// An express group's composition is final (it fires one flit time
    /// after the group's shared injection timestamp, so every
    /// same-timestamp merge has already happened) and its joint timeline
    /// must now be resolved. Stale instances — the group merged into a
    /// larger one (fresh id, fresh resolve event) or was demoted before
    /// this fired — find no group under the id and are ignored.
    ExpressResolve {
        /// The group to resolve.
        group: u64,
    },
}

impl NocEvent {
    /// The network lane the event waits on, one per constant delay it is
    /// scheduled at: `router_latency`, the flit serialization time, or
    /// both added. `ExpressDone`, whose delay varies, has none: it rides
    /// the embedder's queue.
    fn lane(&self) -> usize {
        match self {
            NocEvent::Credit { .. } => 0,
            NocEvent::OutputFree { .. }
            | NocEvent::Eject { .. }
            | NocEvent::ExpressResolve { .. } => 1,
            NocEvent::FlitArrive { .. } => 2,
            NocEvent::ExpressDone { .. } => unreachable!("ExpressDone rides the embedder's queue"),
        }
    }
}

/// A packet that completed delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The packet.
    pub packet: Packet,
    /// When its tail flit ejected.
    pub at: SimTime,
    /// Links traversed by the head flit.
    pub hops: u32,
    /// When it was injected.
    pub injected_at: SimTime,
}

impl Delivered {
    /// Injection-to-ejection latency.
    #[must_use]
    pub fn latency(&self) -> SimSpan {
        self.at - self.injected_at
    }
}

/// A head flit crossing an inter-router link, reported only when
/// [`Network::set_record_hops`] is on (the telemetry tracer drains these
/// into per-router timeline spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The packet whose head flit crossed.
    pub packet: PacketId,
    /// The router driving the link.
    pub node: u32,
    /// When the head flit started serializing.
    pub at: SimTime,
    /// The packet's total serialization occupancy of the link (all its
    /// flits back to back; stalls extend the real occupancy beyond this).
    pub link_busy: SimSpan,
}

/// What the network hands its embedder: deliveries, express deliveries
/// to schedule, and hop records. Every entry point appends to a
/// caller-owned `Step`; keep one alive and drain it after each call, so
/// its vectors retain their capacity. Flit events never appear here:
/// the network keeps them on its own lanes.
#[derive(Debug, Default, Clone)]
pub struct Step {
    /// Packets fully delivered by this step.
    pub delivered: Vec<Delivered>,
    /// Express deliveries ([`NocEvent::ExpressDone`]) the embedder must
    /// schedule on its own queue and feed back through
    /// [`Network::handle_into`] at their time: their delay varies, so
    /// they have no lane.
    pub schedule: Vec<(SimTime, NocEvent)>,
    /// Link crossings (only populated when hop recording is enabled).
    pub hops: Vec<HopRecord>,
}

impl Step {
    /// Empties all lists, keeping their allocations for reuse.
    pub fn clear(&mut self) {
        self.delivered.clear();
        self.schedule.clear();
        self.hops.clear();
    }

    /// True if every list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.delivered.is_empty() && self.schedule.is_empty() && self.hops.is_empty()
    }
}

#[derive(Debug, Clone, Default)]
struct VcBuffer {
    flits: VecDeque<Flit>,
    /// Output (port, vc) allocated to the packet currently flowing
    /// through this input VC (set at head, cleared after tail).
    alloc: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct InputPort {
    vcs: [VcBuffer; VCS],
    /// The (upstream node, upstream out_port) feeding this input, if any
    /// (injection ports have no upstream). Fixed at build time.
    up: Option<(usize, usize)>,
}

#[derive(Debug, Clone)]
struct OutputPort {
    link: PortLink,
    /// False while the link serializes a flit.
    free: bool,
    /// Accumulated serialization time on this link.
    busy: SimSpan,
    /// Credits per downstream VC (usize::MAX for ejection ports).
    credits: [usize; VCS],
    /// Which input (port, vc) currently owns each output VC.
    owner: [Option<(usize, usize)>; VCS],
    /// Round-robin pointer over (in_port, vc) candidates.
    rr: usize,
    /// Request mask over the node's arbitration slots (`in_port * VCS +
    /// vc`): bit set ⇔ that VC buffer is non-empty and its front flit
    /// asks for this output — its allocated output mid-packet, else its
    /// routed one. Exactly the candidates arbitration would find by
    /// scanning every slot.
    req: u64,
}

#[derive(Debug, Clone)]
struct RouterNode {
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
}

/// Identifies one express reservation group.
type GroupId = u64;

/// Express-path effectiveness counters ([`Network::express_diag`]).
/// Pure diagnostics for tuning the express policy — nothing here feeds
/// back into simulated behavior or reported stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExpressDiag {
    /// Packets granted express passage (solo or by merging).
    pub granted: u64,
    /// Group resolutions served from the timeline cache (no private run).
    pub cache_hits: u64,
    /// Members demoted back to flit-level simulation.
    pub demoted: u64,
    /// Flit-level events simulated privately by cold forward runs — the
    /// express path's overhead (one run per *realized* group composition
    /// with an unknown signature; resolution is deferred until the
    /// composition is final, so merging never re-runs prefixes).
    pub forward_pops: u64,
    /// Flit-level events re-processed by demotion replays — overhead
    /// paid to rewind a reservation bit-identically.
    pub replay_pops: u64,
}

/// Per-member deferred results inside a [`GroupRes`]: everything the
/// member's [`NocEvent::ExpressDone`] releases.
#[derive(Debug, Clone)]
struct MemberData {
    /// Generation tag echoed by [`NocEvent::ExpressDone`]; reassigned
    /// (staling the previously scheduled event) whenever a merge re-runs
    /// the group and moves the member's delivery.
    nonce: u64,
    /// The precomputed delivery record.
    delivered: Delivered,
    /// Hop records captured by the forward run (timestamps are the true
    /// flit-level crossing times).
    hop_records: Vec<HopRecord>,
    /// Deferred [`NocStats::flit_hops`] contribution.
    flit_hops: u64,
    /// Deferred [`NocStats::credit_stalls`] contribution, attributed to
    /// this member's flits during the joint forward run.
    credit_stalls: u64,
    /// True once the member's `ExpressDone` fired and its results were
    /// applied.
    done: bool,
}

/// An express reservation group: one or more packets, all injected at
/// the *same* timestamp `t0` onto routes whose claims belong exclusively
/// to the group, whose entire flit-level lifetimes are resolved jointly.
/// One [`NocEvent::ExpressDone`] per member stands in for the per-flit
/// event traffic. Because every member starts at `t0` from pristine
/// (group-exclusive) router state, the joint evolution is a pure
/// function of the injection sequence — so resolution is *deferred*:
/// same-timestamp merges are pure bookkeeping, and the joint timeline is
/// computed (or cache-replayed) exactly once per realized composition
/// when the group's [`NocEvent::ExpressResolve`] fires, one flit time
/// after `t0`. Demotion replays the same function live up to the
/// demotion time.
#[derive(Debug, Clone)]
struct GroupRes {
    /// The shared injection timestamp.
    t0: SimTime,
    /// Members in global injection order (the order their flits entered
    /// the injection buffers — arbitration-visible, so replay-critical).
    members: Vec<(u64, Packet)>,
    /// Parallel to `members` once resolved; empty while the group still
    /// awaits its [`NocEvent::ExpressResolve`].
    data: Vec<MemberData>,
    /// Union of the members' route routers (deduplicated; segment order
    /// matches `snapshot`).
    route_nodes: Vec<u32>,
    /// Pre-group `(busy, rr)` of every output port on `route_nodes`, in
    /// node × port order — the only router state the forward run leaves
    /// changed, restored on merge re-runs and demotion.
    snapshot: Vec<(SimSpan, usize)>,
    /// Flit-level events of the whole group's joint evolution (zero
    /// until resolved).
    fwd_pops: u64,
    /// Members whose `ExpressDone` has not fired yet.
    live: usize,
}

/// The time-translated joint solution of one express group, memoized by
/// the group's flattened signature (`[record_hops, src, dst, n_flits,
/// src, dst, n_flits, ...]` in injection order). Deterministic routing
/// plus group-exclusive claims make the joint timeline a pure function
/// of that signature, shifted by `t0`: `busy` is write-only during a run
/// (pure telemetry) and `rr` only picks among occupied slots, all of
/// which belong to the group. One machinery run per signature captures
/// everything; later groups with the same signature fast-forward with
/// O(route + members) arithmetic and no flit events at all.
#[derive(Debug, Clone)]
struct GroupTimeline {
    /// Per-member relative results, parallel to the group's members.
    rel: Vec<MemberRel>,
    /// `(node, port, busy_delta, rr_after)` for every output the run
    /// changed — the complete post-state, applied arithmetically on a
    /// cache hit and rewound from the snapshot on demotion.
    post: Vec<(u32, u32, SimSpan, usize)>,
    /// Events the machinery run processed.
    fwd_pops: u64,
}

thread_local! {
    /// Per-thread pool of express timeline caches, keyed by network
    /// configuration. A [`GroupTimeline`] is a pure function of
    /// `(NocConfig, signature)` — nothing about a particular [`Network`]
    /// instance's history enters it — so resolved timelines outlive the
    /// network that computed them: [`Network::new`] adopts the pool's
    /// cache for its configuration and [`Drop`] returns it. Repeated
    /// runs of one configuration on one thread (sweeps, benchmark
    /// iterations, A/B comparisons) thereby start warm, paying the one
    /// private machinery run per composition once per thread instead of
    /// once per run. Purely a speed memo: cache warmth can never change
    /// simulated behavior.
    static EXPRESS_CACHES: std::cell::RefCell<FxHashMap<NocConfig, FxHashMap<Vec<u32>, GroupTimeline>>> =
        std::cell::RefCell::new(FxHashMap::default());
}

/// Upper bound on memoized timelines per configuration; past it, new
/// compositions simply run the machinery without being memoized. Bounds
/// pool memory on adversarially diverse traffic (real workloads settle
/// into far fewer recurring compositions).
const EXPRESS_CACHE_CAP: usize = 4096;

/// One member's slice of a [`GroupTimeline`].
#[derive(Debug, Clone)]
struct MemberRel {
    /// Delivery time offset from `t0`.
    rel_delivered: SimSpan,
    /// Links traversed by the member's head flit.
    hops: u32,
    /// `(node, at - t0, link_busy)` per captured [`HopRecord`] (empty
    /// when hop recording was off — the signature includes that flag).
    rel_hops: Vec<(u32, SimSpan, SimSpan)>,
    /// [`NocStats::flit_hops`] contribution.
    flit_hops: u64,
    /// [`NocStats::credit_stalls`] contribution.
    credit_stalls: u64,
}

/// The fNoC: a set of routers, their pending flit events, and
/// per-packet bookkeeping.
///
/// Flit events wait on three lanes that the network owns, one per
/// constant delay they are scheduled at, stamped from the embedder's
/// insertion counter (an [`Orders`]) at the moment a handler schedules
/// them. The embedder compares [`Network::next_key`] with its own
/// queue's head and lets
/// [`Network::run`] handle flit events while they come first, so the
/// two merge by key exactly as one queue holding both would pop.
///
/// See the [crate documentation](crate) for the modeling overview and an
/// end-to-end example.
#[derive(Debug)]
pub struct Network {
    config: NocConfig,
    topology: Topology,
    nodes: Vec<RouterNode>,
    /// Pending flit events, one lane per constant delay.
    lanes: FifoLanes<NocEvent, LANES>,
    packets: FxHashMap<PacketId, PacketState>,
    /// Serialization time of one flit on a link (constant per network).
    flit_ser: SimSpan,
    stats: NocStats,
    in_flight: usize,
    /// Emit [`HopRecord`]s into [`Step::hops`] (telemetry only; purely
    /// observational, never affects routing or timing).
    record_hops: bool,
    /// Per-node count of in-flight packets whose route crosses the node.
    /// Express legality demands exclusive ownership of *nodes*, not just
    /// links: a foreign packet merely arbitrating at a shared router can
    /// bump `credit_stalls` on our behalf (and vice versa), so anything
    /// weaker than node-disjointness would skew stats.
    node_claims: Vec<u32>,
    /// The express group (at most one — express requires every claimant
    /// of the node to belong to it) whose route union crosses each node.
    /// Held until the group's last member completes or the group demotes,
    /// so a demotion replay never touches another group's territory.
    express_owner: Vec<Option<GroupId>>,
    /// Live express groups.
    express: FxHashMap<GroupId, GroupRes>,
    /// Which express group each member packet belongs to.
    member_of: FxHashMap<PacketId, GroupId>,
    /// Memoized joint forward-run timelines keyed by group signature
    /// (see [`GroupTimeline`]).
    express_cache: FxHashMap<Vec<u32>, GroupTimeline>,
    /// Generation counter for [`NocEvent::ExpressDone`] nonces.
    express_nonce: u64,
    /// Group id allocator.
    next_gid: GroupId,
    /// Global injection sequence number: same-timestamp injections must
    /// replay in their original order (injection-buffer fill order is
    /// arbitration-visible).
    inject_seq: u64,
    /// Flit-level events simulated privately by express forward runs —
    /// work done that never crossed the embedder's event queue.
    express_events: u64,
    /// Express-path effectiveness counters (see [`ExpressDiag`]).
    express_diag: ExpressDiag,
    /// True while a forward run (or demotion replay) is reusing the
    /// normal handlers: suppresses claim release in [`Self::eject`].
    in_forward: bool,
    /// Private lanes of forward runs and demotion replays, empty between
    /// them: swapped with `lanes` for the run, so the handlers schedule
    /// into them and the live lanes stay untouched.
    spare_lanes: FifoLanes<NocEvent, LANES>,
    /// Reusable forward-run step buffer.
    fwd_step: Step,
    /// Per-packet `(flit_hops, credit_stalls)` attribution during a joint
    /// forward run — splits a group run's stats across its members.
    fwd_attr: FxHashMap<PacketId, (u64, u64)>,
    /// Reusable route-node scratch buffer.
    route_scratch: Vec<u32>,
}

impl Network {
    /// Builds an idle network from a config.
    ///
    /// # Panics
    ///
    /// Panics if [`NocConfig::validate`] rejects the config — among
    /// others, a crossbar of more than [`NocConfig::MAX_CROSSBAR_TERMINALS`]
    /// terminals, whose hub would have more input slots than one `u64`
    /// request mask holds — or if its link bandwidth is zero.
    #[must_use]
    pub fn new(config: NocConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid fNoC config: {e}");
        }
        assert!(
            config.link_bytes_per_sec > 0,
            "link bandwidth must be non-zero (0 is the embedder's \"derive\" sentinel)"
        );
        let topology = Topology::build(config.topology, config.terminals);
        let mut nodes: Vec<RouterNode> = (0..topology.nodes())
            .map(|n| {
                let ports = topology.ports(n);
                assert!(ports * VCS <= 64, "request masks hold 64 input slots");
                RouterNode {
                    inputs: (0..ports)
                        .map(|_| InputPort { vcs: Default::default(), up: None })
                        .collect(),
                    outputs: (0..ports)
                        .map(|p| {
                            let link = topology.output(n, p);
                            let credits = match link {
                                PortLink::Local => [usize::MAX; VCS],
                                PortLink::Link { .. } => [config.input_buffer_flits; VCS],
                            };
                            OutputPort {
                                link,
                                free: true,
                                busy: SimSpan::ZERO,
                                credits,
                                owner: [None; VCS],
                                rr: 0,
                                req: 0,
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        // Wire the reverse (downstream → upstream) direction into the
        // input ports so credit returns are an array read, not a lookup.
        for n in 0..topology.nodes() {
            for p in 0..topology.ports(n) {
                if let PortLink::Link { peer, peer_in } = topology.output(n, p) {
                    nodes[peer].inputs[peer_in].up = Some((n, p));
                }
            }
        }
        let flit_ser = SimSpan::for_transfer(
            config.flit_bytes as u64,
            config.link_bytes_per_sec,
        );
        let n_nodes = topology.nodes();
        Network {
            config,
            topology,
            nodes,
            lanes: FifoLanes::new(),
            packets: FxHashMap::default(),
            flit_ser,
            stats: NocStats::default(),
            in_flight: 0,
            record_hops: false,
            node_claims: vec![0; n_nodes],
            express_owner: vec![None; n_nodes],
            express: FxHashMap::default(),
            member_of: FxHashMap::default(),
            // Adopt the thread's memoized timelines for this exact
            // configuration, if any (`try_with`: thread teardown may
            // have destroyed the pool — start cold then).
            express_cache: EXPRESS_CACHES
                .try_with(|c| c.borrow_mut().remove(&config))
                .ok()
                .flatten()
                .unwrap_or_default(),
            express_nonce: 0,
            next_gid: 0,
            inject_seq: 0,
            express_events: 0,
            express_diag: ExpressDiag::default(),
            in_forward: false,
            spare_lanes: FifoLanes::new(),
            fwd_step: Step::default(),
            fwd_attr: FxHashMap::default(),
            route_scratch: Vec::new(),
        }
    }

    /// Enable or disable [`HopRecord`] emission into [`Step::hops`].
    /// Recording is observational only — it cannot change routing,
    /// arbitration or timing.
    pub fn set_record_hops(&mut self, on: bool) {
        self.record_hops = on;
    }

    /// The network configuration.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// The built topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Measurement counters.
    #[must_use]
    pub fn stats(&self) -> &NocStats {
        &self.stats
    }

    /// Number of packets injected but not yet fully ejected.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True if nothing is buffered or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// Accumulated serialization time of the link behind output `port`
    /// of `node` (zero for the local/ejection port's NI time included).
    #[must_use]
    pub fn link_busy(&self, node: usize, port: usize) -> SimSpan {
        self.nodes[node].outputs[port].busy
    }

    /// The most-utilized link's busy fraction over `elapsed` — the
    /// quantity that saturates first as offered load approaches the
    /// bisection limit (Fig 12's mechanism).
    #[must_use]
    pub fn max_link_utilization(&self, elapsed: SimSpan) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.nodes
            .iter()
            .flat_map(|n| n.outputs.iter())
            .filter(|o| matches!(o.link, PortLink::Link { .. }))
            .map(|o| o.busy.as_ns() as f64 / elapsed.as_ns() as f64)
            .fold(0.0, f64::max)
    }

    /// Injects a packet at its source terminal at time `now`, appending
    /// what the embedder must see into `step` (not cleared first). Flit
    /// events it schedules take their orders from `orders`.
    ///
    /// # Panics
    ///
    /// Panics if src/dst are not terminals or the packet id was already
    /// injected and is still in flight.
    pub fn inject_into(
        &mut self,
        now: SimTime,
        packet: Packet,
        step: &mut Step,
        orders: &mut Orders,
    ) {
        assert!(
            packet.src < self.topology.terminals(),
            "source {} is not a terminal",
            packet.src
        );
        assert!(
            packet.dst < self.topology.terminals(),
            "destination {} is not a terminal",
            packet.dst
        );
        let mut route = std::mem::take(&mut self.route_scratch);
        self.collect_route_nodes(packet.src, packet.dst, &mut route);

        // An express group granted at an *earlier* timestamp that shares a
        // node with our route must fall back to flit-level simulation
        // before we disturb that node. Same-timestamp groups are left
        // standing for now: if we qualify, we merge into them instead.
        let mergeable = self.config.express && self.flit_ser > self.config.router_latency;
        loop {
            let victim = route.iter().find_map(|&nd| {
                self.express_owner[nd as usize]
                    .filter(|g| !mergeable || self.express[g].t0 != now)
            });
            match victim {
                Some(gid) => self.demote_group(now, gid, step, orders),
                None => break,
            }
        }

        let n = flit_count(packet.bytes, self.config.header_bytes, self.config.flit_bytes);
        let prev = self.packets.insert(
            packet.id,
            PacketState {
                packet,
                injected_at: now,
                flits_remaining: n,
                hops: 0,
            },
        );
        assert!(prev.is_none(), "packet id {} already in flight", packet.id);
        self.in_flight += 1;
        self.stats.injected += 1;
        let seq = self.inject_seq;
        self.inject_seq += 1;
        for &nd in &route {
            self.node_claims[nd as usize] += 1;
        }

        // Express eligibility: the flit serialization time strictly
        // exceeds the router latency (⇒ a tail ejection is provably the
        // last event of its packet's lifetime, so one `ExpressDone` at
        // that time covers everything), and every node on the route is
        // either unclaimed by anyone else (claim count exactly 1 ⇒ the
        // node's buffers, credits and output allocations are all
        // pristine) or claimed exclusively by an express group granted at
        // *this* timestamp — which we then merge into, because a group of
        // same-timestamp packets also starts from pristine state and its
        // joint evolution is just as deterministic.
        let eligible = mergeable
            && route.iter().all(|&nd| {
                self.express_owner[nd as usize].is_some()
                    || self.node_claims[nd as usize] == 1
            });
        if eligible {
            self.express_grant(now, seq, packet, &route, orders);
            route.clear();
            self.route_scratch = route;
            return;
        }

        // Flit-level injection: any same-timestamp group we overlap but
        // could not merge into (some other node of our route is contested)
        // still loses its exclusivity and must demote.
        loop {
            let victim = route.iter().find_map(|&nd| self.express_owner[nd as usize]);
            match victim {
                Some(gid) => self.demote_group(now, gid, step, orders),
                None => break,
            }
        }
        route.clear();
        self.route_scratch = route;

        self.fill_injection_buffer(packet, n);
        self.try_node(now, packet.src, step, orders);
    }

    /// Puts a flit event on its lane, stamped with the next of `orders`.
    fn schedule(&mut self, t: SimTime, orders: &mut Orders, event: NocEvent) {
        self.lanes.push(event.lane(), t, orders, event);
    }

    /// Pushes all `n` flits of `packet` into its source injection buffer
    /// (local input port 0, VC 0). The injection buffer is unbounded:
    /// back-pressure is applied by the network, not the NI.
    fn fill_injection_buffer(&mut self, packet: Packet, n: u32) {
        let buf = &mut self.nodes[packet.src].inputs[0].vcs[0];
        let was_empty = buf.flits.is_empty();
        for i in 0..n {
            buf.flits.push_back(Flit {
                packet: packet.id,
                dst: packet.dst as u32,
                kind: flit_kind(i, n),
            });
        }
        if was_empty {
            self.request_front(packet.src, 0, 0);
        }
    }

    /// Sets the request bit of input slot `(ip, vc)`'s front flit, if it
    /// has one, on the output that flit asks for: its allocated output
    /// mid-packet, else its routed one. Called wherever a buffer's front
    /// changes — a push into an empty buffer, or a pop (after the pop's
    /// allocation update, which decides what the new front asks for).
    fn request_front(&mut self, node: usize, ip: usize, vc: usize) {
        let buf = &self.nodes[node].inputs[ip].vcs[vc];
        let Some(front) = buf.flits.front() else { return };
        let out = match buf.alloc {
            Some((o, _)) => o,
            None => self.topology.route(node, front.dst as usize),
        };
        self.nodes[node].outputs[out].req |= 1 << (ip * VCS + vc);
    }

    /// Every router on the `src → dst` route, source and destination
    /// inclusive, in traversal order.
    fn collect_route_nodes(&self, src: usize, dst: usize, out: &mut Vec<u32>) {
        out.clear();
        let mut node = src;
        loop {
            out.push(node as u32);
            let port = self.topology.route(node, dst);
            match self.topology.output(node, port) {
                PortLink::Local => break,
                PortLink::Link { peer, .. } => node = peer,
            }
        }
    }

    /// Grants a packet express passage with *deferred* resolution: the
    /// membership, route ownership and `t0` snapshot are recorded, and a
    /// [`NocEvent::ExpressResolve`] is scheduled one flit time after
    /// `now` — strictly after every same-timestamp injection (so the
    /// group's composition is final when it fires) yet provably before
    /// any member can deliver (a delivery needs at least one link
    /// crossing plus an ejection: more than two flit times past `t0`).
    ///
    /// If the route overlaps express groups granted at this same
    /// timestamp, the packet merges with them: the union starts from
    /// pristine state at one instant, so the joint evolution — including
    /// every cross-member arbitration and stall — is still a pure
    /// function of the injection sequence. Because nothing has been
    /// simulated yet, the merge is pure bookkeeping (union the member
    /// lists and territory, mint a fresh group id; the absorbed groups'
    /// resolve events find no group and die). The joint timeline is
    /// computed once per *realized* composition at resolve time
    /// ([`Self::express_resolve`]), never once per prefix as members
    /// trickle in.
    fn express_grant(
        &mut self,
        now: SimTime,
        seq: u64,
        packet: Packet,
        route: &[u32],
        orders: &mut Orders,
    ) {
        self.express_diag.granted += 1;
        // The same-timestamp groups we merge with: the distinct owners
        // along the route (`inject_into` demoted every other owner).
        let mut gids: Vec<GroupId> = Vec::new();
        for &nd in route {
            if let Some(g) = self.express_owner[nd as usize] {
                if !gids.contains(&g) {
                    gids.push(g);
                }
            }
        }
        // Union the absorbed groups. They are mutually node-disjoint
        // (each was exclusive), so their snapshot segments concatenate
        // without conflict, and — resolution being deferred — none of
        // them has touched any router state yet: every segment still
        // holds the pristine `t0` values.
        let mut members: Vec<(u64, Packet)> = Vec::new();
        let mut route_nodes: Vec<u32> = Vec::new();
        let mut snapshot: Vec<(SimSpan, usize)> = Vec::new();
        for gid in &gids {
            let gr = self.express.remove(gid).expect("merging a missing group");
            debug_assert_eq!(gr.t0, now);
            debug_assert!(gr.data.is_empty(), "same-timestamp group already resolved");
            for &nd in &gr.route_nodes {
                self.express_owner[nd as usize] = None;
            }
            members.extend_from_slice(&gr.members);
            route_nodes.extend_from_slice(&gr.route_nodes);
            snapshot.extend_from_slice(&gr.snapshot);
        }
        // Global injection order — injection-buffer fill order is
        // arbitration-visible, so the replay must reproduce it.
        members.push((seq, packet));
        members.sort_unstable_by_key(|&(s, _)| s);
        // Nodes only we cross are pristine (claim count 1): their current
        // `(busy, rr)` is the `t0` snapshot.
        for &nd in route {
            if !route_nodes.contains(&nd) {
                route_nodes.push(nd);
                for out in &self.nodes[nd as usize].outputs {
                    snapshot.push((out.busy, out.rr));
                }
            }
        }
        let gid = self.next_gid;
        self.next_gid += 1;
        for (_, p) in &members {
            self.member_of.insert(p.id, gid);
        }
        for &nd in &route_nodes {
            self.express_owner[nd as usize] = Some(gid);
        }
        self.schedule(now + self.flit_ser, orders, NocEvent::ExpressResolve { group: gid });
        let live = members.len();
        self.express.insert(
            gid,
            GroupRes {
                t0: now,
                members,
                data: Vec::new(),
                route_nodes,
                snapshot,
                fwd_pops: 0,
                live,
            },
        );
    }

    /// Resolves an express group's joint timeline once its composition is
    /// final: looks the signature up in the memo cache (fast-forwarding
    /// arithmetically on a hit — O(route + members) state updates, no
    /// flit events at all) or runs the real machinery privately once
    /// ([`Self::run_group_forward`]) and memoizes the time-translated
    /// result. Either way the route union is left pristine except for the
    /// `(busy, rr)` the group advanced, which the snapshot lets a
    /// demotion rewind, and one [`NocEvent::ExpressDone`] per member is
    /// scheduled at its computed delivery time. Stats are deferred and
    /// only applied as each member's `ExpressDone` fires (a demotion
    /// discards them and regenerates them live instead).
    ///
    /// A stale group id — the group merged into a larger one or was
    /// demoted before the resolve event arrived — is a no-op.
    fn express_resolve(&mut self, now: SimTime, gid: GroupId, step: &mut Step) {
        let Some(mut group) = self.express.remove(&gid) else { return };
        debug_assert!(group.data.is_empty(), "express group resolved twice");
        debug_assert_eq!(now, group.t0 + self.flit_ser);
        let mut sig: Vec<u32> = Vec::with_capacity(1 + group.members.len() * 3);
        sig.push(u32::from(self.record_hops));
        for (_, p) in &group.members {
            sig.push(p.src as u32);
            sig.push(p.dst as u32);
            sig.push(flit_count(p.bytes, self.config.header_bytes, self.config.flit_bytes));
        }
        let (fwd_pops, mut data) = if let Some(tl) = self.express_cache.get(sig.as_slice()) {
            self.express_diag.cache_hits += 1;
            // Cache hit: the whole joint cascade is known by time
            // translation. Apply the post-state the machinery would have
            // left (`busy` advanced, `rr` parked after the last granted
            // slot) and mint every member's delivery/hop records at their
            // translated times.
            let post = tl.post.clone();
            let data = Self::materialize_members(group.t0, &group.members, &tl.rel);
            let pops = tl.fwd_pops;
            for (nd, port, busy_delta, rr_after) in post {
                let out = &mut self.nodes[nd as usize].outputs[port as usize];
                out.busy += busy_delta;
                out.rr = rr_after;
            }
            (pops, data)
        } else {
            // Cold signature: run the real machinery privately once over
            // the whole group.
            let tl = self.run_group_forward(
                group.t0,
                &group.members,
                &group.route_nodes,
                &group.snapshot,
            );
            let data = Self::materialize_members(group.t0, &group.members, &tl.rel);
            let pops = tl.fwd_pops;
            if self.express_cache.len() < EXPRESS_CACHE_CAP {
                self.express_cache.insert(sig, tl);
            }
            (pops, data)
        };
        for ((_, p), md) in group.members.iter().zip(data.iter_mut()) {
            md.nonce = self.express_nonce;
            self.express_nonce += 1;
            // `>=` — equality only for a single-flit packet ejecting at
            // its own source (one NI serialization, no link): its done
            // event lands later in this same timestamp, which is legal.
            debug_assert!(md.delivered.at >= now, "express delivery before its resolve");
            step.schedule
                .push((md.delivered.at, NocEvent::ExpressDone { packet: p.id, nonce: md.nonce }));
        }
        self.express_events += fwd_pops;
        group.fwd_pops = fwd_pops;
        group.data = data;
        self.express.insert(gid, group);
    }

    /// Turns a [`GroupTimeline`]'s relative member results into absolute
    /// [`MemberData`] anchored at `now` (nonces are assigned by the
    /// caller).
    fn materialize_members(
        now: SimTime,
        members: &[(u64, Packet)],
        rel: &[MemberRel],
    ) -> Vec<MemberData> {
        members
            .iter()
            .zip(rel)
            .map(|((_, p), r)| MemberData {
                nonce: 0,
                delivered: Delivered {
                    packet: *p,
                    at: now + r.rel_delivered,
                    hops: r.hops,
                    injected_at: now,
                },
                hop_records: r
                    .rel_hops
                    .iter()
                    .map(|&(node, rel_at, link_busy)| HopRecord {
                        packet: p.id,
                        node,
                        at: now + rel_at,
                        link_busy,
                    })
                    .collect(),
                flit_hops: r.flit_hops,
                credit_stalls: r.credit_stalls,
                done: false,
            })
            .collect()
    }

    /// Runs the real arbitration/credit machinery privately over a whole
    /// same-timestamp group from its pristine `t0` state — bit-identical
    /// to the flit-level world by construction, including every self- and
    /// cross-member stall — and returns the time-translated joint
    /// timeline. Leaves the routers with the run's post-state applied
    /// (`busy`/`rr` advanced, everything else back to pristine) and the
    /// member packets re-registered as logically in flight.
    fn run_group_forward(
        &mut self,
        now: SimTime,
        members: &[(u64, Packet)],
        route_nodes: &[u32],
        snapshot: &[(SimSpan, usize)],
    ) -> GroupTimeline {
        let mut scratch = NocStats::default();
        std::mem::swap(&mut self.stats, &mut scratch);
        self.in_forward = true;
        self.fwd_attr.clear();

        let mut fwd = std::mem::take(&mut self.fwd_step);
        debug_assert!(self.spare_lanes.is_empty() && fwd.is_empty());
        std::mem::swap(&mut self.lanes, &mut self.spare_lanes);
        let mut orders = Orders::new();
        let mut pops = 0u64;
        let mut hops = Vec::new();
        let mut delivered = Vec::new();
        for (_, p) in members {
            let n = flit_count(p.bytes, self.config.header_bytes, self.config.flit_bytes);
            self.fill_injection_buffer(*p, n);
            self.try_node(now, p.src, &mut fwd, &mut orders);
            hops.append(&mut fwd.hops);
        }
        while let Some((t, ev)) = self.lanes.pop() {
            pops += 1;
            self.handle_into(t, ev, &mut fwd, &mut orders);
            hops.append(&mut fwd.hops);
            delivered.append(&mut fwd.delivered);
        }
        debug_assert!(fwd.schedule.is_empty(), "a forward run scheduled an express event");
        std::mem::swap(&mut self.lanes, &mut self.spare_lanes);
        self.in_forward = false;
        std::mem::swap(&mut self.stats, &mut scratch);
        self.fwd_step = fwd;
        self.express_diag.forward_pops += pops;

        // The forward run's tail ejections removed the members; they are
        // still logically in flight until their `ExpressDone`s.
        for (_, p) in members {
            let n = flit_count(p.bytes, self.config.header_bytes, self.config.flit_bytes);
            self.packets.insert(
                p.id,
                PacketState { packet: *p, injected_at: now, flits_remaining: n, hops: 0 },
            );
        }
        self.in_flight += members.len();

        let rel: Vec<MemberRel> = members
            .iter()
            .map(|(_, p)| {
                let d = delivered
                    .iter()
                    .find(|d| d.packet.id == p.id)
                    .expect("group forward run did not deliver a member");
                let (flit_hops, credit_stalls) =
                    self.fwd_attr.get(&p.id).copied().unwrap_or((0, 0));
                MemberRel {
                    rel_delivered: d.at - now,
                    hops: d.hops,
                    rel_hops: hops
                        .iter()
                        .filter(|h| h.packet == p.id)
                        .map(|h| (h.node, h.at - now, h.link_busy))
                        .collect(),
                    flit_hops,
                    credit_stalls,
                }
            })
            .collect();
        debug_assert_eq!(rel.iter().map(|r| r.flit_hops).sum::<u64>(), scratch.flit_hops);
        debug_assert_eq!(
            rel.iter().map(|r| r.credit_stalls).sum::<u64>(),
            scratch.credit_stalls
        );

        // Memoize the time-translated result. An output's `busy` moved
        // iff the run granted on it, and a granted output's final `rr` is
        // arbitration-determined, so the diff against the snapshot is the
        // complete post-state for any pre-state (`busy` is telemetry-only
        // and `rr` only ever selects among the group's own flits).
        let mut post = Vec::new();
        let mut i = 0;
        for &nd in route_nodes {
            for (port, out) in self.nodes[nd as usize].outputs.iter().enumerate() {
                let (busy0, _) = snapshot[i];
                i += 1;
                if out.busy != busy0 {
                    post.push((nd, port as u32, out.busy - busy0, out.rr));
                }
            }
        }
        GroupTimeline { rel, post, fwd_pops: pops }
    }

    /// Demotes an express group back to live flit-level simulation:
    /// rewinds the route union to its pre-group state, then re-runs the
    /// (deterministic) joint forward simulation up to — strictly before —
    /// `now`, leaving the routers exactly as the flit-level world would
    /// have them. Events falling at or after `now` move to the live
    /// lanes, stamped from `orders` in the order the replay reaches them,
    /// to be processed live. Live members' deferred stats are discarded
    /// (the replay and the live remainder regenerate them);
    /// already-completed members replay too (their flits shaped the
    /// survivors' timing), but their contributions — applied in full at
    /// their `ExpressDone` — are subtracted back out.
    fn demote_group(
        &mut self,
        now: SimTime,
        gid: GroupId,
        step: &mut Step,
        orders: &mut Orders,
    ) {
        let group = self.express.remove(&gid).expect("demoting a missing group");
        self.express_diag.demoted += group.live as u64;
        for &nd in &group.route_nodes {
            self.express_owner[nd as usize] = None;
        }
        let mut i = 0;
        for &nd in &group.route_nodes {
            for out in &mut self.nodes[nd as usize].outputs {
                (out.busy, out.rr) = group.snapshot[i];
                i += 1;
            }
        }
        let t0 = group.t0;
        let mut done_ids: Vec<PacketId> = Vec::new();
        let mut dup_hops = 0u64;
        let mut dup_stalls = 0u64;
        for (_, p) in &group.members {
            self.member_of.remove(&p.id);
        }
        // `data` is empty (no member can be done) when the demotion beat
        // the group's resolve event — composition bookkeeping is all that
        // ever happened, so the replay below starts from scratch.
        for ((_, p), md) in group.members.iter().zip(&group.data) {
            if md.done {
                // Re-register completed members for the replay and release
                // the claims their completion left with the group.
                done_ids.push(p.id);
                dup_hops += md.flit_hops;
                dup_stalls += md.credit_stalls;
                let n = flit_count(p.bytes, self.config.header_bytes, self.config.flit_bytes);
                self.packets.insert(
                    p.id,
                    PacketState { packet: *p, injected_at: t0, flits_remaining: n, hops: 0 },
                );
                self.in_flight += 1;
                let mut route = std::mem::take(&mut self.route_scratch);
                self.collect_route_nodes(p.src, p.dst, &mut route);
                for &nd in &route {
                    self.node_claims[nd as usize] -= 1;
                }
                route.clear();
                self.route_scratch = route;
            } else {
                debug_assert!(md.delivered.at >= now, "demotion after a live member's delivery");
            }
        }

        let mut scratch = NocStats::default();
        std::mem::swap(&mut self.stats, &mut scratch);
        self.in_forward = true;
        let mut fwd = std::mem::take(&mut self.fwd_step);
        debug_assert!(self.spare_lanes.is_empty() && fwd.is_empty());
        // The replay schedules into private lanes with a private counter;
        // the live lanes wait in `spare_lanes` for the hand-offs.
        std::mem::swap(&mut self.lanes, &mut self.spare_lanes);
        let mut private = Orders::new();
        let mut replayed = 0u64;
        for (_, p) in &group.members {
            let n = flit_count(p.bytes, self.config.header_bytes, self.config.flit_bytes);
            self.fill_injection_buffer(*p, n);
            self.try_node(t0, p.src, &mut fwd, &mut private);
        }
        while let Some((t, ev)) = self.lanes.pop() {
            // A completed member's `ExpressDone` can precede the demotion
            // within one timestamp; its final ejection then falls exactly
            // at `now` and must replay here (its delivery was already
            // emitted), never run live.
            let replay = t < now
                || matches!(ev, NocEvent::Eject { flit, .. } if done_ids.contains(&flit.packet));
            if replay {
                replayed += 1;
                self.handle_into(t, ev, &mut fwd, &mut private);
            } else {
                // Not processed here: it runs live. A hand-off can be
                // earlier than its live lane's tail; the lane inserts it
                // in key order.
                self.spare_lanes.push(ev.lane(), t, orders, ev);
            }
        }
        debug_assert!(fwd.schedule.is_empty(), "a demotion replay scheduled an express event");
        std::mem::swap(&mut self.lanes, &mut self.spare_lanes);
        self.in_forward = false;
        std::mem::swap(&mut self.stats, &mut scratch);
        // The replay regenerated every member's pre-`now` stats; completed
        // members' were already applied at their `ExpressDone` (in full —
        // all their grants precede `now`), so only the difference belongs
        // to the real counters.
        self.stats.flit_hops += scratch.flit_hops - dup_hops;
        self.stats.credit_stalls += scratch.credit_stalls - dup_stalls;
        debug_assert!(
            fwd.delivered.iter().all(|d| done_ids.contains(&d.packet.id)),
            "live member completed during demotion replay"
        );
        fwd.delivered.clear();
        // Hop records regenerated by the replay are exactly the crossings
        // that already happened (at < now); later ones will be emitted
        // live. Live members' were never emitted while the reservation
        // stood; completed members' were emitted at their `ExpressDone`.
        if done_ids.is_empty() {
            step.hops.append(&mut fwd.hops);
        } else {
            step.hops.extend(fwd.hops.drain(..).filter(|h| !done_ids.contains(&h.packet)));
        }
        self.fwd_step = fwd;
        self.express_diag.replay_pops += replayed;
        // The replayed events were processed privately in place of
        // embedder events; everything past `now` runs through the
        // embedder's queue instead (spawning its successors there). For a
        // resolved group this nets out to dropping the un-replayed share
        // of its counted `fwd_pops`; for an unresolved one (`fwd_pops`
        // zero — nothing was ever counted) it credits the replay itself.
        self.express_events += replayed;
        self.express_events -= group.fwd_pops;
    }

    /// Demotes every express group whose route union shares a router with
    /// the `src → dst` route. Observably neutral — demotion never changes
    /// delivery times or stats, only how they are computed — so embedders
    /// use this to force worst-case flit-level simulation around injected
    /// faults (a degraded region must not stay fast-forwarded).
    pub fn demote_overlapping(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        step: &mut Step,
        orders: &mut Orders,
    ) {
        let mut route = std::mem::take(&mut self.route_scratch);
        self.collect_route_nodes(src, dst, &mut route);
        loop {
            let victim = route.iter().find_map(|&nd| self.express_owner[nd as usize]);
            match victim {
                Some(gid) => self.demote_group(now, gid, step, orders),
                None => break,
            }
        }
        route.clear();
        self.route_scratch = route;
    }

    /// Flit-level events the express path simulated privately instead of
    /// routing through the embedder's event queue — add this to an
    /// embedder event count to keep "events processed" comparable whether
    /// the express path is on or off.
    #[must_use]
    pub fn express_events(&self) -> u64 {
        self.express_events
    }

    /// Express-path effectiveness counters. Diagnostics only — never
    /// part of a [`RunReport`]-visible quantity.
    ///
    /// [`RunReport`]: NocStats
    #[must_use]
    pub fn express_diag(&self) -> ExpressDiag {
        self.express_diag
    }

    /// The key of the next pending flit event, if any: the embedder's
    /// half of the merge with its own queue.
    #[must_use]
    pub fn next_key(&self) -> Option<EventKey> {
        self.lanes.peek_key()
    }

    /// Handles pending flit events in key order while the next one's key
    /// is below `limit`, at most `max` of them, and returns how many ran
    /// and the time of the last (zero if none ran). Successors take
    /// their orders from `orders`, which must be the counter the
    /// embedder's queue stamps its own pushes from, so that `limit` — its
    /// queue head, or [`EventKey::at`] a bound it must not reach —
    /// compares like with like.
    ///
    /// Returns early after an event that leaves anything in `step`: a
    /// delivery, a hop record or an [`NocEvent::ExpressDone`]. The
    /// embedder books it (pushing whatever it schedules in response) at
    /// that event's time, before any later flit event draws an order.
    pub fn run(
        &mut self,
        limit: EventKey,
        max: u64,
        step: &mut Step,
        orders: &mut Orders,
    ) -> (u64, SimTime) {
        let mut handled = 0;
        let mut last = SimTime::ZERO;
        while handled < max {
            let Some((t, event)) = self.lanes.pop_before(limit) else { break };
            handled += 1;
            last = t;
            self.handle_into(t, event, step, orders);
            if !step.is_empty() {
                break;
            }
        }
        (handled, last)
    }

    /// Drops the next pending flit event unhandled: for an embedder
    /// whose run ends at a horizon it pops past.
    pub fn discard_next(&mut self) {
        self.lanes.pop();
    }

    /// Handles one event at `now`, appending what the embedder must see
    /// into `step` (not cleared first); flit events it schedules take
    /// their orders from `orders`. [`Network::run`] feeds the network's
    /// own flit events through here; an embedder calls it for the
    /// [`NocEvent::ExpressDone`]s it scheduled from [`Step::schedule`].
    pub fn handle_into(
        &mut self,
        now: SimTime,
        event: NocEvent,
        step: &mut Step,
        orders: &mut Orders,
    ) {
        match event {
            NocEvent::FlitArrive { node, in_port, vc, flit } => {
                let (node, in_port, vc) = (node as usize, in_port as usize, vc as usize);
                let buf = &mut self.nodes[node].inputs[in_port].vcs[vc];
                debug_assert!(
                    buf.flits.len() < self.config.input_buffer_flits,
                    "credit protocol violated: buffer overflow at {node}:{in_port}:{vc}"
                );
                let was_empty = buf.flits.is_empty();
                buf.flits.push_back(flit);
                if was_empty {
                    self.request_front(node, in_port, vc);
                }
                self.try_node(now, node, step, orders);
            }
            NocEvent::OutputFree { node, out_port } => {
                let (node, out_port) = (node as usize, out_port as usize);
                self.nodes[node].outputs[out_port].free = true;
                // Retry every output: the flit that just finished may have
                // uncovered a new head flit (at the front of the same
                // input buffer) that routes to a *different* output, which
                // would otherwise never be woken.
                self.try_node(now, node, step, orders);
            }
            NocEvent::Credit { node, out_port, vc } => {
                let (node, out_port) = (node as usize, out_port as usize);
                let c = &mut self.nodes[node].outputs[out_port].credits[vc as usize];
                if *c != usize::MAX {
                    *c += 1;
                }
                self.try_node(now, node, step, orders);
            }
            NocEvent::Eject { node, flit } => {
                self.eject(now, node as usize, flit, step);
            }
            NocEvent::ExpressResolve { group } => {
                self.express_resolve(now, group, step);
            }
            NocEvent::ExpressDone { packet, nonce } => {
                // Stale if the group was demoted (or the packet id reused
                // by a later injection) — the membership lookup fails — or
                // if a merge re-ran the group and moved this member's
                // delivery — the nonce mismatches. Either way: no-op.
                let Some(&gid) = self.member_of.get(&packet) else { return };
                let group = self.express.get_mut(&gid).expect("member of a missing group");
                let idx = group
                    .members
                    .iter()
                    .position(|(_, p)| p.id == packet)
                    .expect("member list out of sync");
                if group.data[idx].done || group.data[idx].nonce != nonce {
                    return;
                }
                group.data[idx].done = true;
                group.live -= 1;
                let delivered = group.data[idx].delivered;
                let flit_hops = group.data[idx].flit_hops;
                let credit_stalls = group.data[idx].credit_stalls;
                let hop_records = std::mem::take(&mut group.data[idx].hop_records);
                let group_done = group.live == 0;
                self.member_of.remove(&packet);
                self.packets.remove(&packet);
                self.in_flight -= 1;
                if group_done {
                    // Claims and ownership are group-scoped — a demotion
                    // must replay on territory nothing else has claimed —
                    // so the last completion releases every member's.
                    let group = self.express.remove(&gid).unwrap();
                    for &nd in &group.route_nodes {
                        self.express_owner[nd as usize] = None;
                    }
                    let mut route = std::mem::take(&mut self.route_scratch);
                    for (_, p) in &group.members {
                        self.collect_route_nodes(p.src, p.dst, &mut route);
                        for &nd in &route {
                            self.node_claims[nd as usize] -= 1;
                        }
                    }
                    route.clear();
                    self.route_scratch = route;
                }
                debug_assert_eq!(delivered.at, now);
                self.stats.flit_hops += flit_hops;
                self.stats.credit_stalls += credit_stalls;
                self.stats.record_delivery(&delivered);
                step.hops.extend_from_slice(&hop_records);
                step.delivered.push(delivered);
            }
        }
    }

    fn eject(&mut self, now: SimTime, _node: usize, flit: Flit, step: &mut Step) {
        let state = self
            .packets
            .get_mut(&flit.packet)
            .expect("ejected flit for unknown packet");
        state.flits_remaining -= 1;
        if state.flits_remaining == 0 {
            let state = self.packets.remove(&flit.packet).unwrap();
            self.in_flight -= 1;
            if !self.in_forward {
                // Release the route claims taken at injection (express
                // forward runs keep theirs until `ExpressDone`).
                let mut route = std::mem::take(&mut self.route_scratch);
                self.collect_route_nodes(state.packet.src, state.packet.dst, &mut route);
                for &nd in &route {
                    self.node_claims[nd as usize] -= 1;
                }
                route.clear();
                self.route_scratch = route;
            }
            let d = Delivered {
                packet: state.packet,
                at: now,
                hops: state.hops,
                injected_at: state.injected_at,
            };
            self.stats.record_delivery(&d);
            step.delivered.push(d);
        }
    }

    /// Try to make progress on every output of `node`, in port order.
    fn try_node(&mut self, now: SimTime, node: usize, step: &mut Step, orders: &mut Orders) {
        for out in 0..self.nodes[node].outputs.len() {
            self.try_output(now, node, out, step, orders);
        }
    }

    /// The downstream VC a head flit must use when leaving `node` through
    /// `out` while currently sitting on `vc` — the ring dateline rule
    /// (packets crossing the wrap link move to VC 1).
    fn next_vc(&self, node: usize, out: usize, vc: usize) -> usize {
        if self.config.topology != crate::TopologyKind::Ring {
            return vc;
        }
        let k = self.topology.terminals();
        match self.topology.output(node, out) {
            // Right wrap: k-1 -> 0; left wrap: 0 -> k-1.
            PortLink::Link { peer, .. }
                if (node == k - 1 && peer == 0 && out == 2)
                    || (node == 0 && peer == k - 1 && out == 1) =>
            {
                1
            }
            _ => vc,
        }
    }

    /// Attempt to send one flit through `(node, out)`.
    fn try_output(
        &mut self,
        now: SimTime,
        node: usize,
        out: usize,
        step: &mut Step,
        orders: &mut Orders,
    ) {
        let port = &self.nodes[node].outputs[out];
        if !port.free || port.req == 0 {
            return;
        }
        // Walk the requesting slots in round-robin order: rotating the
        // mask by `rr` puts slots `rr..` first and wraps `..rr` above
        // them (every slot index is below 64), so this visits exactly the
        // candidates, in exactly the order, of a scan over every slot
        // starting at `rr`.
        let rr = port.rr;
        let mut bits = port.req.rotate_right(rr as u32);
        let mut chosen: Option<(usize, usize)> = None;
        while bits != 0 {
            let slot = (bits.trailing_zeros() as usize + rr) % 64;
            bits &= bits - 1;
            let buf = &self.nodes[node].inputs[slot / VCS].vcs[slot % VCS];
            let front = *buf.flits.front().expect("request bit on an empty buffer");
            let ovc = match buf.alloc {
                // Mid-packet: must continue on its allocated output VC.
                Some((allocated, ovc)) => {
                    debug_assert_eq!(allocated, out, "request bit on a foreign output");
                    ovc
                }
                // Head flit: needs a free output VC.
                None => {
                    debug_assert!(front.kind.is_head(), "unallocated non-head at front");
                    debug_assert_eq!(self.topology.route(node, front.dst as usize), out);
                    let ovc = self.next_vc(node, out, slot % VCS);
                    if self.nodes[node].outputs[out].owner[ovc].is_some() {
                        continue;
                    }
                    ovc
                }
            };
            if self.credit_ok(node, out, ovc) {
                chosen = Some((slot, ovc));
                break;
            }
            self.stats.credit_stalls += 1;
            if self.in_forward {
                self.fwd_attr.entry(front.packet).or_default().1 += 1;
            }
        }
        let Some((slot, ovc)) = chosen else { return };
        let (ip, vc) = (slot / VCS, slot % VCS);
        let slots = self.nodes[node].inputs.len() * VCS;
        self.nodes[node].outputs[out].rr = (slot + 1) % slots;

        // Dequeue and update wormhole state.
        let flit = self.nodes[node].inputs[ip].vcs[vc]
            .flits
            .pop_front()
            .expect("candidate had empty buffer");
        if flit.kind.is_head() {
            self.nodes[node].outputs[out].owner[ovc] = Some((ip, vc));
            self.nodes[node].inputs[ip].vcs[vc].alloc = Some((out, ovc));
        }
        if flit.kind.is_tail() {
            self.nodes[node].outputs[out].owner[ovc] = None;
            self.nodes[node].inputs[ip].vcs[vc].alloc = None;
        }
        // The slot's front changed: withdraw its request and file the new
        // front's, which the allocation update above decides.
        self.nodes[node].outputs[out].req &= !(1 << slot);
        self.request_front(node, ip, vc);

        // Consume a downstream credit.
        let credits = &mut self.nodes[node].outputs[out].credits[ovc];
        if *credits != usize::MAX {
            debug_assert!(*credits > 0);
            *credits -= 1;
        }

        // Return a credit upstream for the slot we just freed (injection
        // buffers have no upstream).
        if let Some((up, up_out)) = self.nodes[node].inputs[ip].up {
            self.schedule(
                now + self.config.router_latency,
                orders,
                NocEvent::Credit { node: up as u32, out_port: up_out as u32, vc: vc as u8 },
            );
        }

        // Serialize over the link.
        let ser = self.flit_ser;
        self.nodes[node].outputs[out].free = false;
        self.nodes[node].outputs[out].busy += ser;
        self.schedule(
            now + ser,
            orders,
            NocEvent::OutputFree { node: node as u32, out_port: out as u32 },
        );
        self.stats.flit_hops += 1;
        if self.in_forward {
            self.fwd_attr.entry(flit.packet).or_default().0 += 1;
        }

        match self.nodes[node].outputs[out].link {
            PortLink::Local => {
                self.schedule(now + ser, orders, NocEvent::Eject { node: node as u32, flit });
            }
            PortLink::Link { peer, peer_in } => {
                if flit.kind.is_head() {
                    let record = self.record_hops;
                    if let Some(state) = self.packets.get_mut(&flit.packet) {
                        state.hops += 1;
                        if record {
                            step.hops.push(HopRecord {
                                packet: flit.packet,
                                node: node as u32,
                                at: now,
                                link_busy: SimSpan::from_ns(
                                    ser.as_ns() * state.flits_remaining as u64,
                                ),
                            });
                        }
                    }
                }
                self.schedule(
                    now + ser + self.config.router_latency,
                    orders,
                    NocEvent::FlitArrive {
                        node: peer as u32,
                        in_port: peer_in as u32,
                        vc: ovc as u8,
                        flit,
                    },
                );
            }
        }
    }

    fn credit_ok(&self, node: usize, out: usize, ovc: usize) -> bool {
        self.nodes[node].outputs[out].credits[ovc] > 0
    }
}

impl Drop for Network {
    /// Returns the memoized express timelines to the thread's pool (see
    /// `EXPRESS_CACHES`) so the next network with this configuration
    /// starts warm. When the pool already holds a cache for the
    /// configuration (two networks alive at once), the larger one wins.
    fn drop(&mut self) {
        if self.express_cache.is_empty() {
            return;
        }
        let cache = std::mem::take(&mut self.express_cache);
        let config = self.config;
        let _ = EXPRESS_CACHES.try_with(|c| {
            let mut pool = c.borrow_mut();
            let slot = pool.entry(config).or_default();
            if slot.len() < cache.len() {
                *slot = cache;
            }
        });
    }
}

/// Runs a self-contained simulation: injects `packets` at their times and
/// processes events until the network drains. Returns deliveries in
/// completion order.
///
/// This helper is for standalone NoC studies and tests; the SSD simulator
/// embeds [`Network`] in its own event loop instead.
pub fn drive(net: &mut Network, packets: Vec<(SimTime, Packet)>) -> Vec<Delivered> {
    drive_counted(net, packets).0
}

/// [`drive`], also returning the number of events processed — queue and
/// lane pops plus the flit-level events express forward runs simulated
/// privately ([`Network::express_events`]), so the count measures the
/// same logical work whether the express path is on or off.
///
/// Injections and express deliveries wait in a queue whose counter
/// stamps the network's flit events too; each turn runs the network's
/// flit events while they precede the queue head, else pops the head.
pub fn drive_counted(
    net: &mut Network,
    packets: Vec<(SimTime, Packet)>,
) -> (Vec<Delivered>, u64) {
    #[derive(Debug)]
    enum Ev {
        Inject(Packet),
        Noc(NocEvent),
    }
    let express_before = net.express_events();
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (t, p) in packets {
        queue.push(t, Ev::Inject(p));
    }
    let mut step = Step::default();
    let mut lane_pops = 0;
    let mut out = Vec::new();
    loop {
        let head = queue.peek_key().unwrap_or(EventKey::MAX);
        let (ran, _) = net.run(head, u64::MAX, &mut step, queue.orders());
        lane_pops += ran;
        if ran == 0 {
            let Some((now, ev)) = queue.pop() else { break };
            match ev {
                Ev::Inject(p) => net.inject_into(now, p, &mut step, queue.orders()),
                Ev::Noc(e) => net.handle_into(now, e, &mut step, queue.orders()),
            }
        }
        out.append(&mut step.delivered);
        step.hops.clear();
        for (t, e) in step.schedule.drain(..) {
            queue.push(t, Ev::Noc(e));
        }
    }
    let events = queue.delivered() + lane_pops + (net.express_events() - express_before);
    (out, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{schedule, Pattern};
    use crate::TopologyKind;
    use dssd_kernel::Rng;

    fn cfg(kind: TopologyKind, k: usize) -> NocConfig {
        NocConfig::new(kind, k)
    }

    /// Runs `net` until it drains, the way an embedder does: flit events
    /// from the network's lanes, `ExpressDone`s from `queue`, whose
    /// counter stamps both. Returns the deliveries and hop records in
    /// the order they appeared, `step`'s leftovers first.
    fn drain(
        net: &mut Network,
        queue: &mut EventQueue<NocEvent>,
        step: &mut Step,
    ) -> (Vec<Delivered>, Vec<HopRecord>) {
        let mut delivered = Vec::new();
        let mut hops = Vec::new();
        loop {
            delivered.append(&mut step.delivered);
            hops.append(&mut step.hops);
            for (t, e) in step.schedule.drain(..) {
                queue.push(t, e);
            }
            let head = queue.peek_key().unwrap_or(EventKey::MAX);
            if net.run(head, u64::MAX, step, queue.orders()).0 == 0 {
                let Some((t, e)) = queue.pop() else { break };
                net.handle_into(t, e, step, queue.orders());
            }
        }
        (delivered, hops)
    }

    /// The network's pending flit events in pop order, with their keys.
    fn lane_entries(net: &Network) -> Vec<(EventKey, NocEvent)> {
        let mut lanes = net.lanes.clone();
        std::iter::from_fn(|| {
            let key = lanes.peek_key()?;
            lanes.pop().map(|(_, e)| (key, e))
        })
        .collect()
    }

    #[test]
    fn delivers_one_packet() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        let got = drive(&mut net, vec![(SimTime::ZERO, Packet::new(0, 0, 7, 4096))]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].packet.dst, 7);
        assert_eq!(got[0].hops, 7);
        assert!(net.is_idle());
    }

    #[test]
    fn latency_reflects_serialization_and_hops() {
        // One 4 KB packet, 1 GB/s links, 32 B flits, 16 B header:
        // 129 flits. Wormhole: total ≈ (hops+1) * (flit_ser + router)
        // + (flits-1) * flit_ser for the body pipeline.
        let c = cfg(TopologyKind::Mesh1D, 8);
        let mut net = Network::new(c);
        let got = drive(&mut net, vec![(SimTime::ZERO, Packet::new(0, 0, 1, 4096))]);
        let flits = (4096u64 + 16).div_ceil(32);
        let ser = 32; // ns per flit at 1 GB/s
        // Head: inject->link->eject = 2 sends w/ router latency between.
        let lower = (flits - 1) * ser + 2 * ser;
        let upper = lower + 100; // router latencies and rounding
        let l = got[0].latency().as_ns();
        assert!(l >= lower && l <= upper, "latency {l}, expected ~[{lower},{upper}]");
    }

    #[test]
    fn self_send_is_delivered_locally() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 4));
        let got = drive(&mut net, vec![(SimTime::ZERO, Packet::new(0, 2, 2, 4096))]);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].hops, 0);
    }

    #[test]
    fn hop_recording_reports_each_link_crossing() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        net.set_record_hops(true);
        let mut step = Step::default();
        let mut queue = EventQueue::new();
        net.inject_into(SimTime::ZERO, Packet::new(9, 0, 7, 4096), &mut step, queue.orders());
        let (delivered, hops) = drain(&mut net, &mut queue, &mut step);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].hops, 7);
        assert_eq!(hops.len(), 7, "one HopRecord per link crossing");
        assert!(hops.iter().all(|h| h.packet == 9));
        assert!(hops.iter().all(|h| h.link_busy > SimSpan::ZERO));
        // Crossings happen strictly in time order along the path.
        assert!(hops.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn hop_recording_does_not_perturb_delivery() {
        let run = |record: bool| {
            let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
            net.set_record_hops(record);
            let mut rng = Rng::new(42);
            let pkts = schedule(8, Pattern::UniformRandom, 400_000_000, 4096,
                                SimSpan::from_us(100), &mut rng);
            let got = drive(&mut net, pkts);
            let lat: Vec<u64> = got.iter().map(|d| d.latency().as_ns()).collect();
            (got.len(), lat, net.stats().flit_hops, net.stats().credit_stalls)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn same_flow_packets_stay_ordered() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        let pkts: Vec<_> = (0..20)
            .map(|i| (SimTime::from_ns(i), Packet::new(i, 0, 7, 4096)))
            .collect();
        let got = drive(&mut net, pkts);
        assert_eq!(got.len(), 20);
        let ids: Vec<u64> = got.iter().map(|d| d.packet.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "same src->dst flow must not reorder");
    }

    #[test]
    fn all_topologies_deliver_uniform_random_load() {
        for kind in [TopologyKind::Mesh1D, TopologyKind::Ring, TopologyKind::Crossbar] {
            let mut rng = Rng::new(11);
            let pkts = schedule(8, Pattern::UniformRandom, 40_000_000, 4096,
                                SimSpan::from_ms(2), &mut rng);
            let n = pkts.len();
            let mut net = Network::new(cfg(kind, 8));
            let got = drive(&mut net, pkts);
            assert_eq!(got.len(), n, "{kind:?} dropped packets");
            assert!(net.is_idle(), "{kind:?} left flits in flight");
            // exactly-once: ids unique
            let mut ids: Vec<u64> = got.iter().map(|d| d.packet.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), n, "{kind:?} duplicated a delivery");
        }
    }

    #[test]
    fn ring_under_saturation_with_tiny_buffers_does_not_deadlock() {
        // Tornado on a ring with wraparound wormhole traffic is the
        // classic deadlock scenario; the dateline VC discipline must
        // drain it.
        let mut rng = Rng::new(5);
        let c = cfg(TopologyKind::Ring, 8)
            .with_input_buffer_flits(2)
            .with_link_bandwidth(200_000_000);
        let pkts = schedule(8, Pattern::Tornado, 400_000_000, 4096,
                            SimSpan::from_ms(1), &mut rng);
        let n = pkts.len();
        assert!(n > 100);
        let mut net = Network::new(c);
        let got = drive(&mut net, pkts);
        assert_eq!(got.len(), n, "ring deadlocked or dropped");
        assert!(net.is_idle());
    }

    #[test]
    fn throughput_capped_by_bisection() {
        // Tornado traffic: every packet crosses the bisection. Offered
        // load is far above capacity; accepted throughput must cap near
        // the bisection bandwidth.
        let link = 500_000_000u64; // mesh bisection = 2 links = 1 GB/s
        let c = cfg(TopologyKind::Mesh1D, 8).with_link_bandwidth(link);
        let mut rng = Rng::new(7);
        let pkts = schedule(8, Pattern::Tornado, 2_000_000_000, 4096,
                            SimSpan::from_ms(1), &mut rng);
        let mut net = Network::new(c);
        let got = drive(&mut net, pkts);
        let end = got.iter().map(|d| d.at).max().unwrap();
        let bytes: u64 = got.iter().map(|d| d.packet.bytes).sum();
        let thpt = bytes as f64 / end.as_secs_f64();
        // 2 unidirectional bisection links x 500 MB/s = 1 GB/s ceiling
        // (tornado on a line actually also uses non-bisection links, so
        // just assert we're within the physical cap with overheads).
        assert!(thpt <= 1.05e9, "throughput {thpt} exceeds bisection");
        assert!(thpt >= 0.3e9, "throughput {thpt} suspiciously low");
    }

    #[test]
    fn mesh_beats_ring_latency_at_equal_bisection() {
        // Fig 13(a): at equal bisection bandwidth the ring's channels are
        // half as wide as the mesh's, so large-packet serialization
        // dominates and the ring's latency is worse.
        let mut lat = Vec::new();
        for kind in [TopologyKind::Mesh1D, TopologyKind::Ring] {
            let c = cfg(kind, 8).with_bisection_bandwidth(500_000_000);
            let mut rng = Rng::new(9);
            let pkts = schedule(8, Pattern::UniformRandom, 20_000_000, 4096,
                                SimSpan::from_ms(1), &mut rng);
            let mut net = Network::new(c);
            drive(&mut net, pkts);
            lat.push(net.stats().mean_latency().as_us_f64());
        }
        assert!(lat[0] < lat[1],
                "mesh latency {} should beat ring {}", lat[0], lat[1]);
    }

    #[test]
    #[should_panic(expected = "not a terminal")]
    fn inject_to_hub_rejected() {
        let mut net = Network::new(cfg(TopologyKind::Crossbar, 4));
        let (mut step, mut orders) = (Step::default(), Orders::new());
        net.inject_into(SimTime::ZERO, Packet::new(0, 0, 4, 128), &mut step, &mut orders);
    }

    #[test]
    fn widest_crossbar_hub_drains_through_every_request_bit() {
        // A 32-terminal hub has 64 input slots, the request masks' full
        // width, so its round-robin walk wraps past bit 63.
        let run = |express: bool| {
            let c = cfg(TopologyKind::Crossbar, NocConfig::MAX_CROSSBAR_TERMINALS)
                .with_express(express);
            let mut rng = Rng::new(31);
            let pkts = schedule(32, Pattern::UniformRandom, 900_000_000, 4096,
                                SimSpan::from_us(10), &mut rng);
            let n = pkts.len();
            let mut net = Network::new(c);
            let got = drive(&mut net, pkts);
            assert_eq!(got.len(), n, "hub dropped packets");
            assert!(net.is_idle());
            let mut deliv: Vec<_> = got.iter().map(|d| (d.packet.id, d.at.as_ns())).collect();
            deliv.sort_unstable();
            (deliv, net.stats().credit_stalls)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "at most 32 terminals")]
    fn crossbar_wider_than_the_request_mask_is_rejected() {
        let _ = Network::new(cfg(TopologyKind::Crossbar, 33));
    }

    #[test]
    #[should_panic(expected = "already in flight")]
    fn duplicate_packet_id_rejected() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 4));
        let (mut step, mut orders) = (Step::default(), Orders::new());
        net.inject_into(SimTime::ZERO, Packet::new(0, 0, 1, 128), &mut step, &mut orders);
        net.inject_into(SimTime::ZERO, Packet::new(0, 1, 2, 128), &mut step, &mut orders);
    }

    #[test]
    fn bisection_links_are_the_hot_spot_under_tornado() {
        // Tornado on a line: every packet crosses the middle, so the
        // center links carry the most serialization time.
        let c = cfg(TopologyKind::Mesh1D, 8).with_link_bandwidth(400_000_000);
        let mut rng = Rng::new(4);
        let pkts = schedule(8, Pattern::Tornado, 100_000_000, 4096,
                            SimSpan::from_ms(1), &mut rng);
        let mut net = Network::new(c);
        let got = drive(&mut net, pkts);
        let end = got.iter().map(|d| d.at).max().unwrap();
        let elapsed = end - SimTime::ZERO;
        // Center-crossing link (node 3 -> 4 is output port 2 of node 3).
        let center = net.link_busy(3, 2);
        let edge = net.link_busy(0, 2);
        assert!(center > edge, "center {center} vs edge {edge}");
        let peak = net.max_link_utilization(elapsed);
        assert!(peak > 0.5, "tornado must load the bisection: {peak}");
        assert!(peak <= 1.0 + 1e-9);
    }

    /// Runs one workload and snapshots everything observable: the full
    /// delivery timeline, all stats counters, and every output's busy
    /// span. Deliveries are sorted by id because completion *order*
    /// within one timestamp may differ between express and flit-level
    /// runs (the timestamps themselves may not).
    #[allow(clippy::type_complexity)]
    fn observable_run(
        kind: TopologyKind,
        bw: u64,
        pattern: Pattern,
        seed: u64,
        express: bool,
    ) -> (Vec<(u64, u64, u32, u64)>, (u64, u64, u64, u64, u64, u64), u64, Vec<u64>) {
        let c = cfg(kind, 8).with_link_bandwidth(bw).with_express(express);
        let mut rng = Rng::new(seed);
        let pkts = schedule(8, pattern, 40_000_000, 4096, SimSpan::from_us(300), &mut rng);
        let mut net = Network::new(c);
        let got = drive(&mut net, pkts);
        assert!(net.is_idle());
        let mut deliv: Vec<_> = got
            .iter()
            .map(|d| (d.packet.id, d.at.as_ns(), d.hops, d.injected_at.as_ns()))
            .collect();
        deliv.sort_unstable();
        let s = net.stats();
        let stats = (
            s.injected,
            s.delivered,
            s.bytes_delivered,
            s.flit_hops,
            s.total_hops,
            s.credit_stalls,
        );
        let lat = s.mean_latency().as_ns();
        let t = net.topology();
        let mut busy = Vec::new();
        for n in 0..t.nodes() {
            for p in 0..t.ports(n) {
                busy.push(net.link_busy(n, p).as_ns());
            }
        }
        (deliv, stats, lat, busy)
    }

    #[test]
    fn express_is_bit_identical_to_flit_level() {
        // The differential oracle: over randomized topologies, loads and
        // seeds, the express path must reproduce the flit-level world's
        // delivery timeline, credit-stall count and link-busy spans
        // exactly. Light load keeps most packets express; heavy load
        // (relative to the link rate) forces constant demotion.
        for kind in [
            TopologyKind::Mesh1D,
            TopologyKind::Ring,
            TopologyKind::Crossbar,
            TopologyKind::Mesh2D { cols: 4 },
        ] {
            for bw in [1_000_000_000, 120_000_000] {
                for (pattern, seed) in
                    [(Pattern::UniformRandom, 21), (Pattern::Tornado, 22), (Pattern::Hotspot, 23)]
                {
                    let on = observable_run(kind, bw, pattern, seed, true);
                    let off = observable_run(kind, bw, pattern, seed, false);
                    assert_eq!(on, off, "{kind:?} bw={bw} {pattern:?} diverged");
                }
            }
        }
    }

    #[test]
    fn express_collapses_embedder_event_count_when_uncontended() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        let (got, events) =
            drive_counted(&mut net, vec![(SimTime::ZERO, Packet::new(0, 0, 7, 4096))]);
        assert_eq!(got.len(), 1);
        // The forward run did all the flit-level work privately ...
        assert!(net.express_events() > 1000, "express never engaged");
        // ... so the embedder queue saw only the injection, the
        // ExpressResolve and the ExpressDone.
        assert!(events - net.express_events() <= 3, "express leaked events");
    }

    #[test]
    fn drive_counted_reports_comparable_work_in_both_modes() {
        // The counted events must measure the same logical work whether
        // packets ride express, are demoted half-way, or never qualify.
        let run = |express: bool| {
            let mut rng = Rng::new(77);
            let pkts = schedule(8, Pattern::UniformRandom, 120_000_000, 4096,
                                SimSpan::from_us(200), &mut rng);
            let mut net =
                Network::new(cfg(TopologyKind::Mesh1D, 8).with_express(express));
            drive_counted(&mut net, pkts).1
        };
        let (on, off) = (run(true), run(false));
        let ratio = on as f64 / off as f64;
        assert!((0.9..1.1).contains(&ratio), "event accounting skewed: {on} vs {off}");
    }

    #[test]
    fn forced_demotions_do_not_double_count_credit_stalls() {
        // A same-flow burst demotes every standing reservation (each new
        // packet shares the whole route); with tiny buffers the flow also
        // self-stalls constantly. The demotion replay must regenerate —
        // not double-apply — those stalls.
        let run = |express: bool| {
            let c = cfg(TopologyKind::Mesh1D, 8)
                .with_input_buffer_flits(2)
                .with_express(express);
            let mut net = Network::new(c);
            let pkts: Vec<_> = (0..40)
                .map(|i| (SimTime::from_ns(i * 700), Packet::new(i, 0, 7, 4096)))
                .collect();
            let got = drive(&mut net, pkts);
            let ends: Vec<u64> = got.iter().map(|d| d.at.as_ns()).collect();
            (ends, net.stats().credit_stalls, net.stats().flit_hops)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn express_preserves_link_busy_and_peak_utilization() {
        // Satellite coverage: Fig 12's saturation mechanism reads
        // link_busy / max_link_utilization, so the express path must
        // account serialization time on exactly the same links.
        let run = |express: bool| {
            let c = cfg(TopologyKind::Mesh1D, 8)
                .with_link_bandwidth(400_000_000)
                .with_express(express);
            let mut rng = Rng::new(4);
            let pkts = schedule(8, Pattern::Tornado, 100_000_000, 4096,
                                SimSpan::from_ms(1), &mut rng);
            let mut net = Network::new(c);
            let got = drive(&mut net, pkts);
            let end = got.iter().map(|d| d.at).max().unwrap();
            let busy: Vec<u64> = (0..8)
                .flat_map(|n| (0..3).map(move |p| (n, p)))
                .map(|(n, p)| net.link_busy(n, p).as_ns())
                .collect();
            (busy, (net.max_link_utilization(end - SimTime::ZERO) * 1e12) as u64)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn fault_demotion_hook_is_observably_neutral() {
        // demote_overlapping is what the SSD simulator calls on an
        // injected fNoC fault: it must revert reservations to flit-level
        // without changing anything observable.
        let run = |poke: bool| {
            let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
            let mut queue: EventQueue<NocEvent> = EventQueue::new();
            let mut step = Step::default();
            net.inject_into(SimTime::ZERO, Packet::new(1, 0, 7, 4096), &mut step, queue.orders());
            if poke {
                // Mid-flight fault on an overlapping route.
                let t = SimTime::from_ns(500);
                net.demote_overlapping(t, 2, 5, &mut step, queue.orders());
            }
            let (delivered, _) = drain(&mut net, &mut queue, &mut step);
            assert!(net.is_idle());
            let d: Vec<_> = delivered.iter().map(|d| (d.packet.id, d.at.as_ns(), d.hops)).collect();
            (d, net.stats().flit_hops, net.stats().credit_stalls)
        };
        assert_eq!(run(true), run(false));
    }

    /// Drives a mesh to `t` with a flit-level flow on routers 0..=3 and
    /// an express packet on routers 5..=7, granted at 20 ns: packet 1 is
    /// granted at 0 and demoted at 10 ns by packet 2, which shares its
    /// routers. Returns the queue holding the express deliveries.
    fn live_flow_beside_an_express_group(
        net: &mut Network,
        step: &mut Step,
        t: SimTime,
    ) -> EventQueue<NocEvent> {
        let mut queue = EventQueue::new();
        for (at, p) in [(0, Packet::new(1, 0, 3, 4096)), (10, Packet::new(2, 1, 2, 4096))] {
            net.inject_into(SimTime::from_ns(at), p, step, queue.orders());
        }
        net.inject_into(SimTime::from_ns(20), Packet::new(3, 5, 7, 4096), step, queue.orders());
        while net.run(EventKey::at(t), u64::MAX, step, queue.orders()).0 > 0 {
            for (at, e) in step.schedule.drain(..) {
                queue.push(at, e);
            }
        }
        assert!(step.delivered.is_empty() && step.hops.is_empty());
        queue
    }

    /// A demotion hands the replay's pending events to the live lanes
    /// with fresh orders; one earlier than its lane's tail must still pop
    /// in key order, and the demoted run must deliver exactly as the
    /// flit-level engine does. Demotion instants across one flit time
    /// put the express flow's last grant before and after the live
    /// flow's, so some hand-offs land behind a lane's tail.
    #[test]
    fn demotion_hand_off_behind_its_lane_tail_pops_in_key_order() {
        let run = |express: bool, at: SimTime| {
            let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8).with_express(express));
            let mut step = Step::default();
            let mut queue = live_flow_beside_an_express_group(&mut net, &mut step, at);
            let before = lane_entries(&net);
            // Packet 4 crosses routers 4..=6: the express group demotes.
            net.inject_into(at, Packet::new(4, 4, 6, 4096), &mut step, queue.orders());
            let after = lane_entries(&net);
            assert!(after.windows(2).all(|w| w[0].0 < w[1].0), "lanes out of key order");
            let behind_a_tail = after.iter().any(|&(k, e)| {
                !before.contains(&(k, e))
                    && before.iter().any(|&(old, o)| o.lane() == e.lane() && k < old)
            });
            let (delivered, _) = drain(&mut net, &mut queue, &mut step);
            assert!(net.is_idle());
            let mut d: Vec<_> = delivered.iter().map(|d| (d.packet.id, d.at.as_ns())).collect();
            d.sort_unstable();
            ((d, net.stats().flit_hops, net.stats().credit_stalls), behind_a_tail)
        };
        let mut behind = 0;
        for at in (1_000..1_000 + net_flit_ns()).map(SimTime::from_ns) {
            let (express, handed_behind) = run(true, at);
            behind += usize::from(handed_behind);
            assert_eq!(express, run(false, at).0, "demotion at {at:?} diverged");
        }
        assert!(behind > 0, "no hand-off landed behind its lane's tail");
    }

    /// Flit events draw their orders from the embedder's counter when
    /// they are scheduled, so an embedder event pushed earlier at the
    /// same instant pops first and one pushed later pops after.
    #[test]
    fn lane_entries_take_their_orders_from_the_embedders_counter() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8).with_express(false));
        let mut step = Step::default();
        let mut queue = EventQueue::new();
        // The injection's first grant frees the output one flit time on.
        let free_at = SimTime::ZERO + net.flit_ser;
        for marker in ["before 1", "before 2", "before 3"] {
            queue.push(free_at, marker);
        }
        net.inject_into(SimTime::ZERO, Packet::new(1, 0, 1, 4096), &mut step, queue.orders());
        queue.push(free_at, "after");
        let mut at_free = Vec::new();
        loop {
            let head = queue.peek_key().unwrap_or(EventKey::MAX);
            let (ran, t) = net.run(head, 1, &mut step, queue.orders());
            let (t, what) = match ran {
                0 => match queue.pop() {
                    Some(popped) => popped,
                    None => break,
                },
                _ => (t, "flit event"),
            };
            if t == free_at {
                at_free.push(what);
            }
            step.clear();
        }
        assert_eq!(at_free, ["before 1", "before 2", "before 3", "flit event", "after"]);
    }

    /// One flit time of the default mesh, in nanoseconds.
    fn net_flit_ns() -> u64 {
        Network::new(cfg(TopologyKind::Mesh1D, 8)).flit_ser.as_ns()
    }

    /// An express group's forward run schedules on private lanes with a
    /// private counter: resolving the group must leave every live lane
    /// entry, key and event, exactly as it was.
    #[test]
    fn forward_run_leaves_the_live_lanes_untouched() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        let mut step = Step::default();
        // Packet 3's group resolves one flit time after its 20 ns grant.
        let resolve = SimTime::from_ns(20) + net.flit_ser;
        let mut queue = live_flow_beside_an_express_group(&mut net, &mut step, resolve);
        loop {
            let before = lane_entries(&net);
            assert!(!before.is_empty(), "the live flow drained before the resolve");
            let forward_pops = net.express_diag().forward_pops;
            assert_eq!(net.run(EventKey::MAX, 1, &mut step, queue.orders()).0, 1);
            if net.express_diag().forward_pops > forward_pops {
                assert!(matches!(before[0].1, NocEvent::ExpressResolve { .. }));
                assert_eq!(lane_entries(&net), before[1..], "the forward run touched live lanes");
                break;
            }
            assert!(step.is_empty(), "the live flow delivered before the resolve");
        }
        assert_eq!(step.schedule.len(), 1, "one ExpressDone for the one member");
        drain(&mut net, &mut queue, &mut step);
        assert!(net.is_idle());
    }

    #[test]
    fn stats_accumulate() {
        let mut net = Network::new(cfg(TopologyKind::Mesh1D, 8));
        drive(&mut net, vec![
            (SimTime::ZERO, Packet::new(0, 0, 4, 4096)),
            (SimTime::ZERO, Packet::new(1, 2, 6, 4096)),
        ]);
        let s = net.stats();
        assert_eq!(s.injected, 2);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.bytes_delivered, 8192);
        assert_eq!(s.mean_hops(), 4.0);
        assert!(s.flit_hops > 0);
    }
}
