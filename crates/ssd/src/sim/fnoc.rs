//! The fNoC glue (Sec 4.1, Fig 4 step 5): a dSSD_f copy job leaves its
//! source controller as one packet per page, the NoC burst runs the
//! network's flit events in one-queue order, and every step the network
//! hands back is booked here: hop slices, express deliveries, and the
//! delivered packets that end a job's transit.

use dssd_kernel::{EventKey, Orders, SimTime, Slab, SlabKey};
use dssd_noc::{Network, Packet, Step};
use dssd_telemetry::{Class, Stage, Track};

use super::{Ev, JobId, SsdSim};
use crate::faults::FaultInjector;
use crate::metrics::StageKind;
use crate::{Architecture, SsdConfig};

/// The fNoC seam: the network and what the simulator keeps beside it.
#[derive(Debug)]
pub(super) struct Fnoc {
    net: Network,
    /// In-flight packets: the slab key's bits are the packet id, so
    /// delivery resolves back to its copy job without a hash probe.
    packet_jobs: Slab<JobId>,
    /// The reused step buffers: the event loop books one NoC step at a
    /// time, so one `Step` (with retained capacity) serves them all.
    step: Step,
    /// Flit events handled off the network's lanes; folded into
    /// `events_delivered`, the state digest and progress ticks wherever
    /// queue pops are, so every event counts once wherever it waited.
    lane_pops: u64,
}

impl Fnoc {
    /// The fNoC of a dSSD_f config; `None` for every other architecture.
    pub(super) fn new(config: &SsdConfig) -> Option<Box<Fnoc>> {
        if config.architecture != Architecture::DssdFnoc {
            return None;
        }
        let mut nc = config.noc;
        if nc.link_bytes_per_sec == 0 {
            // Derive the link bandwidth from the dedicated on-chip budget
            // (bisection normalization).
            nc = nc.with_bisection_bandwidth(config.dedicated_budget_bytes_per_sec().max(1));
        }
        let net = Network::new(nc);
        Some(Box::new(Fnoc { net, packet_jobs: Slab::new(), step: Step::default(), lane_pops: 0 }))
    }
}

impl SsdSim {
    /// The embedded fNoC, when this architecture has one. Read-only:
    /// for stats and diagnostics (e.g. [`Network::express_diag`]).
    #[must_use]
    pub fn noc(&self) -> Option<&Network> {
        self.noc.as_deref().map(|n| &n.net)
    }

    /// Flit events handled off the fNoC's lanes so far.
    pub(super) fn lane_pops(&self) -> u64 {
        self.noc.as_deref().map_or(0, |n| n.lane_pops)
    }

    /// Drops the fNoC's next lane event, popped past the horizon.
    pub(super) fn discard_lane_head(&mut self) {
        let noc = self.noc.as_deref_mut().expect("a lane head has a NoC");
        noc.net.discard_next();
        noc.lane_pops += 1;
    }

    /// Runs `f` on the fNoC with the reused step buffers, the queue's
    /// order counter and the clock, then books what it left in the step.
    /// Every call into the network goes through here.
    pub(super) fn with_noc<R>(
        &mut self,
        f: impl FnOnce(&mut Network, &mut Step, &mut Orders, &mut SimTime) -> R,
    ) -> R {
        let noc = self.noc.as_deref_mut().expect("fNoC work without an fNoC");
        let r = f(&mut noc.net, &mut noc.step, self.queue.orders(), &mut self.now);
        self.book_step();
        r
    }

    /// Hands copy job `job` to the source controller's network interface
    /// as one packet per page (Fig 4 step 5), bound for `dst`.
    pub(super) fn send_packets(&mut self, job: JobId, src: usize, dst: usize) {
        let page_bytes = u64::from(self.config.geometry.page_bytes);
        let (n, _) = self.job_side(job, false);
        self.gc.job(job).expect("sending an unknown copy job").packets_in_flight = n;
        for _ in 0..n {
            let pid = self.noc.as_deref_mut().expect("dSSD_f").packet_jobs.insert(job).to_bits();
            let pkt = Packet::new(pid, src, dst, page_bytes);
            if self.repair.injector.as_mut().is_some_and(FaultInjector::noc_degrades) {
                // Injected link degradation: the packet times out and is
                // re-injected after the configured delay.
                self.observe.tracer.instant(Track::Faults, "noc degrade", self.now);
                self.report.faults.noc_faults += 1;
                // The degraded region must not stay fast-forwarded: any
                // express reservation crossing the affected route reverts
                // to flit-level simulation (observably neutral — timings
                // are unchanged).
                self.with_noc(|noc, step, orders, now| {
                    noc.demote_overlapping(*now, src, dst, step, orders);
                });
                let at = self.now + self.config.faults.noc_degrade_latency;
                self.queue.push(at, Ev::NocRetry { pkt: Box::new(pkt) });
                continue;
            }
            self.with_noc(|noc, step, orders, now| noc.inject_into(*now, pkt, step, orders));
        }
        // Source dBUF slots free once the pages are handed to the NI.
        self.release_src_dbuf(job);
    }

    /// Handles the fNoC's flit events while they precede both the queue
    /// head and `bound` (see [`SsdSim::run_bounded`]), at most `max` of
    /// them. The loop calls it only when the next lane head does.
    ///
    /// The order is the one-queue order by construction: flit events
    /// carry orders from the queue's counter, and [`Network::run`] stops
    /// after every step it hands back, which is booked — pushing what it
    /// schedules — before the next flit event draws an order. The queue
    /// head is re-read after each booking, since a delivery pushes the
    /// copy job's next leg at the current instant.
    ///
    /// Returns the number of events handled (at least 1, at most `max`).
    pub(super) fn noc_burst(&mut self, max: u64, bound: SimTime) -> u64 {
        let bound = EventKey::at(bound);
        let mut n = 0u64;
        while n < max {
            let limit = self.queue.peek_key().map_or(bound, |head| head.min(bound));
            let ran = self.with_noc(|noc, step, orders, now| {
                let (ran, t) = noc.run(limit, max - n, step, orders);
                if ran > 0 {
                    *now = t;
                }
                ran
            });
            if ran == 0 {
                break;
            }
            n += ran;
        }
        debug_assert!(n > 0, "a NoC burst must handle the lane head it was given");
        self.noc.as_deref_mut().expect("a burst has a NoC").lane_pops += n;
        n
    }

    /// Books the NoC [`Step`] the last call left: traces its hops, queues
    /// its express deliveries and books its delivered packets, leaving
    /// its buffers empty (capacity retained) for reuse.
    fn book_step(&mut self) {
        let noc = self.noc.as_deref_mut().expect("booking a step without an fNoC");
        // Per-hop link slices first: `packet_jobs` entries are removed on
        // delivery, and the delivered packet's final hops ride in the same
        // step. Hops are recorded only when tracing, so this is cold.
        for h in noc.step.hops.drain(..) {
            if let Some(&job) = noc.packet_jobs.get(SlabKey::from_bits(h.packet)) {
                self.observe.tracer.span_named(
                    Class::Gc,
                    job.to_bits(),
                    Track::Router(h.node as u16),
                    Stage::Noc,
                    "noc hop",
                    h.at,
                    h.link_busy,
                );
            }
        }
        for (t, e) in noc.step.schedule.drain(..) {
            self.queue.push(t, Ev::Noc(e));
        }
        // Delivered packets are booked against their copy jobs; a job's
        // last packet schedules its post-transit leg.
        for d in noc.step.delivered.drain(..) {
            let job = noc
                .packet_jobs
                .remove(SlabKey::from_bits(d.packet.id))
                .expect("delivered packet without job");
            let j = self.gc.job(job).expect("delivered packet of a finished job");
            j.packets_in_flight -= 1;
            if j.packets_in_flight == 0 {
                let (at, transit) = (d.injected_at, d.latency());
                let owner = (Some(&mut j.stages), Class::Gc, job);
                self.observe.span(owner, StageKind::Noc, Track::NocTransit, at, transit);
                self.queue.push(self.now, Ev::CopyAtDstBus { job });
            }
        }
    }
}
