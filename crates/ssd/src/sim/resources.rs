//! The resources every pipeline stage occupies: the front-end's system
//! bus and DRAM, dSSD_b's dedicated GC bus, each channel's flash bus and
//! its controller's ECC engine, and the dies. [`Resources::book`] books
//! every transfer and operation, and meters every system-bus transaction
//! per traffic class; [`SsdSim::occupy`] books whole pages, and
//! [`SsdSim::stage`] books them from now and attributes them to their
//! request or copy job through the span funnel.

use dssd_ctrl::DecoupledController;
use dssd_flash::{DieGrid, FlashOpKind};
use dssd_kernel::{BandwidthServer, SimSpan, SimTime, SlabKey};
use dssd_telemetry::{Class, Track};

use super::{SsdSim, CLASS_GC, CLASS_IO};
use crate::metrics::{RunReport, StageKind};
use crate::{Architecture, SsdConfig};

/// A resource a transfer or operation occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Hop {
    /// The system bus, as one burst.
    SysBus,
    /// The system bus, one transaction per page: GC's pages are
    /// scattered, so each carries its own descriptor overhead.
    SysBusPages,
    /// Front-end DRAM, as one burst.
    Dram,
    /// Front-end DRAM, one transaction per page.
    DramPages,
    /// dSSD_b's dedicated GC bus.
    GcBus,
    /// A channel's flash bus.
    Bus(usize),
    /// A channel controller's ECC engine.
    Ecc(usize),
    /// A die, busy for the given array time.
    Die(usize, SimSpan),
}

/// The resources seam: every server a stage occupies.
#[derive(Debug)]
pub(super) struct Resources {
    dies: DieGrid,
    flash_bus: Vec<BandwidthServer>,
    /// The decoupled controllers (C_D), one per channel: integrated ECC,
    /// dBUF, and the dynamic-superblock hardware tables.
    pub(super) controllers: Vec<DecoupledController>,
    sysbus: BandwidthServer,
    dram: BandwidthServer,
    dedicated_bus: Option<BandwidthServer>,
    /// Descriptor overhead of each transaction of a `*Pages` hop.
    page_overhead: SimSpan,
}

impl Resources {
    pub(super) fn new(config: &SsdConfig) -> Self {
        let channels = config.geometry.channels as usize;
        let srt_entries = config.dynamic_sb.map_or(1024, |d| d.srt_entries);
        let ctrl = DecoupledController::new(config.ecc, config.dbuf_pages, srt_entries, 1 << 20);
        let flash_bus = BandwidthServer::new(config.flash_bus_bytes_per_sec, SimSpan::ZERO);
        let bus = |rate| BandwidthServer::new(rate, config.bus_overhead);
        Resources {
            dies: DieGrid::new(&config.geometry),
            flash_bus: vec![flash_bus; channels],
            controllers: vec![ctrl; channels],
            sysbus: bus(config.system_bus_bytes_per_sec()),
            dram: bus(config.dram_bytes_per_sec),
            dedicated_bus: (config.architecture == Architecture::DssdBus)
                .then(|| bus(config.dedicated_budget_bytes_per_sec().max(1))),
            page_overhead: config.gc_page_overhead,
        }
    }

    /// Books one transaction of `bytes` on `hop` from `at` as traffic
    /// class `class` and returns when it is done. A `*Pages` hop adds the
    /// per-page descriptor overhead; system-bus busy time is metered into
    /// `report`'s utilization of its class. Always inlined: each module
    /// is its own codegen unit, and a call naming its hop should compile
    /// to that one server's booking, not an out-of-line call that matches
    /// on the hop.
    #[inline(always)]
    pub(super) fn book(
        &mut self,
        hop: Hop,
        at: SimTime,
        bytes: u64,
        class: usize,
        report: &mut RunReport,
    ) -> SimTime {
        match hop {
            Hop::SysBus | Hop::SysBusPages => {
                let extra = if hop == Hop::SysBus { SimSpan::ZERO } else { self.page_overhead };
                let t = self.sysbus.enqueue_extra(at, bytes, extra);
                match class {
                    CLASS_IO => report.sysbus_io_util.record_busy(t.start, t.done),
                    CLASS_GC => report.sysbus_gc_util.record_busy(t.start, t.done),
                    _ => {}
                }
                t.done
            }
            Hop::Dram => self.dram.enqueue(at, bytes).done,
            Hop::DramPages => self.dram.enqueue_extra(at, bytes, self.page_overhead).done,
            Hop::GcBus => {
                let bus = self.dedicated_bus.as_mut().expect("dSSD_b has a bus");
                bus.enqueue(at, bytes).done
            }
            Hop::Bus(ch) => self.flash_bus[ch].enqueue(at, bytes).done,
            Hop::Ecc(ch) => self.controllers[ch].ecc_mut().decode(at, bytes).done,
            Hop::Die(die, lat) => self.dies.occupy(die, at, lat).1,
        }
    }
}

impl SsdSim {
    /// Books `pages` on `hop` from `at` as traffic class `class` and
    /// returns when the last transaction is done: one transaction, or one
    /// per page on a `*Pages` hop.
    #[inline(always)]
    pub(super) fn occupy(&mut self, hop: Hop, at: SimTime, pages: u32, class: usize) -> SimTime {
        if !matches!(hop, Hop::SysBusPages | Hop::DramPages) {
            return self.res.book(hop, at, self.page_bytes(pages), class, &mut self.report);
        }
        let mut done = at;
        for _ in 0..pages {
            done = self.res.book(hop, at, self.page_bytes(1), class, &mut self.report);
        }
        done
    }

    /// Runs one stage of host request (`Class::Io`) or copy job
    /// (`Class::Gc`) `id` on `hop` from now and attributes its time to
    /// the owner. Returns when the stage is done.
    #[inline]
    pub(super) fn stage(&mut self, class: Class, id: SlabKey, hop: Hop, pages: u32) -> SimTime {
        let now = self.now;
        let traffic = if class == Class::Io { CLASS_IO } else { CLASS_GC };
        let done = self.occupy(hop, now, pages, traffic);
        let (stage, track) = match hop {
            Hop::SysBus | Hop::SysBusPages => (StageKind::SystemBus, Track::SysBus),
            Hop::Dram | Hop::DramPages => (StageKind::Dram, Track::Dram),
            Hop::GcBus => (StageKind::Noc, Track::DedicatedBus),
            Hop::Bus(ch) => (StageKind::FlashBus, Track::ChannelBus(ch as u16)),
            Hop::Ecc(ch) => (StageKind::Ecc, Track::ChannelEcc(ch as u16)),
            Hop::Die(die, _) => (StageKind::FlashChip, Track::Die(die as u32)),
        };
        let owner = match class {
            Class::Io => self.host.owner(id),
            Class::Gc => (self.gc.job(id).map(|j| &mut j.stages), class, id),
        };
        self.observe.span(owner, stage, track, now, done - now);
        done
    }

    /// Samples the array time of a `planes`-plane operation of `kind` on
    /// one die: the slowest of its planes.
    pub(super) fn array_latency(&mut self, kind: FlashOpKind, planes: u32) -> SimSpan {
        self.config.timing.sample_array(kind, planes, &mut self.rng)
    }

    pub(super) fn page_bytes(&self, pages: u32) -> u64 {
        u64::from(pages) * u64::from(self.config.geometry.page_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CLASS_SCAN;

    fn config() -> SsdConfig {
        // dSSD_b, so the dedicated GC bus exists too.
        SsdConfig::test_tiny(Architecture::DssdBus)
    }

    fn report() -> RunReport {
        RunReport::new(SimSpan::from_ms(1))
    }

    /// Booking a hop returns what booking its own server returns: a
    /// `BandwidthServer`, the controller's ECC engine or the `DieGrid`,
    /// built from the same config and fed the same transfers in the same
    /// order (the `*Pages` hops share the burst hop's server).
    #[test]
    fn every_hop_books_its_own_server() {
        let config = config();
        let (mut res, mut report) = (Resources::new(&config), report());
        let bus = |rate| BandwidthServer::new(rate, config.bus_overhead);
        let mut sysbus = bus(config.system_bus_bytes_per_sec());
        let mut dram = bus(config.dram_bytes_per_sec);
        let mut gc_bus = bus(config.dedicated_budget_bytes_per_sec().max(1));
        let mut flash = BandwidthServer::new(config.flash_bus_bytes_per_sec, SimSpan::ZERO);
        let srt = config.dynamic_sb.map_or(1024, |d| d.srt_entries);
        let mut ctrl = DecoupledController::new(config.ecc, config.dbuf_pages, srt, 1 << 20);
        let mut dies = DieGrid::new(&config.geometry);
        let (extra, lat) = (config.gc_page_overhead, SimSpan::from_us(50));
        let page = u64::from(config.geometry.page_bytes);
        // Staggered and growing, so later bookings queue behind earlier ones.
        for (step, at) in [0u64, 2, 3].into_iter().enumerate() {
            let (at, bytes) = (SimTime::from_us(at), page << step);
            let want = [
                (Hop::SysBus, sysbus.enqueue(at, bytes).done),
                (Hop::SysBusPages, sysbus.enqueue_extra(at, bytes, extra).done),
                (Hop::Dram, dram.enqueue(at, bytes).done),
                (Hop::DramPages, dram.enqueue_extra(at, bytes, extra).done),
                (Hop::GcBus, gc_bus.enqueue(at, bytes).done),
                (Hop::Bus(1), flash.enqueue(at, bytes).done),
                (Hop::Ecc(1), ctrl.ecc_mut().decode(at, bytes).done),
                (Hop::Die(3, lat), dies.occupy(3, at, lat).1),
            ];
            for (hop, done) in want {
                let got = res.book(hop, at, bytes, CLASS_IO, &mut report);
                assert_eq!(got, done, "{hop:?} at step {step}");
            }
        }
    }

    /// A `*Pages` hop books one transaction per page, each paying one
    /// `gc_page_overhead` on top of what the burst hop charges per page.
    #[test]
    fn scattered_pages_pay_one_descriptor_overhead_each() {
        let overhead = config().gc_page_overhead;
        assert!(overhead > SimSpan::ZERO);
        for (burst, scattered) in [(Hop::SysBus, Hop::SysBusPages), (Hop::Dram, Hop::DramPages)] {
            for pages in [1u32, 5] {
                let (mut per_page, mut each) = (SsdSim::new(config()), SsdSim::new(config()));
                let at = SimTime::from_us(1);
                let done = per_page.occupy(scattered, at, pages, CLASS_GC);
                let mut plain = at;
                for _ in 0..pages {
                    plain = each.occupy(burst, at, 1, CLASS_GC);
                }
                assert_eq!(done - plain, overhead * u64::from(pages), "{scattered:?} x {pages}");
            }
        }
    }

    /// System-bus busy time goes to the I/O or GC utilization meter by
    /// traffic class, and to neither for scan traffic; DRAM time to none.
    #[test]
    fn system_bus_time_is_metered_by_class() {
        let page = u64::from(config().geometry.page_bytes);
        let classes = [(CLASS_IO, true, false), (CLASS_GC, false, true)];
        for (class, io, gc) in classes.into_iter().chain([(CLASS_SCAN, false, false)]) {
            for hop in [Hop::SysBus, Hop::SysBusPages] {
                let (mut res, mut report) = (Resources::new(&config()), report());
                res.book(Hop::Dram, SimTime::ZERO, page, class, &mut report);
                let busy = res.book(hop, SimTime::ZERO, page, class, &mut report) - SimTime::ZERO;
                let meter = |on: bool| if on { busy } else { SimSpan::ZERO };
                assert_eq!(report.sysbus_io_util.total_busy(), meter(io), "{hop:?} class {class}");
                assert_eq!(report.sysbus_gc_util.total_busy(), meter(gc), "{hop:?} class {class}");
            }
        }
    }
}
