//! The resources every pipeline stage occupies: the front-end's system
//! bus and DRAM, dSSD_b's dedicated GC bus, each channel's flash bus and
//! its controller's ECC engine, and the dies. [`SsdSim::occupy`] books
//! every transfer and operation, and every system-bus transaction is
//! metered per traffic class in one place; [`SsdSim::stage`] books one
//! from now and attributes it to its request or copy job through the
//! span funnel.

use dssd_flash::{FlashOp, FlashOpKind, PageAddr};
use dssd_kernel::{SimSpan, SimTime, SlabKey};
use dssd_telemetry::{Class, Track};

use super::{SsdSim, CLASS_GC, CLASS_IO};
use crate::metrics::StageKind;

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

impl SsdSim {
    /// Books `pages` on `hop` from `at` as traffic class `class` and
    /// returns when the last transaction is done. Always inlined: each
    /// module is its own codegen unit, and a call naming its hop should
    /// compile to that one server's booking, not an out-of-line call
    /// that matches on the hop.
    #[inline(always)]
    pub(super) fn occupy(&mut self, hop: Hop, at: SimTime, pages: u32, class: usize) -> SimTime {
        let bytes = self.page_bytes(pages);
        match hop {
            Hop::SysBus => self.sysbus_xfer(at, bytes, class, SimSpan::ZERO),
            Hop::Dram => self.dram.enqueue(at, bytes, class).done,
            Hop::SysBusPages | Hop::DramPages => self.scattered(hop, at, pages, class),
            Hop::GcBus => {
                let bus = self.dedicated_bus.as_mut().expect("dSSD_b has a bus");
                bus.enqueue(at, bytes, class).done
            }
            Hop::Bus(ch) => self.flash_bus[ch].enqueue(at, bytes, class).done,
            Hop::Ecc(ch) => self.controllers[ch].ecc_mut().decode_as(at, bytes, class).done,
            Hop::Die(die, lat) => self.dies.occupy(die, at, lat).1,
        }
    }

    /// One system-bus transaction, its busy time metered into the
    /// report's utilization of its traffic class.
    fn sysbus_xfer(&mut self, at: SimTime, bytes: u64, class: usize, extra: SimSpan) -> SimTime {
        let t = self.sysbus.enqueue_extra(at, bytes, class, extra);
        match class {
            CLASS_IO => self.report.sysbus_io_util.record_busy(t.start, t.done),
            CLASS_GC => self.report.sysbus_gc_util.record_busy(t.start, t.done),
            _ => {}
        }
        t.done
    }

    /// GC's scattered pages on the system bus or DRAM: one transaction
    /// per page, each with its own descriptor overhead.
    fn scattered(&mut self, hop: Hop, at: SimTime, pages: u32, class: usize) -> SimTime {
        let (page, extra) = (self.page_bytes(1), self.config.gc_page_overhead);
        let mut done = at;
        for _ in 0..pages {
            done = match hop {
                Hop::DramPages => self.dram.enqueue_extra(at, page, class, extra).done,
                _ => self.sysbus_xfer(at, page, class, extra),
            };
        }
        done
    }

    /// Runs one stage of host request (`Class::Io`) or copy job
    /// (`Class::Gc`) `id` on `hop` from now and attributes its time to
    /// the owner. Returns when the stage is done.
    #[inline]
    pub(super) fn stage(&mut self, class: Class, id: SlabKey, hop: Hop, pages: u32) -> SimTime {
        let now = self.now;
        let traffic = match class {
            Class::Io => CLASS_IO,
            Class::Gc => CLASS_GC,
        };
        let done = self.occupy(hop, now, pages, traffic);
        let (stage, track) = match hop {
            Hop::SysBus | Hop::SysBusPages => (StageKind::SystemBus, Track::SysBus),
            Hop::Dram | Hop::DramPages => (StageKind::Dram, Track::Dram),
            Hop::GcBus => (StageKind::Noc, Track::DedicatedBus),
            Hop::Bus(ch) => (StageKind::FlashBus, Track::ChannelBus(ch as u16)),
            Hop::Ecc(ch) => (StageKind::Ecc, Track::ChannelEcc(ch as u16)),
            Hop::Die(die, _) => (StageKind::FlashChip, Track::Die(die as u32)),
        };
        self.span(class, id, stage, track, now, done - now);
        done
    }

    /// Samples the array time of a `planes`-plane operation of `kind` on
    /// one die: the slowest of its planes.
    pub(super) fn array_latency(&mut self, kind: FlashOpKind, planes: u32) -> SimSpan {
        FlashOp::multi_plane(kind, PageAddr::default(), planes)
            .array_latency(&self.config.timing, &mut self.rng)
    }

    pub(super) fn page_bytes(&self, pages: u32) -> u64 {
        u64::from(pages) * u64::from(self.config.geometry.page_bytes)
    }
}
