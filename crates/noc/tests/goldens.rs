//! Golden fingerprints of the standalone flit-level router.
//!
//! Each case drives near-saturating synthetic traffic through
//! [`drive_counted`] and pins one line: delivered packets, events, the
//! last delivery and the summed latency in ns, `flit_hops`,
//! `credit_stalls`, and a digest of every output's `link_busy`. The cases
//! cover every topology (the crossbar at 8 and 16 terminals, the 16-
//! terminal hub arbitrating 32 input slots), 1- and 4-flit input buffers,
//! the express path on and off, and uniform and hotspot traffic, so any
//! change to arbitration order, credit flow or express demotion moves at
//! least one line.

use dssd_kernel::{Rng, SimSpan};
use dssd_noc::traffic::{schedule, Pattern};
use dssd_noc::{drive_counted, Network, NocConfig, TopologyKind};

/// Per-node offered load in MB/s that keeps `kind`'s most loaded link
/// near (but under) saturation at the default 1 GB/s links.
fn near_saturation_mbps(kind: TopologyKind, terminals: usize, pattern: Pattern) -> u64 {
    match pattern {
        // Every packet ejects at terminal 0 (terminal 0's own go to 1).
        Pattern::Hotspot => 900 / (terminals as u64 - 1),
        // Uniform over 8 terminals: each direction of the bisection
        // carries 16/7 of one node's load, over one link on the 1-D mesh
        // and two on the ring and the 4×2 mesh; a crossbar leaf's uplink
        // carries its node's whole load.
        _ => match kind {
            TopologyKind::Mesh1D => 400,
            TopologyKind::Ring | TopologyKind::Mesh2D { .. } => 800,
            TopologyKind::Crossbar => 900,
        },
    }
}

/// Runs one case and renders its fingerprint line.
fn fingerprint(
    kind: TopologyKind,
    terminals: usize,
    buffer: usize,
    express: bool,
    pattern: Pattern,
    seed: u64,
) -> String {
    let config = NocConfig::new(kind, terminals)
        .with_input_buffer_flits(buffer)
        .with_express(express);
    let rate = near_saturation_mbps(kind, terminals, pattern) * 1_000_000;
    let span = SimSpan::from_us(30);
    let packets = schedule(terminals, pattern, rate, 4096, span, &mut Rng::new(seed));
    let offered = packets.len();
    let mut net = Network::new(config);
    let (got, events) = drive_counted(&mut net, packets);
    assert_eq!(got.len(), offered, "{kind:?} lost packets");
    assert!(net.is_idle());
    let last = got.iter().map(|d| d.at.as_ns()).max().unwrap_or(0);
    let latency: u64 = got.iter().map(|d| d.latency().as_ns()).sum();
    let mut busy = 0xcbf2_9ce4_8422_2325u64;
    let topo = net.topology();
    for node in 0..topo.nodes() {
        for port in 0..topo.ports(node) {
            busy = (busy ^ net.link_busy(node, port).as_ns()).wrapping_mul(0x0100_0000_01b3);
        }
    }
    let s = net.stats();
    format!(
        "delivered={} events={events} last={last} latency={latency} flit_hops={} \
         credit_stalls={} busy={busy:016x}",
        got.len(),
        s.flit_hops,
        s.credit_stalls
    )
}

#[test]
fn router_fingerprints_are_pinned() {
    let topologies = [
        (TopologyKind::Mesh1D, 8),
        (TopologyKind::Ring, 8),
        (TopologyKind::Crossbar, 8),
        (TopologyKind::Crossbar, 16),
        (TopologyKind::Mesh2D { cols: 4 }, 8),
    ];
    let mut lines = Vec::new();
    let mut seed = 100;
    for (kind, terminals) in topologies {
        for buffer in [1, 4] {
            for pattern in [Pattern::UniformRandom, Pattern::Hotspot] {
                seed += 1;
                for express in [true, false] {
                    let line = fingerprint(kind, terminals, buffer, express, pattern, seed);
                    lines.push(format!(
                        "{kind:?}/{terminals} buf={buffer} {pattern:?} express={express}: {line}"
                    ));
                }
            }
        }
    }
    assert_eq!(lines.join("\n"), GOLDEN.trim());
}

const GOLDEN: &str = "
Mesh1D/8 buf=1 UniformRandom express=true: delivered=17 events=24142 last=39642 latency=185884 flit_hops=8772 credit_stalls=9706 busy=e0532406e2235245
Mesh1D/8 buf=1 UniformRandom express=false: delivered=17 events=24140 last=39642 latency=185884 flit_hops=8772 credit_stalls=9706 busy=e0532406e2235245
Mesh1D/8 buf=1 Hotspot express=true: delivered=10 events=15363 last=43572 latency=103627 flit_hops=5547 credit_stalls=4384 busy=3f8e066caece4f25
Mesh1D/8 buf=1 Hotspot express=false: delivered=10 events=15361 last=43572 latency=103627 flit_hops=5547 credit_stalls=4384 busy=3f8e066caece4f25
Mesh1D/8 buf=4 UniformRandom express=true: delivered=20 events=26469 last=50913 latency=190454 flit_hops=9675 credit_stalls=2535 busy=95312544f7497b65
Mesh1D/8 buf=4 UniformRandom express=false: delivered=20 events=26465 last=50913 latency=190454 flit_hops=9675 credit_stalls=2535 busy=95312544f7497b65
Mesh1D/8 buf=4 Hotspot express=true: delivered=12 events=22460 last=43557 latency=140030 flit_hops=7998 credit_stalls=2553 busy=734834f117b07dc5
Mesh1D/8 buf=4 Hotspot express=false: delivered=12 events=22458 last=43557 latency=140030 flit_hops=7998 credit_stalls=2553 busy=734834f117b07dc5
Ring/8 buf=1 UniformRandom express=true: delivered=50 events=59779 last=97462 latency=1372072 flit_hops=22059 credit_stalls=26248 busy=0ce8d5e5d9b76a65
Ring/8 buf=1 UniformRandom express=false: delivered=50 events=59777 last=97462 latency=1372072 flit_hops=22059 credit_stalls=26248 busy=0ce8d5e5d9b76a65
Ring/8 buf=1 Hotspot express=true: delivered=8 events=8655 last=37696 latency=75077 flit_hops=3225 credit_stalls=2339 busy=1397bbb14ba835e5
Ring/8 buf=1 Hotspot express=false: delivered=8 events=8651 last=37696 latency=75077 flit_hops=3225 credit_stalls=2339 busy=1397bbb14ba835e5
Ring/8 buf=4 UniformRandom express=true: delivered=35 events=41962 last=57092 latency=382627 flit_hops=15480 credit_stalls=5720 busy=17293c7ffdda3f85
Ring/8 buf=4 UniformRandom express=false: delivered=35 events=41960 last=57092 latency=382627 flit_hops=15480 credit_stalls=5720 busy=17293c7ffdda3f85
Ring/8 buf=4 Hotspot express=true: delivered=10 events=10719 last=43867 latency=158055 flit_hops=3999 credit_stalls=3710 busy=5780964c165d7865
Ring/8 buf=4 Hotspot express=false: delivered=10 events=10717 last=43867 latency=158055 flit_hops=3999 credit_stalls=3710 busy=5780964c165d7865
Crossbar/8 buf=1 UniformRandom express=true: delivered=41 events=42355 last=47297 latency=490139 flit_hops=15867 credit_stalls=17212 busy=527bb05e7c17c7e5
Crossbar/8 buf=1 UniformRandom express=false: delivered=41 events=42353 last=47297 latency=490139 flit_hops=15867 credit_stalls=17212 busy=527bb05e7c17c7e5
Crossbar/8 buf=1 Hotspot express=true: delivered=5 events=5171 last=27213 latency=26426 flit_hops=1935 credit_stalls=1282 busy=4c8917f1ef610f25
Crossbar/8 buf=1 Hotspot express=false: delivered=5 events=5165 last=27213 latency=26426 flit_hops=1935 credit_stalls=1282 busy=4c8917f1ef610f25
Crossbar/8 buf=4 UniformRandom express=true: delivered=53 events=54751 last=64265 latency=564329 flit_hops=20511 credit_stalls=4895 busy=4607f272dc736be5
Crossbar/8 buf=4 UniformRandom express=false: delivered=53 events=54749 last=64265 latency=564329 flit_hops=20511 credit_stalls=4895 busy=4607f272dc736be5
Crossbar/8 buf=4 Hotspot express=true: delivered=12 events=12404 last=46007 latency=88859 flit_hops=4644 credit_stalls=635 busy=0735d07700567945
Crossbar/8 buf=4 Hotspot express=false: delivered=12 events=12396 last=46007 latency=88859 flit_hops=4644 credit_stalls=635 busy=0735d07700567945
Crossbar/16 buf=1 UniformRandom express=true: delivered=104 events=107433 last=75370 latency=1693121 flit_hops=40248 credit_stalls=53194 busy=02d9fd04ce982425
Crossbar/16 buf=1 UniformRandom express=false: delivered=104 events=107432 last=75370 latency=1693121 flit_hops=40248 credit_stalls=53194 busy=02d9fd04ce982425
Crossbar/16 buf=1 Hotspot express=true: delivered=7 events=7235 last=36547 latency=50583 flit_hops=2709 credit_stalls=2009 busy=e590af59a7625085
Crossbar/16 buf=1 Hotspot express=false: delivered=7 events=7231 last=36547 latency=50583 flit_hops=2709 credit_stalls=2009 busy=e590af59a7625085
Crossbar/16 buf=4 UniformRandom express=true: delivered=106 events=109500 last=65314 latency=1582419 flit_hops=41022 credit_stalls=13476 busy=489b203801a4a3a5
Crossbar/16 buf=4 UniformRandom express=false: delivered=106 events=109498 last=65314 latency=1582419 flit_hops=41022 credit_stalls=13476 busy=489b203801a4a3a5
Crossbar/16 buf=4 Hotspot express=true: delivered=3 events=3103 last=22176 latency=12588 flit_hops=1161 credit_stalls=0 busy=2861f5362a8c5dc5
Crossbar/16 buf=4 Hotspot express=false: delivered=3 events=3099 last=22176 latency=12588 flit_hops=1161 credit_stalls=0 busy=2861f5362a8c5dc5
Mesh2D { cols: 4 }/8 buf=1 UniformRandom express=true: delivered=34 events=35511 last=48135 latency=367955 flit_hops=13287 credit_stalls=15836 busy=c44614030352e0e5
Mesh2D { cols: 4 }/8 buf=1 UniformRandom express=false: delivered=34 events=35509 last=48135 latency=367955 flit_hops=13287 credit_stalls=15836 busy=c44614030352e0e5
Mesh2D { cols: 4 }/8 buf=1 Hotspot express=true: delivered=2 events=2844 last=29083 latency=9484 flit_hops=1032 credit_stalls=768 busy=4ad42dfc2b0c5f85
Mesh2D { cols: 4 }/8 buf=1 Hotspot express=false: delivered=2 events=2840 last=29083 latency=9484 flit_hops=1032 credit_stalls=768 busy=4ad42dfc2b0c5f85
Mesh2D { cols: 4 }/8 buf=4 UniformRandom express=true: delivered=51 events=46106 last=65231 latency=701894 flit_hops=17544 credit_stalls=9753 busy=d4af4ea4be140305
Mesh2D { cols: 4 }/8 buf=4 UniformRandom express=false: delivered=51 events=46104 last=65231 latency=701894 flit_hops=17544 credit_stalls=9753 busy=d4af4ea4be140305
Mesh2D { cols: 4 }/8 buf=4 Hotspot express=true: delivered=11 events=11752 last=53027 latency=179250 flit_hops=4386 credit_stalls=2699 busy=e1d06b542e719845
Mesh2D { cols: 4 }/8 buf=4 Hotspot express=false: delivered=11 events=11750 last=53027 latency=179250 flit_hops=4386 credit_stalls=2699 busy=e1d06b542e719845
";

/// The network's own latency and hop means, as `noc` prints them, under
/// uniform near-saturating traffic with the express path on and off.
#[test]
fn mean_latency_and_hops_are_pinned() {
    let mut lines = Vec::new();
    let kinds = [
        (TopologyKind::Mesh1D, 201),
        (TopologyKind::Ring, 202),
        (TopologyKind::Crossbar, 203),
    ];
    for (kind, seed) in kinds {
        for express in [true, false] {
            let config = NocConfig::new(kind, 8).with_express(express);
            let rate = near_saturation_mbps(kind, 8, Pattern::UniformRandom) * 1_000_000;
            let span = SimSpan::from_us(50);
            let mut rng = Rng::new(seed);
            let packets = schedule(8, Pattern::UniformRandom, rate, 4096, span, &mut rng);
            let mut net = Network::new(config);
            drive_counted(&mut net, packets);
            let s = net.stats();
            lines.push(format!(
                "{kind:?} express={express}: delivered={} mean_latency={} mean_hops={:.6}",
                s.delivered,
                s.mean_latency().as_ns(),
                s.mean_hops()
            ));
        }
    }
    assert_eq!(lines.join("\n"), MEANS_GOLDEN.trim());
}

const MEANS_GOLDEN: &str = "
Mesh1D express=true: delivered=46 mean_latency=24878 mean_hops=3.021739
Mesh1D express=false: delivered=46 mean_latency=24878 mean_hops=3.021739
Ring express=true: delivered=75 mean_latency=38681 mean_hops=2.373333
Ring express=false: delivered=75 mean_latency=38681 mean_hops=2.373333
Crossbar express=true: delivered=82 mean_latency=20035 mean_hops=2.000000
Crossbar express=false: delivered=82 mean_latency=20035 mean_hops=2.000000
";
