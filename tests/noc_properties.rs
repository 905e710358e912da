//! Property tests of the fNoC on the kernel's seeded [`check`] harness:
//! exactly-once delivery, flow ordering, and conservation under
//! arbitrary loads and topologies.

use dssd::kernel::{check, Rng, SimSpan, SimTime};
use dssd::noc::traffic::{schedule, Pattern};
use dssd::noc::{drive, Network, NocConfig, Packet, TopologyKind};

const KINDS: [TopologyKind; 3] = [
    TopologyKind::Mesh1D,
    TopologyKind::Ring,
    TopologyKind::Crossbar,
];

fn any_kind(rng: &mut Rng) -> TopologyKind {
    KINDS[rng.index(KINDS.len())]
}

/// Every injected packet is delivered exactly once to its destination,
/// regardless of topology, buffer depth, and injection pattern.
#[test]
fn exactly_once_delivery() {
    check(48, 0x0E1C_0000, |rng| {
        let kind = any_kind(rng);
        let terminals = 2 + rng.index(8);
        let buffer = 1 + rng.index(7);
        let injected: Vec<(SimTime, Packet)> = (0..1 + rng.index(119))
            .map(|id| {
                let at = SimTime::from_ns(rng.range_u64(0..500_000));
                let (src, dst) = (rng.index(terminals), rng.index(terminals));
                (
                    at,
                    Packet::new(id as u64, src, dst, rng.range_u64(1..16_384)),
                )
            })
            .collect();
        let config = NocConfig::new(kind, terminals).with_input_buffer_flits(buffer);
        let mut net = Network::new(config);
        let mut want: Vec<(u64, usize)> = injected.iter().map(|(_, p)| (p.id, p.dst)).collect();
        let delivered = drive(&mut net, injected);
        let mut got: Vec<(u64, usize)> = delivered
            .iter()
            .map(|d| (d.packet.id, d.packet.dst))
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        let what = format!("{kind:?}, {terminals} terminals, {buffer}-flit buffers");
        if !net.is_idle() {
            return Err(format!("{what}: flits left in the network"));
        }
        if got != want {
            return Err(format!("{what}: lost, duplicated or misrouted packets"));
        }
        Ok(())
    });
}

/// Packets of one (src, dst) flow are delivered in injection order
/// (wormhole + deterministic routing never reorders a flow).
#[test]
fn per_flow_ordering() {
    check(48, 0xF10E_0000, |rng| {
        let kind = any_kind(rng);
        let n = 2 + rng.index(28) as u64;
        let mut net = Network::new(NocConfig::new(kind, 6));
        let injected: Vec<(SimTime, Packet)> = (0..n)
            .map(|i| (SimTime::from_ns(i), Packet::new(i, 1, 4, 4096)))
            .collect();
        let ids: Vec<u64> = drive(&mut net, injected)
            .iter()
            .map(|d| d.packet.id)
            .collect();
        if ids == (0..n).collect::<Vec<_>>() {
            Ok(())
        } else {
            Err(format!("{kind:?}: flow delivered as {ids:?}"))
        }
    });
}

/// Hop counts of delivered packets match the topology's minimal routes.
#[test]
fn hops_are_minimal() {
    check(48, 0x0405_0000, |rng| {
        let kind = any_kind(rng);
        let (src, dst) = (rng.index(8), rng.index(8));
        let mut net = Network::new(NocConfig::new(kind, 8));
        let delivered = drive(
            &mut net,
            vec![(SimTime::ZERO, Packet::new(0, src, dst, 4096))],
        );
        let hops: Vec<usize> = delivered.iter().map(|d| d.hops as usize).collect();
        if hops == [net.topology().hops(src, dst)] {
            Ok(())
        } else {
            Err(format!(
                "{kind:?} {src}->{dst}: delivered with hops {hops:?}"
            ))
        }
    });
}

#[test]
fn sustained_saturation_drains_on_every_topology() {
    for kind in KINDS {
        let config = NocConfig::new(kind, 8)
            .with_input_buffer_flits(2)
            .with_bisection_bandwidth(500_000_000);
        let mut rng = Rng::new(99);
        let packets = schedule(
            8,
            Pattern::Tornado,
            400_000_000,
            4096,
            SimSpan::from_ms(2),
            &mut rng,
        );
        let n = packets.len();
        let mut net = Network::new(config);
        let delivered = drive(&mut net, packets);
        assert_eq!(delivered.len(), n, "{kind:?} dropped under saturation");
        assert!(net.is_idle(), "{kind:?} failed to drain");
    }
}
