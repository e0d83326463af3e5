//! Link-level timing: when does an injected packet reach its destination?
//!
//! The model is store-and-forward over the fixed source route with
//! per-link FIFO serialization: each link has a `next_free` horizon; a
//! packet occupies each link on its route for `bytes / MYRINET_BW` and
//! incurs the per-hop latency `HOP_LATENCY_CYCLES`. Two properties the
//! protocols rely on are guaranteed by construction:
//!
//! 1. **Per-route FIFO** — packets injected on the same (src, dst) route in
//!    time order arrive in order (each shared link serializes them in
//!    arrival order, and routes are fixed).
//! 2. **Halt-after-data** — a control packet broadcast after the last data
//!    packet on a route arrives after it (special case of 1; paper §3.2).

use sim_core::time::{Cycles, SimTime};

use crate::topology::{HostId, Topology, HOP_LATENCY_CYCLES, MYRINET_BW};

/// Per-fabric-tier link totals (edge, aggregation, spine): a packet
/// counts once on every link it crosses. The single crossbar
/// ([`Topology::single_switch`]) has host links only, so its `Agg` and
/// `Spine` rows are always zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierTraffic {
    /// Packets carried per tier, indexed like
    /// [`LinkTier`](crate::topology::LinkTier).
    pub packets: [u64; 3],
    /// Payload + header bytes carried per tier.
    pub bytes: [u64; 3],
}

/// Outcome of injecting one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmit {
    /// When the source NIC finishes streaming the packet onto its first
    /// link (the NIC's send engine is busy until then).
    pub injection_done: SimTime,
    /// When the last byte reaches the destination NIC.
    pub arrival: SimTime,
}

/// Dynamic network state over a static [`Topology`].
#[derive(Debug, Clone)]
pub struct Network {
    topo: Topology,
    next_free: Vec<SimTime>,
    tiers: TierTraffic,
    total_packets: u64,
}

impl Network {
    /// Wrap a topology with idle links.
    pub fn new(topo: Topology) -> Self {
        let n = topo.links().len();
        Network {
            topo,
            next_free: vec![SimTime::ZERO; n],
            tiers: TierTraffic::default(),
            total_packets: 0,
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of hosts on the network.
    pub fn hosts(&self) -> usize {
        self.topo.hosts()
    }

    /// Inject `bytes` from `src` to `dst` at instant `now`.
    ///
    /// Returns when the source link injection completes and when the packet
    /// fully arrives. Panics if `src == dst` (the NIC never loops traffic
    /// back through the switch).
    pub fn transmit(&mut self, now: SimTime, src: HostId, dst: HostId, bytes: u64) -> Transmit {
        assert_ne!(src, dst, "self-transmit is not a network operation");
        let route = self.topo.route(src, dst);
        debug_assert!(!route.is_empty());
        // Every link runs at the same rate, so one packet occupies each
        // hop for the same time.
        let tx_time = Cycles::for_bytes_at(bytes, MYRINET_BW);
        let mut ready = now; // when the packet is fully at this stage
        let mut injection_done = now;
        for (i, lid) in route.iter().copied().enumerate() {
            let end = ready.max(self.next_free[lid]) + tx_time;
            self.next_free[lid] = end;
            if i == 0 {
                injection_done = end;
            }
            // Store-and-forward: the next stage sees the packet after the
            // full transmission plus the propagation latency.
            ready = end + Cycles(HOP_LATENCY_CYCLES);
        }
        // Routes are up-down: a route of L links climbs the first L/2
        // tiers and comes back down, crossing each of them twice.
        for tier in 0..route.len() / 2 {
            self.tiers.packets[tier] += 2;
            self.tiers.bytes[tier] += 2 * bytes;
        }
        self.total_packets += 1;
        Transmit {
            injection_done,
            arrival: ready,
        }
    }

    /// Packets and bytes carried so far, per fabric tier.
    pub fn tier_traffic(&self) -> TierTraffic {
        self.tiers
    }

    /// Total packets transmitted since construction.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{FatTreeShape, Topology};

    fn net(n: usize) -> Network {
        Network::new(Topology::single_switch(n))
    }

    #[test]
    fn uncontended_packet_timing() {
        let mut n = net(4);
        // 1600 bytes at 160 MB/s = 10 us = 2000 cycles per link.
        let t = n.transmit(SimTime::ZERO, 0, 1, 1600);
        assert_eq!(t.injection_done, SimTime(2000));
        // two links + two hop latencies
        assert_eq!(t.arrival, SimTime(2 * 2000 + 2 * 100));
    }

    #[test]
    fn per_route_fifo_is_preserved() {
        let mut n = net(4);
        let a = n.transmit(SimTime::ZERO, 0, 1, 1560);
        let b = n.transmit(SimTime(1), 0, 1, 64);
        let c = n.transmit(SimTime(2), 0, 1, 9000);
        assert!(a.arrival < b.arrival, "{a:?} {b:?}");
        assert!(b.arrival < c.arrival);
    }

    #[test]
    fn source_link_serializes_back_to_back_sends() {
        let mut n = net(4);
        let a = n.transmit(SimTime::ZERO, 0, 1, 1600);
        let b = n.transmit(SimTime::ZERO, 0, 2, 1600);
        // Same source link: second injection starts only after the first.
        assert_eq!(b.injection_done.raw(), a.injection_done.raw() + 2000);
    }

    #[test]
    fn destination_link_contention_delays_arrival() {
        let mut n = net(4);
        let a = n.transmit(SimTime::ZERO, 0, 2, 1600);
        let b = n.transmit(SimTime::ZERO, 1, 2, 1600);
        // Both occupy the switch->host2 link; one must wait.
        assert_ne!(a.arrival, b.arrival);
        let (first, second) = if a.arrival < b.arrival {
            (a, b)
        } else {
            (b, a)
        };
        assert!(second.arrival.raw() >= first.arrival.raw() + 2000 - 100);
    }

    #[test]
    fn halt_after_data_property() {
        // A tiny control packet injected after a large data packet on the
        // same route must arrive later.
        let mut n = net(4);
        let data = n.transmit(SimTime::ZERO, 0, 1, 65536);
        let halt = n.transmit(data.injection_done, 0, 1, 16);
        assert!(halt.arrival > data.arrival);
    }

    #[test]
    fn tier_totals_accumulate() {
        let mut n = net(2);
        n.transmit(SimTime::ZERO, 0, 1, 1000);
        n.transmit(SimTime(10_000), 0, 1, 1000);
        // 2 packets x 2 host links; a crossbar has no upper tiers.
        let t = n.tier_traffic();
        assert_eq!(t.packets, [4, 0, 0]);
        assert_eq!(t.bytes, [4000, 0, 0]);
        assert_eq!(n.total_packets(), 2);
    }

    #[test]
    fn tier_totals_match_a_link_tier_fold_over_every_route() {
        let topo = Topology::fat_tree(FatTreeShape::for_hosts(64));
        let mut n = Network::new(topo.clone());
        let mut expect = TierTraffic::default();
        for src in 0..64 {
            for dst in (0..64).filter(|&d| d != src) {
                let bytes = 16 + (src * 64 + dst) as u64;
                n.transmit(SimTime::ZERO, src, dst, bytes);
                for &lid in topo.route(src, dst).iter() {
                    let tier = topo.link_tier(lid) as usize;
                    expect.packets[tier] += 1;
                    expect.bytes[tier] += bytes;
                }
            }
        }
        assert!(expect.packets.iter().all(|&p| p > 0), "{expect:?}");
        assert_eq!(n.tier_traffic(), expect);
    }

    #[test]
    fn throughput_approaches_link_bandwidth() {
        // Saturating a route with back-to-back full packets should carry
        // ~160 MB/s.
        let mut n = net(2);
        let mut t = SimTime::ZERO;
        let pkts = 1000u64;
        for _ in 0..pkts {
            t = n.transmit(t, 0, 1, 1560).injection_done;
        }
        let secs = t.as_secs();
        let mbps = pkts as f64 * 1560.0 / 1e6 / secs;
        assert!((mbps - 160.0).abs() < 2.0, "{mbps}");
    }

    #[test]
    #[should_panic(expected = "self-transmit")]
    fn self_transmit_panics() {
        net(2).transmit(SimTime::ZERO, 1, 1, 10);
    }
}
