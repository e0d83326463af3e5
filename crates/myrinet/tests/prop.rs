//! Property tests: the network timing model's ordering guarantees — the
//! foundations the paper's flush protocol stands on.

use myrinet::network::Network;
use myrinet::topology::{FatTreeShape, Topology};
use proptest::prelude::*;
use sim_core::time::SimTime;

proptest! {
    /// Per-route FIFO: packets injected on the same (src, dst) route in
    /// nondecreasing time order arrive strictly in order, regardless of
    /// interleaved traffic elsewhere.
    #[test]
    fn per_route_fifo(
        hosts in 2usize..12,
        pkts in proptest::collection::vec((0u64..1000, 1u64..4000, 0usize..12, 0usize..12), 1..120),
    ) {
        let mut net = Network::new(Topology::single_switch(hosts));
        let mut t = SimTime::ZERO;
        let mut per_route: std::collections::BTreeMap<(usize, usize), Vec<SimTime>> =
            Default::default();
        for (dt, bytes, s, d) in pkts {
            let src = s % hosts;
            let dst = d % hosts;
            if src == dst {
                continue;
            }
            t = SimTime(t.raw() + dt);
            let tx = net.transmit(t, src, dst, bytes);
            prop_assert!(tx.injection_done >= t);
            prop_assert!(tx.arrival > tx.injection_done);
            per_route.entry((src, dst)).or_default().push(tx.arrival);
        }
        for (route, arrivals) in per_route {
            for w in arrivals.windows(2) {
                prop_assert!(w[0] < w[1], "route {route:?} reordered");
            }
        }
    }

    /// Halt-after-data: a control packet injected after the last data
    /// packet on a route arrives after every one of them.
    #[test]
    fn halt_after_data(
        hosts in 2usize..8,
        data in proptest::collection::vec((0u64..500, 64u64..1561), 1..60),
    ) {
        let mut net = Network::new(Topology::single_switch(hosts));
        let mut t = SimTime::ZERO;
        let mut last_arrival = SimTime::ZERO;
        let mut last_injection = SimTime::ZERO;
        for (dt, bytes) in data {
            t = SimTime(t.raw() + dt);
            let tx = net.transmit(t, 0, 1, bytes);
            last_arrival = last_arrival.max(tx.arrival);
            last_injection = tx.injection_done;
        }
        let halt = net.transmit(last_injection, 0, 1, 16);
        prop_assert!(halt.arrival > last_arrival);
    }

    /// Conservation: every transmitted packet's bytes are accounted on
    /// exactly the links of its route, all of them in the host tier.
    #[test]
    fn tier_totals_conserve_bytes(
        pkts in proptest::collection::vec((1u64..3000, 0usize..6, 0usize..6), 1..80),
    ) {
        let hosts = 6;
        let mut net = Network::new(Topology::single_switch(hosts));
        let mut total = 0u64;
        let mut n = 0u64;
        for (bytes, s, d) in pkts {
            if s == d {
                continue;
            }
            net.transmit(SimTime(n * 10_000), s, d, bytes);
            total += bytes;
            n += 1;
        }
        let t = net.tier_traffic();
        // Single-switch routes are exactly two host links.
        prop_assert_eq!(t.bytes, [2 * total, 0, 0]);
        prop_assert_eq!(t.packets, [2 * n, 0, 0]);
        prop_assert_eq!(net.total_packets(), n);
    }

    /// Multi-switch routes preserve FIFO across a shared uplink too.
    #[test]
    fn uplink_fifo(bytes in proptest::collection::vec(64u64..1561, 1..40)) {
        // Two edge switches of four hosts joined by one aggregation
        // switch: each edge's single uplink is the shared trunk.
        let mut net = Network::new(Topology::fat_tree(FatTreeShape {
            pods: 1,
            edges_per_pod: 2,
            hosts_per_edge: 4,
            aggs_per_pod: 1,
            spines: 0,
        }));
        let mut t = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for b in bytes {
            // Host 0 → host 7 crosses the uplink (4 hops).
            let tx = net.transmit(t, 0, 7, b);
            prop_assert!(tx.arrival > prev);
            prev = tx.arrival;
            t = tx.injection_done;
        }
    }
}
