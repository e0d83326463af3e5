//! Link-level timing: when does an injected packet reach its destination?
//!
//! The model is store-and-forward over the precomputed source route with
//! per-link FIFO serialization: each link has a `next_free` horizon; a
//! packet occupies each link on its route for `bytes / bandwidth` and incurs
//! the link's propagation latency. Two properties the protocols rely on are
//! guaranteed by construction:
//!
//! 1. **Per-route FIFO** — packets injected on the same (src, dst) route in
//!    time order arrive in order (each shared link serializes them in
//!    arrival order, and routes are fixed).
//! 2. **Halt-after-data** — a control packet broadcast after the last data
//!    packet on a route arrives after it (special case of 1; paper §3.2).

use sim_core::stats::Summary;
use sim_core::time::{Cycles, SimTime};

use crate::topology::{HostId, Topology};

/// Per-link running counters.
#[derive(Debug, Clone, Default)]
pub struct LinkStats {
    /// Packets carried.
    pub packets: u64,
    /// Payload + header bytes carried.
    pub bytes: u64,
    /// Cycles the link spent transmitting.
    pub busy_cycles: u64,
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
    stats: Vec<LinkStats>,
    total_packets: u64,
}

impl Network {
    /// Wrap a topology with idle links.
    pub fn new(topo: Topology) -> Self {
        let n = topo.links().len();
        Network {
            topo,
            next_free: vec![SimTime::ZERO; n],
            stats: vec![LinkStats::default(); n],
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
        // Split borrow: the route is a slice into the (immutable) topology
        // while next_free/stats update per link — no per-packet Vec.
        let Network {
            topo,
            next_free,
            stats,
            total_packets,
        } = self;
        let route = topo.route(src, dst);
        debug_assert!(!route.is_empty());
        let cut_through = topo.cut_through;
        let mut ready = now; // when the head of the packet is at this stage
        let mut injection_done = now;
        let mut tail_arrival = now;
        for (i, lid) in route.iter().copied().enumerate() {
            let link = &topo.links()[lid];
            let tx_time = Cycles::for_bytes_at(bytes, link.bandwidth);
            let start = ready.max(next_free[lid]);
            let end = start + tx_time;
            next_free[lid] = end;
            let st = &mut stats[lid];
            st.packets += 1;
            st.bytes += bytes;
            st.busy_cycles += tx_time.raw();
            if i == 0 {
                injection_done = end;
            }
            if cut_through {
                // Wormhole: the head flows on after the routing latency;
                // the tail arrives a full transmission after the head
                // entered this link.
                ready = start + Cycles(link.latency_cycles);
                tail_arrival = end + Cycles(link.latency_cycles);
            } else {
                // Store-and-forward: the next stage sees the packet after
                // the full transmission plus the propagation latency.
                ready = end + Cycles(link.latency_cycles);
                tail_arrival = ready;
            }
        }
        *total_packets += 1;
        Transmit {
            injection_done,
            arrival: tail_arrival,
        }
    }

    /// Per-link statistics, indexed like [`Topology::links`].
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.stats
    }

    /// Total packets transmitted since construction.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Mean/max utilization of all links over `[0, now]`, for reports.
    pub fn utilization_summary(&self, now: SimTime) -> Summary {
        let mut s = Summary::new();
        let span = now.raw().max(1) as f64;
        for st in &self.stats {
            s.record(st.busy_cycles as f64 / span);
        }
        s
    }

    /// Reset link availability and statistics (topology is preserved).
    pub fn reset(&mut self) {
        for t in &mut self.next_free {
            *t = SimTime::ZERO;
        }
        for s in &mut self.stats {
            *s = LinkStats::default();
        }
        self.total_packets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

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
    fn link_stats_accumulate() {
        let mut n = net(2);
        n.transmit(SimTime::ZERO, 0, 1, 1000);
        n.transmit(SimTime(10_000), 0, 1, 1000);
        let total_bytes: u64 = n.link_stats().iter().map(|s| s.bytes).sum();
        assert_eq!(total_bytes, 4000); // 2 packets x 2 links
        assert_eq!(n.total_packets(), 2);
        n.reset();
        assert_eq!(n.total_packets(), 0);
        assert!(n.link_stats().iter().all(|s| s.packets == 0));
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

#[cfg(test)]
mod cut_through_tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn cut_through_beats_store_and_forward() {
        let mut sf = Network::new(Topology::single_switch(4));
        let mut ct = Network::new(Topology::single_switch_cut_through(4));
        let a = sf.transmit(SimTime::ZERO, 0, 1, 1560);
        let b = ct.transmit(SimTime::ZERO, 0, 1, 1560);
        assert!(b.arrival < a.arrival, "{b:?} vs {a:?}");
        // One full transmission is pipelined away on the 2-hop route.
        let saving = a.arrival.raw() - b.arrival.raw();
        assert!(saving >= 1900, "saving {saving}");
        // Injection time is identical: the source link is the same.
        assert_eq!(a.injection_done, b.injection_done);
    }

    #[test]
    fn cut_through_preserves_per_route_fifo() {
        let mut net = Network::new(Topology::single_switch_cut_through(4));
        let mut t = SimTime::ZERO;
        let mut prev = SimTime::ZERO;
        for bytes in [1560u64, 64, 1560, 16, 800] {
            let tx = net.transmit(t, 0, 1, bytes);
            assert!(tx.arrival > prev, "reordered at {bytes}B");
            prev = tx.arrival;
            t = tx.injection_done;
        }
    }

    #[test]
    fn halt_after_data_holds_under_cut_through() {
        let mut net = Network::new(Topology::single_switch_cut_through(4));
        let data = net.transmit(SimTime::ZERO, 0, 1, 65536);
        let halt = net.transmit(data.injection_done, 0, 1, 16);
        assert!(halt.arrival > data.arrival);
    }
}
