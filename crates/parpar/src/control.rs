//! The control network (paper §2.1): "a 10 MB switched Ethernet that
//! serves for control functions".
//!
//! The masterd reaches all nodeds with a single multicast (ParPar preloads
//! jobs over multicast too, [Kavas et al. 2001]); nodeds answer with
//! unicasts that serialize on the master's link. Delivery times are what
//! matter here — payloads travel inside the discrete events of the cluster
//! simulator.

use sim_core::time::{Cycles, SimTime};

/// How the masterd's fan-out (SwitchSlot) and fan-in (acks) traffic is
/// carried over the control Ethernet.
///
/// `Flat` is the paper's model and the digest-stable default. `Serial`
/// and `Tree` are the honest scalability pair the `scale_sweep` bench
/// compares: a serial unicast loop pays O(N) wire transmissions on the
/// master's single link, while the combining tree pays O(fanout) per hop
/// over O(log N) levels, each hop serializing on the forwarding node's
/// own link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ControlPlane {
    /// Legacy Ethernet multicast: one wire transmission reaches every
    /// node (ParPar preloads over multicast too). The default; all
    /// existing golden digests assume it.
    ///
    /// Optimistic at scale — a real 10 Mb/s segment cannot multicast to
    /// 4096 IP stacks for the price of one frame — which is exactly why
    /// the scalability sweep never uses it.
    #[default]
    Flat,
    /// Serial unicast loop: one wire transmission per node, all queued
    /// on the master's link. The honest O(N) broadcast baseline.
    Serial,
    /// k-ary combining tree over the nodes: commands descend parent →
    /// children and acks ascend as aggregated counts, O(log N) depth.
    Tree {
        /// Children per tree node (≥ 2).
        fanout: usize,
    },
}

/// One-way latency of a multicast from the master to every node (wire + IP
/// stack + daemon socket wakeup).
pub const MULTICAST_LATENCY: Cycles = Cycles::from_us(300);
/// One-way latency of a node→master unicast.
pub const UNICAST_LATENCY: Cycles = Cycles::from_us(300);
/// Wire serialization per control message (≈128 B at 10 Mb/s).
pub const PER_MSG_WIRE: Cycles = Cycles::from_us(100);

/// Timing model of the control Ethernet: the link-busy horizons that
/// serialize messages, priced with the constants above.
#[derive(Debug, Clone, Default)]
pub struct ControlNet {
    master_link_free: SimTime,
    /// Per-node Ethernet link horizons, grown on demand. Only the tree
    /// control plane sends node→node traffic; each forwarding node
    /// serializes its own sends on its own link, independent of the
    /// master's.
    node_link_free: Vec<SimTime>,
    /// Messages carried.
    pub messages: u64,
}

impl ControlNet {
    /// A control net with every link idle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Master multicasts one message at `now`; returns the delivery instant
    /// at every node (one wire transmission — the multicast property).
    pub fn multicast(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.master_link_free);
        let end = start + PER_MSG_WIRE;
        self.master_link_free = end;
        self.messages += 1;
        end + MULTICAST_LATENCY
    }

    /// A node unicasts one message to the master at `now`; returns delivery
    /// at the master. Node links are independent, but all unicasts share
    /// the master's receive link.
    pub fn unicast_to_master(&mut self, now: SimTime) -> SimTime {
        let start = now.max(self.master_link_free);
        let end = start + PER_MSG_WIRE;
        self.master_link_free = end;
        self.messages += 1;
        end + UNICAST_LATENCY
    }

    /// Master unicasts to a single node.
    pub fn unicast_to_node(&mut self, now: SimTime) -> SimTime {
        self.unicast_train(now, 1)
    }

    /// Master unicasts one message to each of `n` nodes at `now`, back to
    /// back on its link (the serial loop of a fan-out). Returns the first
    /// delivery; each later one lands [`PER_MSG_WIRE`] after the one
    /// before. The link and the message count end up as after `n` calls
    /// to [`ControlNet::unicast_to_node`].
    pub fn unicast_train(&mut self, now: SimTime, n: usize) -> SimTime {
        // Same shared-link discipline as the multicast.
        let start = now.max(self.master_link_free);
        self.master_link_free = start + PER_MSG_WIRE * n as u64;
        self.messages += n as u64;
        start + PER_MSG_WIRE + MULTICAST_LATENCY
    }

    /// Node `from` unicasts one message to another node at `now`;
    /// returns delivery at the peer. Serializes on the *sender's* link —
    /// this is what makes the combining tree's cost model honest: a
    /// node forwarding to `fanout` children pays `fanout` back-to-back
    /// wire transmissions on its own link, but different forwarders pay
    /// them concurrently.
    pub fn unicast_node_to_node(&mut self, now: SimTime, from: usize) -> SimTime {
        if self.node_link_free.len() <= from {
            self.node_link_free.resize(from + 1, SimTime::ZERO);
        }
        let start = now.max(self.node_link_free[from]);
        let end = start + PER_MSG_WIRE;
        self.node_link_free[from] = end;
        self.messages += 1;
        end + UNICAST_LATENCY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_is_one_transmission() {
        let mut c = ControlNet::new();
        let d = c.multicast(SimTime::ZERO);
        // 100 us wire + 300 us latency = 400 us = 80_000 cycles.
        assert_eq!(d, SimTime(80_000));
        assert_eq!(c.messages, 1);
    }

    #[test]
    fn master_link_serializes_messages() {
        let mut c = ControlNet::new();
        let d1 = c.multicast(SimTime::ZERO);
        let d2 = c.multicast(SimTime::ZERO);
        assert_eq!(d2.raw() - d1.raw(), PER_MSG_WIRE.raw());
        // Node replies queue behind too.
        let r = c.unicast_to_master(SimTime::ZERO);
        assert!(r > d2);
    }

    #[test]
    fn a_unicast_train_reserves_the_link_like_a_unicast_loop() {
        for (busy_until, now) in [(0, 0), (0, 5_000), (90_000, 5_000)] {
            let (mut lp, mut train) = (ControlNet::new(), ControlNet::new());
            lp.multicast(SimTime(busy_until));
            train.multicast(SimTime(busy_until));
            let times: Vec<SimTime> = (0..7).map(|_| lp.unicast_to_node(SimTime(now))).collect();
            let first = train.unicast_train(SimTime(now), 7);
            let spaced: Vec<SimTime> = (0..7).map(|i| first + PER_MSG_WIRE * i).collect();
            assert_eq!(spaced, times);
            assert_eq!(train.messages, lp.messages);
            // The next message queues behind the whole loop on both.
            assert_eq!(
                train.unicast_to_master(SimTime(now)),
                lp.unicast_to_master(SimTime(now))
            );
        }
    }

    #[test]
    fn node_links_serialize_independently() {
        let mut c = ControlNet::new();
        // Two different forwarders at the same instant: no shared queueing.
        let a = c.unicast_node_to_node(SimTime::ZERO, 3);
        let b = c.unicast_node_to_node(SimTime::ZERO, 7);
        assert_eq!(a, b, "distinct sender links must not queue on each other");
        // Same forwarder back-to-back: its own link serializes.
        let a2 = c.unicast_node_to_node(SimTime::ZERO, 3);
        assert_eq!(a2.raw() - a.raw(), PER_MSG_WIRE.raw());
        // Node traffic never touches the master's link.
        let m = c.multicast(SimTime::ZERO);
        assert_eq!(m, SimTime(80_000));
    }

    #[test]
    fn control_plane_default_is_flat() {
        assert_eq!(ControlPlane::default(), ControlPlane::Flat);
    }

    #[test]
    fn idle_link_adds_no_queueing() {
        let mut c = ControlNet::new();
        let d1 = c.unicast_to_master(SimTime::ZERO);
        let d2 = c.unicast_to_master(SimTime(10_000_000));
        assert_eq!(
            d2.raw() - 10_000_000,
            d1.raw(),
            "an idle link should impose only fixed costs"
        );
    }
}
