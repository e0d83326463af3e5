//! Serial-loop broadcast.
//!
//! Myrinet hardware has no broadcast, so the LANai control program emulates
//! it "by a serial loop" (paper §3.2): one control packet per peer, sent
//! back-to-back from the same NIC. The source link serializes them, so the
//! k-th peer hears the message k packet-times later — this is why the halt
//! and release phases grow with the number of nodes (paper Figs. 7/9).

use sim_core::time::SimTime;

use crate::network::{Network, Transmit};
use crate::topology::HostId;

/// Wire size of a specially-tagged control packet (halt/ready). These are
/// "just counted", never buffered, and consume no credits (paper §3.2).
pub const CONTROL_PACKET_BYTES: u64 = 16;

/// Send one control packet from `src` to every other host, back-to-back in
/// destination order starting after `src` (deterministic serial loop).
///
/// Fills `out` (cleared first) with `(dst, transmit)` per peer, in emission
/// order; the caller owns the buffer, so a broadcast allocates nothing once
/// it has grown to `hosts - 1` entries.
pub fn serial_broadcast(
    net: &mut Network,
    now: SimTime,
    src: HostId,
    bytes: u64,
    out: &mut Vec<(HostId, Transmit)>,
) {
    let n = net.hosts();
    out.clear();
    let mut t = now;
    for off in 1..n {
        let dst = (src + off) % n;
        let tx = net.transmit(t, src, dst, bytes);
        t = tx.injection_done;
        out.push((dst, tx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    fn broadcast(net: &mut Network, src: HostId) -> Vec<(HostId, Transmit)> {
        let mut out = Vec::new();
        serial_broadcast(net, SimTime::ZERO, src, CONTROL_PACKET_BYTES, &mut out);
        out
    }

    #[test]
    fn broadcast_reaches_every_peer_once() {
        let mut net = Network::new(Topology::single_switch(8));
        let res = broadcast(&mut net, 3);
        assert_eq!(res.len(), 7);
        let mut dsts: Vec<_> = res.iter().map(|(d, _)| *d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 1, 2, 4, 5, 6, 7]);
        // A reused buffer holds only the latest broadcast.
        let mut out = res;
        serial_broadcast(&mut net, SimTime::ZERO, 0, CONTROL_PACKET_BYTES, &mut out);
        assert_eq!(out.len(), 7);
        assert_eq!(out[0].0, 1);
    }

    #[test]
    fn broadcast_is_serialized_at_the_source() {
        let mut net = Network::new(Topology::single_switch(16));
        let res = broadcast(&mut net, 0);
        for w in res.windows(2) {
            assert!(w[1].1.injection_done > w[0].1.injection_done);
            assert!(w[1].1.arrival > w[0].1.arrival);
        }
        // Completion time grows linearly with cluster size.
        let t16 = res.last().unwrap().1.arrival;
        let mut net4 = Network::new(Topology::single_switch(4));
        let res4 = broadcast(&mut net4, 0);
        let t4 = res4.last().unwrap().1.arrival;
        assert!(t16 > t4);
    }

    #[test]
    fn two_host_cluster_broadcasts_to_one_peer() {
        let mut net = Network::new(Topology::single_switch(2));
        let res = broadcast(&mut net, 1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, 0);
    }
}
