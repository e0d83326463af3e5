//! Go-back-N reliability layer (opt-in; not part of the paper's FM).
//!
//! FM has no retransmission: §2.2 warns that "a single packet loss can
//! mess up the credit counters and the entire flow control algorithm".
//! This module is the counterfactual — the minimal sliding-window layer a
//! lossy SAN would force onto FM's credit scheme:
//!
//! * **Sender**: every data fragment is cloned into a per-stream
//!   retransmit ring when injected, and dropped from it when a cumulative
//!   ack covering its sequence number comes back. A timeout with no ack
//!   progress re-pushes the whole ring (go-back-N).
//! * **Acks** are cumulative in-order receive counts and ride *every*
//!   packet — data fragments and credit refills alike — in
//!   [`Packet::ack`](crate::packet::Packet), so no extra wire traffic
//!   exists at zero loss.
//! * **Credits** become cumulative too: instead of fragile deltas, every
//!   packet carries the sender's lifetime consumed-count toward its
//!   receiver ([`Packet::credits_total`](crate::packet::Packet)). The
//!   receiver applies the positive delta against its own tally, which
//!   makes lost, duplicated, and retransmitted-stale refills all
//!   harmless — the exact failure §2.2 describes becomes self-healing.
//! * **Receiver**: in-order packets are delivered; a sequence gap or a
//!   duplicate is discarded undelivered. A duplicate additionally forces
//!   an ack-bearing refill home (a "dup-ack"), healing the case where the
//!   final refill of a stream was the packet that got lost.

use crate::packet::Packet;
use std::collections::VecDeque;

/// Counters for the reliability layer of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelStats {
    /// Packets re-pushed into the send queue by a timeout.
    pub retransmits: u64,
    /// Packets discarded by the receiver (sequence gap or duplicate).
    pub discards: u64,
    /// Duplicate data packets that triggered an ack-bearing refill.
    pub dup_acks: u64,
}

/// Per-process go-back-N state: retransmit rings, cumulative ack and
/// credit tallies.
#[derive(Debug, Clone)]
pub struct GoBackN {
    /// `ring[dst_rank]` — sent-but-unacked fragment clones, in sequence
    /// order. Bounded in practice by the credit window: a sender cannot
    /// have more than `C0` unacked packets toward one host.
    ring: Vec<VecDeque<Packet>>,
    /// `acked[dst_rank]` — cumulative ack received for that stream (the
    /// next sequence number the peer expects from us).
    acked: Vec<u64>,
    /// `consumed_total[peer_host]` — lifetime in-order packets consumed
    /// from that host; the value every outgoing packet carries in
    /// `credits_total`.
    consumed_total: Vec<u64>,
    /// `credited[peer_host]` — how much of that host's cumulative credit
    /// return we have already applied to our send window.
    credited: Vec<u64>,
    /// Counters.
    pub stats: RelStats,
}

impl GoBackN {
    /// Fresh state for a process with `nprocs` peer ranks among `hosts`.
    pub fn new(nprocs: usize, hosts: usize) -> Self {
        GoBackN {
            ring: vec![VecDeque::new(); nprocs],
            acked: vec![0; nprocs],
            consumed_total: vec![0; hosts],
            credited: vec![0; hosts],
            stats: RelStats::default(),
        }
    }

    /// Remember an injected fragment until its ack arrives.
    pub fn track(&mut self, pkt: &Packet) {
        debug_assert!(
            self.ring[pkt.dst_rank]
                .back()
                .is_none_or(|p| p.seq + 1 == pkt.seq),
            "retransmit ring must stay in sequence order"
        );
        self.ring[pkt.dst_rank].push_back(pkt.clone());
    }

    /// Apply a cumulative ack for the stream toward `dst_rank`: drop every
    /// ring entry the ack covers. Returns how many packets were released.
    pub fn on_ack(&mut self, dst_rank: usize, ack: u64) -> usize {
        if ack <= self.acked[dst_rank] {
            return 0; // stale or duplicate ack — cumulative, so a no-op
        }
        self.acked[dst_rank] = ack;
        let ring = &mut self.ring[dst_rank];
        let mut released = 0;
        while ring.front().is_some_and(|p| p.seq < ack) {
            ring.pop_front();
            released += 1;
        }
        released
    }

    /// Apply a cumulative credit return from `peer_host`. Returns the
    /// fresh (positive) delta to hand to
    /// [`FlowControl::refill`](crate::flow::FlowControl::refill); stale or
    /// repeated values yield zero.
    pub fn credit_delta(&mut self, peer_host: usize, credits_total: u64) -> usize {
        let applied = &mut self.credited[peer_host];
        if credits_total <= *applied {
            return 0;
        }
        let delta = credits_total - *applied;
        *applied = credits_total;
        delta as usize
    }

    /// Advance the lifetime consumed tally for `peer_host` by `units` and
    /// return the new total. Demand windows use this to make a window move
    /// loss-proof: a withheld credit adds 0 units (the sender's cumulative
    /// view never sees it), a grant adds extra units on top of the
    /// consume's own — either way the tally stays monotone, so duplicated
    /// or retransmitted refills remain harmless.
    pub fn add_consumed(&mut self, peer_host: usize, units: u64) -> u64 {
        self.consumed_total[peer_host] += units;
        self.consumed_total[peer_host]
    }

    /// Lifetime consumed count toward `peer_host` (what outgoing packets
    /// carry in `credits_total`).
    pub fn consumed_total(&self, peer_host: usize) -> u64 {
        self.consumed_total[peer_host]
    }

    /// Total packets sent but not yet acked, across all streams.
    pub fn unacked(&self) -> u64 {
        self.ring.iter().map(|r| r.len() as u64).sum()
    }

    /// Sum of cumulative acks across streams — a monotone progress mark
    /// the retransmit timer compares across firings.
    pub fn acked_total(&self) -> u64 {
        self.acked.iter().sum()
    }

    /// Clone up to `max` unacked packets, oldest first across all streams,
    /// for re-injection. The clones' `ack`/`credits_total` fields are
    /// refreshed by the caller (see
    /// [`FmProcess::retransmit_packets`](crate::proc::FmProcess::retransmit_packets));
    /// sequence numbers stay as originally assigned.
    pub fn window_packets(&self, max: usize) -> Vec<Packet> {
        let mut out = Vec::new();
        for ring in &self.ring {
            for p in ring {
                if out.len() == max {
                    return out;
                }
                out.push(p.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketKind;

    fn pkt(dst_rank: usize, seq: u64) -> Packet {
        Packet {
            job: 1,
            src_host: 0,
            dst_host: 1,
            src_rank: 0,
            dst_rank,
            seq,
            payload: 100,
            last_fragment: false,
            kind: PacketKind::Data,
            piggyback_credits: 0,
            ack: 0,
            credits_total: 0,
        }
    }

    #[test]
    fn cumulative_ack_releases_prefix() {
        let mut g = GoBackN::new(2, 2);
        for s in 0..4 {
            g.track(&pkt(1, s));
        }
        assert_eq!(g.unacked(), 4);
        assert_eq!(g.on_ack(1, 3), 3);
        assert_eq!(g.unacked(), 1);
        // Stale and duplicate acks are no-ops.
        assert_eq!(g.on_ack(1, 3), 0);
        assert_eq!(g.on_ack(1, 1), 0);
        assert_eq!(g.on_ack(1, 4), 1);
        assert_eq!(g.unacked(), 0);
    }

    #[test]
    fn credit_deltas_are_idempotent() {
        let mut g = GoBackN::new(2, 2);
        assert_eq!(g.credit_delta(1, 5), 5);
        // A retransmitted stale value or duplicated refill changes nothing.
        assert_eq!(g.credit_delta(1, 5), 0);
        assert_eq!(g.credit_delta(1, 3), 0);
        assert_eq!(g.credit_delta(1, 7), 2);
    }

    #[test]
    fn window_packets_caps_and_orders() {
        let mut g = GoBackN::new(2, 2);
        for s in 0..5 {
            g.track(&pkt(1, s));
        }
        let w = g.window_packets(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(g.window_packets(100).len(), 5);
    }
}
