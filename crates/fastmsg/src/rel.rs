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
//!
//! Every table is indexed by the peer's rank in the job and allocated at
//! the first packet that writes it (see [`peers`]).

use crate::packet::Packet;
use crate::peers;
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
    /// Ranks in the job: the length of every table below.
    ranks: usize,
    /// `ring[dst_rank]` — sent-but-unacked fragment clones, in sequence
    /// order. Bounded in practice by the credit window: a sender cannot
    /// have more than `C0` unacked packets toward one peer.
    ring: Vec<VecDeque<Packet>>,
    /// `acked[dst_rank]` — cumulative ack received for that stream (the
    /// next sequence number the peer expects from us).
    acked: Vec<u64>,
    /// `consumed_total[peer_rank]` — lifetime in-order packets consumed
    /// from that peer; the value every outgoing packet carries in
    /// `credits_total`.
    consumed_total: Vec<u64>,
    /// `credited[peer_rank]` — how much of that peer's cumulative credit
    /// return we have already applied to our send window.
    credited: Vec<u64>,
    /// Counters.
    pub stats: RelStats,
}

impl GoBackN {
    /// Fresh state for a process of a job with `ranks` ranks. Allocates
    /// no table until traffic writes one.
    pub fn new(ranks: usize) -> Self {
        GoBackN {
            ranks,
            ring: Vec::new(),
            acked: Vec::new(),
            consumed_total: Vec::new(),
            credited: Vec::new(),
            stats: RelStats::default(),
        }
    }

    /// Remember an injected fragment until its ack arrives.
    pub fn track(&mut self, pkt: &Packet) {
        let ring = peers::entry(&mut self.ring, pkt.dst_rank, self.ranks, VecDeque::new());
        debug_assert!(
            ring.back().is_none_or(|p| p.seq + 1 == pkt.seq),
            "retransmit ring must stay in sequence order"
        );
        ring.push_back(pkt.clone());
    }

    /// Apply a cumulative ack for the stream toward `dst_rank`: drop every
    /// ring entry the ack covers. Returns how many packets were released.
    pub fn on_ack(&mut self, dst_rank: usize, ack: u64) -> usize {
        if ack <= peers::get(&self.acked, dst_rank, self.ranks, 0) {
            return 0; // stale or duplicate ack — cumulative, so a no-op
        }
        *peers::entry(&mut self.acked, dst_rank, self.ranks, 0) = ack;
        let Some(ring) = self.ring.get_mut(dst_rank) else {
            return 0; // nothing was ever sent to any peer
        };
        let mut released = 0;
        while ring.front().is_some_and(|p| p.seq < ack) {
            ring.pop_front();
            released += 1;
        }
        released
    }

    /// Apply a cumulative credit return from rank `peer`. Returns the
    /// fresh (positive) delta to hand to
    /// [`FlowControl::refill`](crate::flow::FlowControl::refill); stale or
    /// repeated values yield zero.
    pub fn credit_delta(&mut self, peer: usize, credits_total: u64) -> usize {
        let applied = peers::get(&self.credited, peer, self.ranks, 0);
        if credits_total <= applied {
            return 0;
        }
        *peers::entry(&mut self.credited, peer, self.ranks, 0) = credits_total;
        (credits_total - applied) as usize
    }

    /// Advance the lifetime consumed tally for rank `peer` by `units` and
    /// return the new total. Demand windows use this to make a window move
    /// loss-proof: a withheld credit adds 0 units (the sender's cumulative
    /// view never sees it), a grant adds extra units on top of the
    /// consume's own — either way the tally stays monotone, so duplicated
    /// or retransmitted refills remain harmless.
    pub fn add_consumed(&mut self, peer: usize, units: u64) -> u64 {
        let total = peers::entry(&mut self.consumed_total, peer, self.ranks, 0);
        *total += units;
        *total
    }

    /// Lifetime consumed count toward rank `peer` (what outgoing packets
    /// carry in `credits_total`).
    pub fn consumed_total(&self, peer: usize) -> u64 {
        peers::get(&self.consumed_total, peer, self.ranks, 0)
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
        let mut g = GoBackN::new(2);
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
        let mut g = GoBackN::new(2);
        assert_eq!(g.credit_delta(1, 5), 5);
        // A retransmitted stale value or duplicated refill changes nothing.
        assert_eq!(g.credit_delta(1, 5), 0);
        assert_eq!(g.credit_delta(1, 3), 0);
        assert_eq!(g.credit_delta(1, 7), 2);
    }

    #[test]
    fn window_packets_caps_and_orders() {
        let mut g = GoBackN::new(2);
        for s in 0..5 {
            g.track(&pkt(1, s));
        }
        let w = g.window_packets(3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(g.window_packets(100).len(), 5);
    }
}
