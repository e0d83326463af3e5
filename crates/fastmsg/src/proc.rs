//! Per-process FM library state (what lives in the process's own memory).
//!
//! This state — sequence counters, credit counters, placement table — pages
//! in and out with the process itself, so the buffer switch never touches
//! it; only the NIC send queue and the pinned receive queue need swapping
//! (paper Fig. 4).
//!
//! Every per-peer table is indexed by the peer's rank in the job and is
//! allocated at the process's first send or receive (see
//! [`peers`]); a packet names both ends by rank
//! (`src_rank`/`dst_rank`) and by host, and the job's placement maps one
//! to the other.

use std::rc::Rc;

use crate::flow::FlowControl;
use crate::packet::{fragment_payload, fragments_for, Packet, PacketKind};
use crate::peers;
use crate::rel::GoBackN;

/// Library operation counters for one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStats {
    /// Messages fully sent (all fragments injected).
    pub msgs_sent: u64,
    /// Data packets injected.
    pub packets_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Messages fully received (last fragment extracted).
    pub msgs_received: u64,
    /// Data packets extracted.
    pub packets_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

/// Result of extracting one packet from the receive queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extract {
    /// True if this packet completed a message.
    pub message_complete: bool,
    /// `Some((peer_rank, credits))` if a dedicated refill message is now
    /// due to `peer_rank`.
    pub refill_due: Option<(usize, usize)>,
    /// False when the reliability layer discarded the packet (sequence
    /// gap or duplicate) instead of delivering it to the handler. Always
    /// true without the reliability layer.
    pub delivered: bool,
}

/// The FM library instance inside one application process.
#[derive(Debug, Clone)]
pub struct FmProcess {
    /// Owning job.
    pub job: u32,
    /// This process's rank.
    pub rank: usize,
    /// Host this process runs on.
    pub host: usize,
    /// `placement[r]` = host of rank `r` in this job; one table shared by
    /// every process of the job.
    pub placement: Rc<[usize]>,
    /// Credit state toward each peer rank.
    pub flow: FlowControl,
    /// Next sequence number toward each peer rank (empty until the first
    /// send).
    send_seq: Vec<u64>,
    /// Next sequence number expected from each peer rank (empty until the
    /// first receive).
    recv_expect: Vec<u64>,
    /// Counters.
    pub stats: ProcStats,
    /// Tolerate sequence gaps (packets dropped at a context switch and
    /// recovered by a higher layer — the SHARE/PM baselines of paper §5).
    /// FM proper runs with this off: it has no retransmission.
    pub allow_loss: bool,
    /// Sequence gaps observed (only when `allow_loss`).
    pub gaps: u64,
    /// Opt-in go-back-N reliability layer (`None` = the paper's FM).
    pub rel: Option<GoBackN>,
}

impl FmProcess {
    /// Library state for rank `rank` of `job` placed per `placement`, with
    /// initial credit `c0` toward each peer rank. Allocates no per-peer
    /// table: those come with the first send or receive.
    pub fn new(job: u32, rank: usize, placement: Rc<[usize]>, c0: usize) -> Self {
        let host = placement[rank];
        FmProcess {
            job,
            rank,
            host,
            flow: FlowControl::new(rank, placement.len(), c0),
            placement,
            send_seq: Vec::new(),
            recv_expect: Vec::new(),
            stats: ProcStats::default(),
            allow_loss: false,
            gaps: 0,
            rel: None,
        }
    }

    /// Turn on the go-back-N reliability layer for this process. Must be
    /// called before any traffic flows (the cumulative tallies start at
    /// zero on both sides).
    pub fn enable_reliability(&mut self) {
        assert_eq!(self.stats.packets_sent + self.stats.packets_received, 0);
        self.rel = Some(GoBackN::new(self.nprocs()));
    }

    /// Switch this process to demand-driven credit windows over its
    /// `recv_slots`-slot receive queue (`BufferPolicy::Demand`), with a
    /// ledger over all `hosts` of the cluster. Must be called before any
    /// traffic flows — both sides must agree on the initial windows.
    pub fn enable_demand(&mut self, recv_slots: usize, hosts: usize) {
        assert_eq!(self.stats.packets_sent + self.stats.packets_received, 0);
        self.flow
            .enable_demand(recv_slots, hosts, Rc::clone(&self.placement));
    }

    /// Number of processes in the job.
    pub fn nprocs(&self) -> usize {
        self.placement.len()
    }

    /// Host of rank `r`.
    pub fn host_of(&self, r: usize) -> usize {
        self.placement[r]
    }

    /// Build fragment `idx` of a `msg_bytes` message to `dst_rank`,
    /// consuming a sequence number and attaching any piggybacked credits
    /// owed to the destination rank.
    ///
    /// The caller must have consumed a send credit first.
    pub fn make_fragment(&mut self, dst_rank: usize, msg_bytes: u64, idx: u64) -> Packet {
        assert_ne!(dst_rank, self.rank, "FM does not loop back self-sends");
        let dst_host = self.placement[dst_rank];
        let next = peers::entry(&mut self.send_seq, dst_rank, self.placement.len(), 0);
        let seq = *next;
        *next += 1;
        let n = fragments_for(msg_bytes);
        let payload = fragment_payload(msg_bytes, idx) as u32;
        let last = idx + 1 == n;
        let piggyback = self.flow.take_piggyback(dst_rank) as u32;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += payload as u64;
        if last {
            self.stats.msgs_sent += 1;
        }
        let (ack, credits_total) = match &self.rel {
            Some(rel) => (self.expected_from(dst_rank), rel.consumed_total(dst_rank)),
            None => (0, 0),
        };
        let pkt = Packet {
            job: self.job,
            src_host: self.host,
            dst_host,
            src_rank: self.rank,
            dst_rank,
            seq,
            payload,
            last_fragment: last,
            kind: PacketKind::Data,
            piggyback_credits: piggyback,
            ack,
            credits_total,
        };
        if let Some(rel) = self.rel.as_mut() {
            rel.track(&pkt);
        }
        pkt
    }

    /// Build a dedicated refill packet returning `credits` to rank
    /// `dst_rank` of the job.
    pub fn make_refill(&self, dst_rank: usize, credits: usize) -> Packet {
        let (ack, credits_total) = match &self.rel {
            Some(rel) => (self.expected_from(dst_rank), rel.consumed_total(dst_rank)),
            None => (0, 0),
        };
        Packet {
            job: self.job,
            src_host: self.host,
            dst_host: self.placement[dst_rank],
            src_rank: self.rank,
            dst_rank,
            seq: 0,
            payload: 0,
            last_fragment: false,
            kind: PacketKind::Refill,
            piggyback_credits: credits as u32,
            ack,
            credits_total,
        }
    }

    /// Process one packet handed up by FM_extract.
    ///
    /// Asserts loss-free FIFO delivery per sender — on real FM hardware a
    /// violated assertion here is exactly the "messed up credit counters"
    /// failure mode §2.2 warns about.
    pub fn on_extract(&mut self, pkt: &Packet) -> Extract {
        assert_eq!(pkt.job, self.job, "packet for wrong job reached process");
        assert_eq!(pkt.dst_rank, self.rank, "packet for wrong rank");
        assert_eq!(
            pkt.kind,
            PacketKind::Data,
            "refills are consumed by the NIC layer"
        );
        let expected = self.expected_from(pkt.src_rank);
        if self.rel.is_some() {
            return self.on_extract_reliable(pkt, expected);
        }
        if self.allow_loss {
            assert!(
                pkt.seq >= expected,
                "reordered delivery: rank {} got seq {} from rank {}, expected >= {}",
                self.rank,
                pkt.seq,
                pkt.src_rank,
                expected
            );
            self.gaps += pkt.seq - expected;
        } else {
            assert_eq!(
                pkt.seq, expected,
                "FIFO violated: rank {} got seq {} from rank {}, expected {}",
                self.rank, pkt.seq, pkt.src_rank, expected
            );
        }
        self.set_expected_from(pkt.src_rank, pkt.seq + 1);
        // Piggybacked credits on a data packet refill our window toward the
        // sender.
        if pkt.piggyback_credits > 0 {
            self.flow
                .refill(pkt.src_rank, pkt.piggyback_credits as usize);
        }
        self.stats.packets_received += 1;
        self.stats.bytes_received += pkt.payload as u64;
        if pkt.last_fragment {
            self.stats.msgs_received += 1;
        }
        let refill_due = self
            .flow
            .on_packet_consumed(pkt.src_rank)
            .map(|k| (pkt.src_rank, k));
        Extract {
            message_complete: pkt.last_fragment,
            refill_due,
            delivered: true,
        }
    }

    /// The go-back-N receive path: deliver in-order packets, discard gaps
    /// and duplicates undelivered, and answer duplicates with an
    /// ack-bearing refill (the sender is resending because an ack or the
    /// final refill got lost).
    fn on_extract_reliable(&mut self, pkt: &Packet, expected: u64) -> Extract {
        // Acks and cumulative credits on the packet are valid even when
        // its payload is stale — apply them unconditionally.
        self.apply_feedback(pkt);
        let rel = self.rel.as_mut().expect("reliable path");
        if pkt.seq > expected {
            // Gap: an earlier fragment was lost. Go-back-N discards the
            // out-of-order tail; the sender's timeout resends from
            // `expected`.
            rel.stats.discards += 1;
            return Extract {
                message_complete: false,
                refill_due: None,
                delivered: false,
            };
        }
        if pkt.seq < expected {
            // Duplicate of something already delivered: the sender has not
            // seen our ack. Send an ack-bearing refill home (credit value
            // 0 — the cumulative fields carry the real state).
            rel.stats.discards += 1;
            rel.stats.dup_acks += 1;
            return Extract {
                message_complete: false,
                refill_due: Some((pkt.src_rank, 0)),
                delivered: false,
            };
        }
        self.set_expected_from(pkt.src_rank, pkt.seq + 1);
        self.stats.packets_received += 1;
        self.stats.bytes_received += pkt.payload as u64;
        if pkt.last_fragment {
            self.stats.msgs_received += 1;
        }
        // The delta counter still decides *when* a dedicated refill goes
        // out; its value is superseded by the cumulative fields. Under
        // demand windows the consume may return 0 units (a shrink
        // withholding the credit) or 1+g (a grant riding along) — the
        // cumulative tally must advance by exactly that amount so window
        // moves survive lost or duplicated refills.
        let (due, units) = self.flow.on_packet_consumed_counted(pkt.src_rank);
        let rel = self.rel.as_mut().expect("reliable path");
        rel.add_consumed(pkt.src_rank, units);
        let refill_due = due.map(|k| (pkt.src_rank, k));
        Extract {
            message_complete: pkt.last_fragment,
            refill_due,
            delivered: true,
        }
    }

    /// Process an arriving dedicated refill packet (done at the NIC layer,
    /// without involving the receive queue).
    pub fn on_refill(&mut self, pkt: &Packet) {
        assert_eq!(pkt.kind, PacketKind::Refill);
        if self.rel.is_some() {
            // Reliable mode: the cumulative fields carry both the ack and
            // the credit state; the delta value is ignored.
            self.apply_feedback(pkt);
            return;
        }
        self.flow
            .refill(pkt.src_rank, pkt.piggyback_credits as usize);
    }

    /// The next sequence number expected from rank `src`.
    fn expected_from(&self, src: usize) -> u64 {
        peers::get(&self.recv_expect, src, self.placement.len(), 0)
    }

    fn set_expected_from(&mut self, src: usize, seq: u64) {
        *peers::entry(&mut self.recv_expect, src, self.placement.len(), 0) = seq;
    }

    /// Apply the cumulative ack and credit fields a packet carries
    /// (reliability layer only; no-op otherwise).
    fn apply_feedback(&mut self, pkt: &Packet) {
        let Some(rel) = self.rel.as_mut() else {
            return;
        };
        rel.on_ack(pkt.src_rank, pkt.ack);
        let delta = rel.credit_delta(pkt.src_rank, pkt.credits_total);
        if delta > 0 {
            self.flow.refill(pkt.src_rank, delta);
        }
    }

    /// Packets sent but not yet acked (0 without the reliability layer).
    pub fn rel_unacked(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.unacked())
    }

    /// Monotone ack-progress mark for the retransmit timer (0 without the
    /// reliability layer).
    pub fn rel_acked_total(&self) -> u64 {
        self.rel.as_ref().map_or(0, |r| r.acked_total())
    }

    /// Clone up to `max` unacked packets for re-injection, oldest first,
    /// with their ack/credit fields refreshed to the current cumulative
    /// state. Counts them as retransmits. Empty without the reliability
    /// layer or when nothing is unacked.
    pub fn retransmit_packets(&mut self, max: usize) -> Vec<Packet> {
        let Some(rel) = self.rel.as_mut() else {
            return Vec::new();
        };
        let mut pkts = rel.window_packets(max);
        rel.stats.retransmits += pkts.len() as u64;
        for p in &mut pkts {
            p.ack = peers::get(&self.recv_expect, p.dst_rank, self.placement.len(), 0);
            p.credits_total = rel.consumed_total(p.dst_rank);
        }
        pkts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc2() -> (FmProcess, FmProcess) {
        // Two-process job on hosts 0 and 1, C0 = 4.
        let placement: Rc<[usize]> = Rc::from([0, 1]);
        (
            FmProcess::new(7, 0, placement.clone(), 4),
            FmProcess::new(7, 1, placement, 4),
        )
    }

    #[test]
    fn fragments_carry_monotone_seq_and_last_flag() {
        let (mut a, _) = proc2();
        let f0 = a.make_fragment(1, 4000, 0);
        let f1 = a.make_fragment(1, 4000, 1);
        let f2 = a.make_fragment(1, 4000, 2);
        assert_eq!((f0.seq, f1.seq, f2.seq), (0, 1, 2));
        assert!(!f0.last_fragment && !f1.last_fragment && f2.last_fragment);
        assert_eq!(f0.payload, 1536);
        assert_eq!(f2.payload, (4000 - 2 * 1536) as u32);
        assert_eq!(a.stats.msgs_sent, 1);
        assert_eq!(a.stats.packets_sent, 3);
        assert_eq!(a.stats.bytes_sent, 4000);
    }

    #[test]
    fn extract_verifies_fifo_and_counts_messages() {
        let (mut a, mut b) = proc2();
        let p0 = a.make_fragment(1, 2000, 0);
        let p1 = a.make_fragment(1, 2000, 1);
        let r0 = b.on_extract(&p0);
        assert!(!r0.message_complete);
        let r1 = b.on_extract(&p1);
        assert!(r1.message_complete);
        assert_eq!(b.stats.msgs_received, 1);
        assert_eq!(b.stats.bytes_received, 2000);
    }

    #[test]
    #[should_panic(expected = "FIFO violated")]
    fn out_of_order_delivery_panics() {
        let (mut a, mut b) = proc2();
        let _p0 = a.make_fragment(1, 2000, 0);
        let p1 = a.make_fragment(1, 2000, 1);
        b.on_extract(&p1);
    }

    #[test]
    fn low_water_refill_flows_back() {
        // C0 = 4 → refill due after 2 consumed.
        let (mut a, mut b) = proc2();
        let p0 = a.make_fragment(1, 100, 0);
        let p1 = a.make_fragment(1, 100, 0);
        assert_eq!(b.on_extract(&p0).refill_due, None);
        let r = b.on_extract(&p1).refill_due;
        assert_eq!(r, Some((0, 2)));
        // The refill packet restores a's credits.
        let refill = b.make_refill(0, 2);
        a.flow.consume(1);
        a.flow.consume(1);
        a.on_refill(&refill);
        assert_eq!(a.flow.credits(1), 4);
    }

    #[test]
    fn piggyback_travels_on_data_packets() {
        let (mut a, mut b) = proc2();
        // b consumes one packet from a, then sends data back to a: the
        // consumed count rides along.
        let p = a.make_fragment(1, 10, 0);
        b.on_extract(&p);
        let back = b.make_fragment(0, 10, 0);
        assert_eq!(back.piggyback_credits, 1);
        // a's window toward host 1 refills on extract.
        a.flow.consume(1);
        a.on_extract(&back);
        assert_eq!(a.flow.credits(1), 4);
    }

    #[test]
    fn refill_to_a_rank_is_addressed_to_its_host() {
        let placement: Rc<[usize]> = Rc::from([3, 9, 5]);
        let p = FmProcess::new(1, 0, placement, 4);
        let r = p.make_refill(2, 2);
        assert_eq!(r.dst_rank, 2);
        assert_eq!(r.dst_host, 5);
        assert_eq!(r.piggyback_credits, 2);
    }

    #[test]
    fn traffic_is_accounted_by_rank_on_a_non_ascending_placement() {
        // Rank 0 on host 9 and rank 1 on host 2: the refill due after two
        // consumed packets names rank 0, and it reaches host 9.
        let placement: Rc<[usize]> = Rc::from([9, 2]);
        let mut a = FmProcess::new(4, 0, placement.clone(), 4);
        let mut b = FmProcess::new(4, 1, placement, 4);
        a.flow.consume(1);
        a.flow.consume(1);
        b.on_extract(&a.make_fragment(1, 100, 0));
        let (peer, k) = b
            .on_extract(&a.make_fragment(1, 100, 0))
            .refill_due
            .unwrap();
        assert_eq!((peer, k), (0, 2));
        let refill = b.make_refill(peer, k);
        assert_eq!((refill.dst_host, refill.dst_rank), (9, 0));
        a.on_refill(&refill);
        assert_eq!(a.flow.credits(1), 4);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_panics() {
        let (mut a, _) = proc2();
        a.make_fragment(0, 10, 0);
    }
}
