//! Property tests: credit conservation, fragmentation, and the buffer
//! division formula.

use fastmsg::division::{BufferPolicy, CreditRounding};
use fastmsg::flow::FlowControl;
use fastmsg::packet::{fragment_payload, fragments_for, Packet, MAX_PAYLOAD};
use fastmsg::proc::FmProcess;
use proptest::prelude::*;
use std::collections::VecDeque;
use std::rc::Rc;

proptest! {
    /// Credits are conserved between a sender/receiver pair under any
    /// interleaving: consumed = refilled + (still-missing at the sender) +
    /// (consumed-but-unreturned at the receiver).
    #[test]
    fn credit_conservation(c0 in 1usize..64, ops in proptest::collection::vec(any::<bool>(), 0..500)) {
        // Rank 0 sends to rank 1.
        let mut sender = FlowControl::new(0, 2, c0);
        let mut receiver = FlowControl::new(1, 2, c0);
        let mut in_flight = 0usize; // packets sent, not yet consumed
        for consume_side in ops {
            if consume_side {
                // Sender emits a packet if it can.
                if sender.consume(1) {
                    in_flight += 1;
                }
            } else if in_flight > 0 {
                // Receiver consumes one and may trigger a refill.
                in_flight -= 1;
                if let Some(k) = receiver.on_packet_consumed(0) {
                    sender.refill(1, k);
                }
            }
            let missing = c0 - sender.credits(1);
            let unreturned = receiver.unreturned(0);
            prop_assert_eq!(missing, in_flight + unreturned,
                "missing {} != in_flight {} + unreturned {}", missing, in_flight, unreturned);
            prop_assert!(sender.credits(1) <= c0);
        }
    }

    /// Fragmentation is exact: payloads sum to the message, only the last
    /// fragment is partial, and the count is minimal.
    #[test]
    fn fragmentation_exact(bytes in 0u64..2_000_000) {
        let n = fragments_for(bytes);
        let total: u64 = (0..n).map(|i| fragment_payload(bytes, i)).sum();
        prop_assert_eq!(total, bytes);
        prop_assert!(n >= 1);
        if bytes > 0 {
            prop_assert!((n - 1) * MAX_PAYLOAD < bytes);
        }
        for i in 0..n {
            let p = fragment_payload(bytes, i);
            prop_assert!(p <= MAX_PAYLOAD);
            if i + 1 < n {
                prop_assert_eq!(p, MAX_PAYLOAD);
            }
        }
    }

    /// The credit formula: FullBuffer credits are independent of `n` and
    /// at least n² / (1 + rounding slack) times the static ones; geometry
    /// never exceeds the physical buffers.
    #[test]
    fn division_formula(n in 1usize..16, p in 1usize..64) {
        let stat = BufferPolicy::StaticDivision.geometry(252, 668, n, p, CreditRounding::Floor);
        let full = BufferPolicy::FullBuffer.geometry(252, 668, n, p, CreditRounding::Floor);
        prop_assert!(stat.send_slots <= 252 && stat.recv_slots <= 668);
        prop_assert_eq!(full.send_slots, 252);
        prop_assert_eq!(full.recv_slots, 668);
        prop_assert_eq!(full.credits, 668 / p);
        // n * stat.send_slots never exceeds the buffer (no overcommit).
        prop_assert!(n * stat.send_slots <= 252);
        prop_assert!(n * stat.recv_slots <= 668);
        // The full-buffer window dominates the divided one.
        prop_assert!(full.credits >= stat.credits);
        // Receive ring can hold the worst case the credits allow.
        prop_assert!(stat.credits * n * p <= 668);
    }

    /// Messages through a pair of FmProcesses preserve FIFO and counts for
    /// any message-size sequence.
    #[test]
    fn process_pair_message_accounting(sizes in proptest::collection::vec(0u64..10_000, 1..50)) {
        let placement: Rc<[usize]> = Rc::from([0, 1]);
        let mut a = FmProcess::new(9, 0, placement.clone(), 1_000_000);
        let mut b = FmProcess::new(9, 1, placement, 1_000_000);
        let mut total_bytes = 0;
        for &sz in &sizes {
            let n = fragments_for(sz);
            for i in 0..n {
                let pkt = a.make_fragment(1, sz, i);
                let r = b.on_extract(&pkt);
                prop_assert_eq!(r.message_complete, i + 1 == n);
            }
            total_bytes += sz;
        }
        prop_assert_eq!(b.stats.msgs_received, sizes.len() as u64);
        prop_assert_eq!(b.stats.bytes_received, total_bytes);
        prop_assert_eq!(a.stats.msgs_sent, sizes.len() as u64);
        prop_assert_eq!(a.stats.bytes_sent, total_bytes);
        prop_assert_eq!(b.gaps, 0);
    }

    /// Go-back-N safety and liveness: under any interleaving of sends,
    /// wire loss, duplication (which also reorders — the dup lands at the
    /// back of the wire), lost refills, and timeout retransmissions, the
    /// receiver delivers payloads exactly once and strictly in order; a
    /// bounded drain then delivers every packet and empties the window.
    #[test]
    fn go_back_n_never_double_delivers_or_reorders(
        c0 in 2usize..8,
        ops in proptest::collection::vec(0u8..7, 0..400),
    ) {
        let placement: Rc<[usize]> = Rc::from([0, 1]);
        let mut a = FmProcess::new(3, 0, placement.clone(), c0);
        let mut b = FmProcess::new(3, 1, placement, c0);
        a.enable_reliability();
        b.enable_reliability();
        let mut wire_ab: VecDeque<Packet> = VecDeque::new(); // data toward b
        let mut wire_ba: VecDeque<Packet> = VecDeque::new(); // refills toward a
        let mut next_delivery = 0u64; // seq the next *delivered* packet must carry
        for op in ops {
            match op {
                // Send one single-fragment message if a credit is free.
                0 => {
                    if a.flow.consume(1) {
                        wire_ab.push_back(a.make_fragment(1, 100, 0));
                    }
                }
                // Deliver the head data packet.
                1 => {
                    if let Some(pkt) = wire_ab.pop_front() {
                        let r = b.on_extract(&pkt);
                        if r.delivered {
                            prop_assert_eq!(pkt.seq, next_delivery,
                                "delivered seq {} out of order (expected {})",
                                pkt.seq, next_delivery);
                            next_delivery += 1;
                        }
                        if let Some((peer, k)) = r.refill_due {
                            wire_ba.push_back(b.make_refill(peer, k));
                        }
                    }
                }
                // Lose the head data packet.
                2 => {
                    wire_ab.pop_front();
                }
                // Duplicate the head data packet to the back of the wire.
                3 => {
                    if let Some(pkt) = wire_ab.front().cloned() {
                        wire_ab.push_back(pkt);
                    }
                }
                // Deliver the head refill.
                4 => {
                    if let Some(pkt) = wire_ba.pop_front() {
                        a.on_refill(&pkt);
                    }
                }
                // Lose the head refill.
                5 => {
                    wire_ba.pop_front();
                }
                // Retransmit timeout: re-push the unacked window.
                _ => {
                    wire_ab.extend(a.retransmit_packets(c0));
                }
            }
            prop_assert!(a.flow.credits(1) <= c0);
        }
        // Drain: keep retransmitting and delivering until the window is
        // empty. Duplicates force ack-bearing refills, so this converges.
        let mut rounds = 0;
        while a.rel_unacked() > 0 || !wire_ab.is_empty() || !wire_ba.is_empty() {
            rounds += 1;
            prop_assert!(rounds < 64, "drain did not converge");
            wire_ab.extend(a.retransmit_packets(1024));
            while let Some(pkt) = wire_ab.pop_front() {
                let r = b.on_extract(&pkt);
                if r.delivered {
                    prop_assert_eq!(pkt.seq, next_delivery);
                    next_delivery += 1;
                }
                if let Some((peer, k)) = r.refill_due {
                    wire_ba.push_back(b.make_refill(peer, k));
                }
            }
            while let Some(pkt) = wire_ba.pop_front() {
                a.on_refill(&pkt);
            }
        }
        // Everything sent was delivered exactly once, in order.
        prop_assert_eq!(next_delivery, a.stats.packets_sent);
        prop_assert_eq!(b.stats.packets_received, a.stats.packets_sent);
        prop_assert_eq!(a.rel_unacked(), 0);
        prop_assert!(a.flow.credits(1) <= c0);
    }
}
