//! Credit-based flow control (paper §2.2).
//!
//! Each process keeps two counters per peer host: how many packets it may
//! still send there (`send_credits`), and how many packets from there it
//! has consumed since the last refill it returned (`consumed`). A refill is
//! returned either piggybacked on a data packet to that peer, or as a
//! dedicated refill message once the peer's remaining credits fall below
//! the low-water mark.
//!
//! FM has no retransmission: "a single packet loss can mess up the credit
//! counters and the entire flow control algorithm". The accounting here is
//! asserted tight — credits never exceed `C0`, never go negative — and the
//! integration tests use those assertions to prove the buffer-switch
//! protocol loses no packets.
//!
//! Under [`BufferPolicy::Demand`](crate::division::BufferPolicy) the fixed
//! per-peer window `C0` is replaced by a [`DemandWindows`] ledger: the same
//! consume/refill cycle runs, but each refill may withhold a credit (window
//! shrink) or carry extra pool credits (window grow). See
//! [`demand`](crate::demand) for the allocator.

use crate::demand::DemandWindows;

/// Per-peer credit accounting for one process.
///
/// ```
/// use fastmsg::flow::FlowControl;
///
/// // Host 0 among 2 hosts, C0 = 4 credits toward each peer.
/// let mut sender = FlowControl::new(0, 2, 4);
/// let mut receiver = FlowControl::new(1, 2, 4);
/// assert!(sender.consume(1)); // one packet to host 1
/// assert!(sender.consume(1));
/// // Receiver consumes both; the second crosses the low-water mark and
/// // returns the credits.
/// assert_eq!(receiver.on_packet_consumed(0), None);
/// let refill = receiver.on_packet_consumed(0).unwrap();
/// sender.refill(1, refill);
/// assert_eq!(sender.credits(1), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlowControl {
    c0: usize,
    low_water: usize,
    /// This process's own host: the one entry of the per-peer counters
    /// that is never used.
    me: usize,
    /// Remaining credits toward each peer host. Four bytes per peer: this
    /// state is per process × per host, so a whole-machine job holds it
    /// N² times.
    send_credits: Vec<u32>,
    /// Packets consumed from each peer since the last refill returned.
    consumed: Vec<u32>,
    /// Per-peer demand windows (`BufferPolicy::Demand` only): when set,
    /// the receive-side accounting uses `demand.window(peer)` in place of
    /// the fixed `c0`, and refills carry window adjustments.
    demand: Option<Box<DemandWindows>>,
    /// Lifetime counters.
    pub stats: FlowStats,
}

/// Flow-control event counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowStats {
    /// Send credits consumed.
    pub credits_used: u64,
    /// Credits received back (piggybacked + dedicated).
    pub credits_refilled: u64,
    /// Dedicated refill messages triggered.
    pub refill_msgs: u64,
    /// Times a send had to wait for credits.
    pub credit_stalls: u64,
}

impl FlowControl {
    /// Flow control for a process on host `me` among `hosts`, with initial
    /// (= maximal) credit `c0` toward every peer.
    ///
    /// The low-water mark is `c0 / 2` remaining credits (at least one
    /// consumed packet triggers a refill when `c0 == 1`).
    ///
    /// Panics if `c0` does not fit the 32-bit per-peer counters.
    pub fn new(me: usize, hosts: usize, c0: usize) -> Self {
        let init = u32::try_from(c0)
            .unwrap_or_else(|_| panic!("C0 = {c0} exceeds the 32-bit credit counters"));
        FlowControl {
            c0,
            low_water: c0 / 2,
            me,
            send_credits: vec![init; hosts],
            consumed: vec![0; hosts],
            demand: None,
            stats: FlowStats::default(),
        }
    }

    /// Switch this process to demand-driven windows over a `cap`-slot
    /// receive queue. The current `C0` becomes every channel's initial
    /// window; from here on the [`DemandWindows`] ledger governs the
    /// receive-side accounting. `C0` itself is raised to `cap` — the only
    /// remaining role of the scalar is the over-refill tripwire, and a
    /// grown window may legitimately exceed the old uniform share.
    pub fn enable_demand(&mut self, cap: usize) {
        assert!(self.demand.is_none(), "demand windows already enabled");
        assert!(
            u32::try_from(cap).is_ok(),
            "demand cap {cap} exceeds the 32-bit credit counters"
        );
        let hosts = self.send_credits.len();
        self.demand = Some(Box::new(DemandWindows::new(self.me, hosts, self.c0, cap)));
        self.c0 = cap;
    }

    /// The demand ledger, when [`FlowControl::enable_demand`] was called.
    pub fn demand(&self) -> Option<&DemandWindows> {
        self.demand.as_deref()
    }

    /// Run one rebalance pass on the demand ledger. Returns the credits
    /// migrated, or `None` when demand windows are not enabled.
    pub fn demand_rebalance(&mut self) -> Option<u64> {
        self.demand.as_deref_mut().map(DemandWindows::rebalance)
    }

    /// The initial/maximal credit count `C0`.
    pub fn c0(&self) -> usize {
        self.c0
    }

    /// Remaining credits toward `peer`.
    pub fn credits(&self, peer: usize) -> usize {
        assert_ne!(peer, self.me, "no credits toward self");
        self.send_credits[peer] as usize
    }

    /// Can we send one packet to `peer` right now?
    pub fn can_send(&self, peer: usize) -> bool {
        self.credits(peer) > 0
    }

    /// Consume one credit toward `peer`. Returns `false` (and counts a
    /// stall) if none remain.
    pub fn consume(&mut self, peer: usize) -> bool {
        assert_ne!(peer, self.me, "no credits toward self");
        let c = &mut self.send_credits[peer];
        if *c == 0 {
            self.stats.credit_stalls += 1;
            return false;
        }
        *c -= 1;
        self.stats.credits_used += 1;
        true
    }

    /// Add `k` credits returned by `peer`. Panics if accounting would
    /// exceed `C0` — that means a duplicated refill, a protocol bug.
    pub fn refill(&mut self, peer: usize, k: usize) {
        if k == 0 {
            return;
        }
        assert_ne!(peer, self.me, "no credits toward self");
        let c = self.send_credits[peer] as usize + k;
        assert!(
            c <= self.c0,
            "credits toward {peer} exceed C0 ({c} > {})",
            self.c0
        );
        // In range: C0 (or the demand cap that replaced it) fits in u32.
        self.send_credits[peer] = c as u32;
        self.stats.credits_refilled += k as u64;
    }

    /// Record consumption of one packet that arrived from `peer`.
    ///
    /// Returns `Some(credits_to_return)` when the peer is now below the
    /// low-water mark and a *dedicated* refill message should be sent; the
    /// returned count is the consumed total, which this call resets.
    pub fn on_packet_consumed(&mut self, peer: usize) -> Option<usize> {
        self.on_packet_consumed_counted(peer).0
    }

    /// [`FlowControl::on_packet_consumed`], additionally reporting how
    /// many cumulative credit units this consume returns to the sender —
    /// always 1 without demand windows; 0 while a window shrink withholds
    /// the credit, `1 + grant` when pool credits ride along. The
    /// reliability layer feeds this into its lifetime `credits_total`
    /// tally so window moves survive packet loss.
    pub fn on_packet_consumed_counted(&mut self, peer: usize) -> (Option<usize>, u64) {
        let units = match self.demand.as_deref_mut() {
            Some(d) => {
                let (counted, grant) = d.advance(peer);
                self.consumed[peer] += (counted + grant) as u32;
                (counted + grant) as u64
            }
            None => {
                self.consumed[peer] += 1;
                1
            }
        };
        // We know the peer started from the window toward us; its remaining
        // credits are window - consumed (unacknowledged).
        let (window, low_water) = self.recv_window(peer);
        let remaining = window - (self.consumed[peer] as usize).min(window);
        let due = if remaining <= low_water {
            let k = std::mem::take(&mut self.consumed[peer]) as usize;
            self.stats.refill_msgs += 1;
            Some(k)
        } else {
            None
        };
        (due, units)
    }

    /// The window the sender on `peer` currently holds toward us, and its
    /// low-water mark.
    fn recv_window(&self, peer: usize) -> (usize, usize) {
        match self.demand.as_deref() {
            Some(d) => {
                let w = d.window(peer);
                (w, w / 2)
            }
            None => (self.c0, self.low_water),
        }
    }

    /// Take the consumed count for `peer` to piggyback on a data packet
    /// headed there (resets the counter; returns 0 if nothing to return).
    pub fn take_piggyback(&mut self, peer: usize) -> usize {
        std::mem::take(&mut self.consumed[peer]) as usize
    }

    /// Outstanding consumed-but-unreturned counts (for save/restore: the
    /// buffer switch must preserve these or credits leak).
    pub fn consumed_counters(&self) -> &[u32] {
        &self.consumed
    }

    /// Sum of credits currently held plus in-flight-consumed — used by
    /// conservation property tests.
    pub fn held_credits_total(&self) -> usize {
        self.send_credits
            .iter()
            .enumerate()
            .filter(|&(h, _)| h != self.me)
            .map(|(_, &c)| c as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_until_exhausted() {
        let mut f = FlowControl::new(0, 2, 3);
        assert_eq!(f.credits(1), 3);
        assert!(f.consume(1));
        assert!(f.consume(1));
        assert!(f.consume(1));
        assert!(!f.can_send(1));
        assert!(!f.consume(1));
        assert_eq!(f.stats.credit_stalls, 1);
        assert_eq!(f.stats.credits_used, 3);
    }

    #[test]
    fn refill_restores_up_to_c0() {
        let mut f = FlowControl::new(0, 2, 5);
        for _ in 0..4 {
            f.consume(1);
        }
        f.refill(1, 4);
        assert_eq!(f.credits(1), 5);
    }

    #[test]
    #[should_panic(expected = "exceed C0")]
    fn over_refill_panics() {
        let mut f = FlowControl::new(0, 2, 5);
        f.refill(1, 1);
    }

    #[test]
    fn low_water_triggers_dedicated_refill() {
        // C0 = 4, low_water = 2: refill due when remaining <= 2, i.e. after
        // the 2nd consumed packet.
        let mut f = FlowControl::new(1, 3, 4);
        assert_eq!(f.on_packet_consumed(0), None);
        assert_eq!(f.on_packet_consumed(0), Some(2));
        // Counter reset: the cycle repeats.
        assert_eq!(f.on_packet_consumed(0), None);
        assert_eq!(f.on_packet_consumed(0), Some(2));
        assert_eq!(f.stats.refill_msgs, 2);
    }

    #[test]
    fn single_credit_refills_every_packet() {
        let mut f = FlowControl::new(1, 2, 1);
        assert_eq!(f.on_packet_consumed(0), Some(1));
        assert_eq!(f.on_packet_consumed(0), Some(1));
    }

    #[test]
    fn piggyback_resets_consumed() {
        let mut f = FlowControl::new(0, 2, 10);
        f.on_packet_consumed(1);
        f.on_packet_consumed(1);
        assert_eq!(f.take_piggyback(1), 2);
        assert_eq!(f.take_piggyback(1), 0);
    }

    #[test]
    fn per_peer_counters_are_independent() {
        let mut f = FlowControl::new(0, 4, 2);
        f.consume(1);
        f.consume(1);
        assert!(!f.can_send(1));
        assert!(f.can_send(2));
        assert!(f.can_send(3));
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_credits_panic() {
        let f = FlowControl::new(2, 4, 2);
        f.credits(2);
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_consume_panics() {
        let mut f = FlowControl::new(2, 4, 2);
        f.consume(2);
    }

    #[test]
    #[should_panic(expected = "self")]
    fn self_refill_panics() {
        let mut f = FlowControl::new(2, 4, 2);
        f.refill(2, 1);
    }

    #[test]
    #[should_panic(expected = "C0")]
    fn c0_beyond_u32_panics_at_construction() {
        FlowControl::new(0, 2, u32::MAX as usize + 1);
    }

    #[test]
    fn demand_single_credit_window_refills_every_packet() {
        let mut f = FlowControl::new(1, 2, 1);
        f.enable_demand(4);
        assert_eq!(f.on_packet_consumed(0), Some(1));
        assert_eq!(f.on_packet_consumed(0), Some(1));
    }

    #[test]
    fn demand_shrink_withholds_credits_from_refills() {
        // Two peers, w0 = 4 over an 8-slot queue (empty pool). All traffic
        // on peer 0: rebalance schedules a shrink on peer 1, whose refills
        // then return fewer credits than were consumed until the window
        // reaches the 1-credit floor.
        let mut f = FlowControl::new(2, 3, 4);
        f.enable_demand(8);
        for _ in 0..16 {
            f.on_packet_consumed(0);
        }
        f.demand_rebalance();
        assert!(f.demand().unwrap().pending_shrink(1) > 0);
        let (mut consumed, mut returned) = (0usize, 0usize);
        while returned == 0 {
            consumed += 1;
            if let Some(k) = f.on_packet_consumed(1) {
                returned += k;
            }
            assert!(consumed < 100, "refill never came due");
        }
        assert!(returned < consumed, "{returned} vs {consumed}");
        assert_eq!(f.demand().unwrap().window(1), 1);
    }
}
