//! Per-node orchestration of the three-phase context switch (paper §3.2),
//! with the stage timing instrumentation behind Figs. 7 and 9.
//!
//! Phase order on every node:
//!
//! 1. **Halt** — SIGSTOP the outgoing process, set the NIC halt bit, run
//!    the Fig. 3 flush protocol;
//! 2. **Buffer switch** — save/restore queue contents;
//! 3. **Release** — ready-broadcast protocol, clear the halt bit, SIGCONT
//!    the incoming process.
//!
//! Because "the nodes are not fully synchronized", a peer's halt (or even
//! ready) packet may arrive before this node has received its SwitchSlot
//! command. The sequencer buffers such early messages by epoch and applies
//! them when the switch starts, which is exactly the `S,k (k>0)` left
//! column of the Fig. 3 state graph.
//!
//! The §5 baseline strategies ([`crate::strategy`]) run the same machine
//! with zero peers: the local halt alone completes the flush and the
//! local ready alone the release.

use std::collections::BTreeSet;

use sim_core::time::{Cycles, SimTime};

use crate::flush::{BarrierKind, FlushMachine};

/// Where a node is in the switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchPhase {
    /// No switch in progress.
    Idle,
    /// Waiting for the flush protocol to complete.
    Halting,
    /// Copying buffers.
    Copying,
    /// Waiting for the release protocol to complete.
    Releasing,
}

/// Cycle spend per stage of one completed switch on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageBreakdown {
    /// SwitchSlot receipt → network flushed.
    pub halt: Cycles,
    /// Buffer copy duration.
    pub buffer_switch: Cycles,
    /// Copy done → all-ready and resumed.
    pub release: Cycles,
}

impl StageBreakdown {
    /// Sum of the three stages.
    pub fn total(&self) -> Cycles {
        self.halt + self.buffer_switch + self.release
    }
}

/// The per-node switch sequencer.
#[derive(Debug, Clone)]
pub struct SwitchSequencer {
    phase: SwitchPhase,
    /// Epoch of the switch in progress (valid unless Idle).
    pub epoch: u64,
    /// Slot being descheduled.
    pub from_slot: usize,
    /// Slot being scheduled.
    pub to_slot: usize,
    flush: FlushMachine,
    release: FlushMachine,
    started: SimTime,
    halt_done: SimTime,
    copy_done: SimTime,
    peers: usize,
    early_epoch: Option<u64>,
    early_halts: usize,
    early_readys: usize,
    /// Recovery mode (reliability layer): control packets may be lost and
    /// re-broadcast, so peer messages are deduplicated by source node,
    /// stale re-broadcasts for finished epochs are dropped, and local
    /// transitions become idempotent. Off by default — the strict Fig. 3
    /// protocol asserts exactly-once delivery instead.
    recovery: bool,
    /// Epoch of the last completed switch (recovery mode: anything ≤ this
    /// is a stale re-broadcast).
    last_finished: Option<u64>,
    /// Recovery mode: peers whose halt we already counted this epoch.
    halt_srcs: BTreeSet<usize>,
    /// Recovery mode: peers whose ready we already counted this epoch.
    ready_srcs: BTreeSet<usize>,
}

impl SwitchSequencer {
    /// An idle sequencer on a cluster with `peers` other nodes.
    pub fn new(peers: usize) -> Self {
        SwitchSequencer {
            phase: SwitchPhase::Idle,
            epoch: 0,
            from_slot: 0,
            to_slot: 0,
            flush: FlushMachine::new(BarrierKind::Flush, peers),
            release: FlushMachine::new(BarrierKind::Release, peers),
            started: SimTime::ZERO,
            halt_done: SimTime::ZERO,
            copy_done: SimTime::ZERO,
            peers,
            early_epoch: None,
            early_halts: 0,
            early_readys: 0,
            recovery: false,
            last_finished: None,
            halt_srcs: BTreeSet::new(),
            ready_srcs: BTreeSet::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> SwitchPhase {
        self.phase
    }

    /// Enable or disable recovery mode (see the field docs). Must only be
    /// flipped while idle.
    pub fn set_recovery(&mut self, on: bool) {
        assert_eq!(self.phase, SwitchPhase::Idle);
        self.recovery = on;
    }

    /// Begin a switch (SwitchSlot command received at `now`). Any buffered
    /// early messages for this epoch are applied immediately; returns
    /// `true` if that alone completed the flush (possible only in
    /// pathological tiny clusters, but handled uniformly).
    pub fn start(&mut self, now: SimTime, epoch: u64, from: usize, to: usize) -> bool {
        assert_eq!(self.phase, SwitchPhase::Idle, "switch already in progress");
        self.phase = SwitchPhase::Halting;
        self.epoch = epoch;
        self.from_slot = from;
        self.to_slot = to;
        self.flush = FlushMachine::new(BarrierKind::Flush, self.peers);
        self.release = FlushMachine::new(BarrierKind::Release, self.peers);
        self.started = now;
        if let Some(e) = self.early_epoch.take() {
            assert_eq!(e, epoch, "buffered control packets from a different epoch");
            for _ in 0..std::mem::take(&mut self.early_halts) {
                self.flush.on_message();
            }
            for _ in 0..std::mem::take(&mut self.early_readys) {
                self.release.on_message();
            }
        }
        self.flush.complete()
    }

    fn buffer_early(&mut self, epoch: u64, ready: bool) {
        match self.early_epoch {
            None => self.early_epoch = Some(epoch),
            Some(e) => assert_eq!(e, epoch, "early messages from two different epochs"),
        }
        if ready {
            self.early_readys += 1;
        } else {
            self.early_halts += 1;
        }
    }

    /// The local NIC finished its halt broadcast.
    /// Returns `true` if the flush just completed. In recovery mode a
    /// repeated local halt (re-broadcast completion) is an ignored no-op.
    pub fn on_local_halt(&mut self) -> bool {
        if self.recovery && (self.phase != SwitchPhase::Halting || self.flush.local_done()) {
            return false;
        }
        assert_eq!(self.phase, SwitchPhase::Halting);
        self.flush.on_local();
        self.flush.complete()
    }

    /// A halt control packet for `epoch` arrived from peer `src`.
    /// Returns `true` if the flush just completed.
    pub fn on_halt_msg(&mut self, epoch: u64, src: usize) -> bool {
        if self.recovery {
            if self.last_finished.is_some_and(|e| epoch <= e) {
                return false; // stale re-broadcast of a finished epoch
            }
            if !self.halt_srcs.insert(src) {
                return false; // duplicate from the same peer
            }
        }
        if self.phase == SwitchPhase::Idle {
            self.buffer_early(epoch, false);
            return false;
        }
        assert_eq!(epoch, self.epoch, "halt message from a different epoch");
        if self.recovery && self.phase != SwitchPhase::Halting {
            // The flush already completed with the original copy of this
            // halt; the retransmitted one arrived late. Counted in the
            // dedup set above so a third copy stays cheap.
            return false;
        }
        assert_eq!(
            self.phase,
            SwitchPhase::Halting,
            "halt message after flush completed"
        );
        self.flush.on_message();
        self.flush.complete()
    }

    /// Flush complete: move to the copying phase.
    pub fn flush_complete(&mut self, now: SimTime) {
        assert_eq!(self.phase, SwitchPhase::Halting);
        assert!(self.flush.complete(), "flush not actually complete");
        self.phase = SwitchPhase::Copying;
        self.halt_done = now;
    }

    /// Buffer copy finished: move to the release phase.
    pub fn copy_complete(&mut self, now: SimTime) {
        assert_eq!(self.phase, SwitchPhase::Copying);
        self.phase = SwitchPhase::Releasing;
        self.copy_done = now;
    }

    /// The local NIC finished its ready broadcast. In recovery mode a
    /// repeated local ready (re-broadcast completion) is an ignored no-op.
    pub fn on_local_ready(&mut self) -> bool {
        if self.recovery && (self.phase != SwitchPhase::Releasing || self.release.local_done()) {
            return false;
        }
        assert_eq!(self.phase, SwitchPhase::Releasing);
        self.release.on_local();
        self.release.complete()
    }

    /// A ready control packet for `epoch` arrived from peer `src`. Fast
    /// peers may send ready while we are still halting or copying; the
    /// count is accepted in any phase (buffered if we have not even
    /// started).
    pub fn on_ready_msg(&mut self, epoch: u64, src: usize) -> bool {
        if self.recovery {
            if self.last_finished.is_some_and(|e| epoch <= e) {
                return false; // stale re-broadcast of a finished epoch
            }
            if !self.ready_srcs.insert(src) {
                return false; // duplicate from the same peer
            }
        }
        if self.phase == SwitchPhase::Idle {
            self.buffer_early(epoch, true);
            return false;
        }
        assert_eq!(epoch, self.epoch, "ready message from a different epoch");
        self.release.on_message();
        self.phase == SwitchPhase::Releasing && self.release.complete()
    }

    /// Release complete at `now`: back to Idle, returning the stage
    /// breakdown for Figs. 7/9.
    pub fn finish(&mut self, now: SimTime) -> StageBreakdown {
        assert_eq!(self.phase, SwitchPhase::Releasing);
        assert!(self.release.complete(), "release not actually complete");
        self.phase = SwitchPhase::Idle;
        self.last_finished = Some(self.epoch);
        self.halt_srcs.clear();
        self.ready_srcs.clear();
        StageBreakdown {
            halt: self.halt_done.since(self.started),
            buffer_switch: self.copy_done.since(self.halt_done),
            release: now.since(self.copy_done),
        }
    }

    /// Epoch of the last completed switch, if any (recovery mode: a node
    /// answering a ResendProtocol for this epoch re-sends ready only).
    pub fn last_finished(&self) -> Option<u64> {
        self.last_finished
    }

    /// Fig. 3 state label of the flush machine (for traces).
    pub fn flush_label(&self) -> String {
        self.flush.state_label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_one(peers: usize) -> StageBreakdown {
        let mut s = SwitchSequencer::new(peers);
        s.start(SimTime(1000), 1, 0, 1);
        for src in 0..peers {
            s.on_halt_msg(1, src);
        }
        assert!(s.on_local_halt());
        s.flush_complete(SimTime(3000));
        s.copy_complete(SimTime(10_000));
        let local_completes = s.on_local_ready();
        assert_eq!(local_completes, peers == 0);
        for i in 0..peers {
            let done = s.on_ready_msg(1, i);
            assert_eq!(done, i + 1 == peers);
        }
        s.finish(SimTime(12_000))
    }

    #[test]
    fn stage_breakdown_measures_each_phase() {
        let b = run_one(3);
        assert_eq!(b.halt, Cycles(2000));
        assert_eq!(b.buffer_switch, Cycles(7000));
        assert_eq!(b.release, Cycles(2000));
        assert_eq!(b.total(), Cycles(11_000));
    }

    #[test]
    fn sequencer_is_reusable_across_epochs() {
        let mut s = SwitchSequencer::new(1);
        for epoch in 1..=3 {
            s.start(SimTime(epoch * 100_000), epoch, 0, 1);
            s.on_halt_msg(epoch, 0);
            assert!(s.on_local_halt());
            s.flush_complete(SimTime(epoch * 100_000 + 10));
            s.copy_complete(SimTime(epoch * 100_000 + 20));
            s.on_local_ready();
            assert!(s.on_ready_msg(epoch, 0));
            let b = s.finish(SimTime(epoch * 100_000 + 30));
            assert_eq!(b.total(), Cycles(30));
            assert_eq!(s.phase(), SwitchPhase::Idle);
        }
    }

    #[test]
    fn early_halt_before_switch_command_is_buffered() {
        // Fig. 3's left column: a peer halts before our noded notifies us.
        let mut s = SwitchSequencer::new(2);
        assert!(!s.on_halt_msg(5, 1));
        assert!(!s.on_halt_msg(5, 2));
        assert_eq!(s.phase(), SwitchPhase::Idle);
        // start applies the buffered halts: only the local halt remains.
        assert!(!s.start(SimTime(0), 5, 0, 1));
        assert!(s.on_local_halt());
    }

    #[test]
    fn early_ready_messages_are_counted_during_copy() {
        let mut s = SwitchSequencer::new(2);
        s.start(SimTime(0), 1, 0, 1);
        s.on_halt_msg(1, 1);
        s.on_halt_msg(1, 2);
        assert!(s.on_local_halt());
        s.flush_complete(SimTime(10));
        assert!(!s.on_ready_msg(1, 1)); // during Copying
        assert!(!s.on_ready_msg(1, 2));
        s.copy_complete(SimTime(20));
        assert!(s.on_local_ready());
        let b = s.finish(SimTime(25));
        assert_eq!(b.release, Cycles(5));
    }

    #[test]
    #[should_panic(expected = "different epoch")]
    fn cross_epoch_halt_panics() {
        let mut s = SwitchSequencer::new(2);
        s.start(SimTime(0), 3, 0, 1);
        s.on_halt_msg(2, 1);
    }

    #[test]
    #[should_panic(expected = "already in progress")]
    fn overlapping_switches_panic() {
        let mut s = SwitchSequencer::new(1);
        s.start(SimTime(0), 1, 0, 1);
        s.start(SimTime(1), 2, 1, 0);
    }

    #[test]
    fn recovery_dedups_halts_by_source() {
        let mut s = SwitchSequencer::new(2);
        s.set_recovery(true);
        s.start(SimTime(0), 1, 0, 1);
        assert!(!s.on_halt_msg(1, 1));
        // A re-broadcast copy of the same peer's halt changes nothing.
        assert!(!s.on_halt_msg(1, 1));
        assert!(!s.on_halt_msg(1, 1));
        assert!(!s.on_halt_msg(1, 2));
        assert!(s.on_local_halt());
    }

    #[test]
    fn recovery_local_transitions_are_idempotent() {
        let mut s = SwitchSequencer::new(1);
        s.set_recovery(true);
        s.start(SimTime(0), 1, 0, 1);
        assert!(!s.on_local_halt());
        // A second halt-broadcast completion (re-broadcast) is a no-op.
        assert!(!s.on_local_halt());
        assert!(s.on_halt_msg(1, 1));
        s.flush_complete(SimTime(10));
        // Late retransmit of a counted halt while Copying: ignored.
        assert!(!s.on_halt_msg(1, 1));
        s.copy_complete(SimTime(20));
        assert!(!s.on_local_ready());
        assert!(!s.on_local_ready());
        assert!(s.on_ready_msg(1, 1));
        s.finish(SimTime(30));
        assert_eq!(s.last_finished(), Some(1));
    }

    #[test]
    fn recovery_drops_stale_rebroadcasts_of_finished_epochs() {
        let mut s = SwitchSequencer::new(1);
        s.set_recovery(true);
        s.start(SimTime(0), 1, 0, 1);
        s.on_local_halt();
        s.on_halt_msg(1, 1);
        s.flush_complete(SimTime(10));
        s.copy_complete(SimTime(20));
        s.on_local_ready();
        s.on_ready_msg(1, 1);
        s.finish(SimTime(30));
        // Straggling re-broadcasts of epoch 1 while idle: dropped, not
        // buffered (they must not pollute epoch 2's early-message buffer,
        // and a cross-epoch assert must not fire).
        assert!(!s.on_halt_msg(1, 1));
        assert!(!s.on_ready_msg(1, 1));
        // Epoch 2 still starts clean and the peer's messages count once.
        assert!(!s.on_halt_msg(2, 1)); // genuinely early for epoch 2
        s.start(SimTime(100), 2, 0, 1);
        assert!(s.on_local_halt());
        s.flush_complete(SimTime(110));
        s.copy_complete(SimTime(120));
        s.on_local_ready();
        assert!(s.on_ready_msg(2, 1));
        s.finish(SimTime(130));
        assert_eq!(s.last_finished(), Some(2));
    }
}
