//! Gang-switch handler: the three-phase context switch (paper §3.2) and
//! the §5 baseline strategies.

use fastmsg::division::BufferPolicy;
use gang_comm::sequencer::SwitchPhase;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher;
use hostsim::costs as host;
use parpar::protocol::MasterMsg;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::event::{Event, Sched};
use crate::stats::QueueSample;
use crate::world::World;

/// Relative jitter applied to each buffer-copy duration (cache and
/// memory-system variance on real hardware); the paper's release phase
/// grows with node count because unsynchronized nodes finish copying at
/// different times.
pub const COPY_JITTER_PCT: f64 = 0.03;

impl World {
    /// The noded received SwitchSlot: stop the outgoing process and run
    /// the configured strategy's switch sequence.
    pub(crate) fn start_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        from: usize,
        to: usize,
        sched: &mut Sched,
    ) {
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("switch epoch {epoch}: slot {from} -> {to}")
        });
        if self.cfg.fm.policy != BufferPolicy::FullBuffer {
            // Every context is permanently resident: whatever the
            // strategy, nothing to flush or copy — the switch is just
            // signals.
            self.switch_slot(now, node, from, to, sched);
            self.nodes[node].switches_done += 1;
            self.route_ack(now, node, MasterMsg::SwitchDone { epoch, count: 1 }, sched);
            return;
        }

        // SIGSTOP the outgoing process first: "at this point it is assured
        // that the process will not produce any more packets". The
        // incoming one is continued once the release completes.
        let n = &mut self.nodes[node];
        if let Some(pid) = n.app_in_slot(from) {
            n.stop(pid);
        }
        n.current_slot = to;
        n.seq.start(now, epoch, from, to);
        match self.cfg.strategy {
            // The paper's scheme: halt + global flush, copy, release (three
            // phases, each a broadcast barrier). COMM_halt_network: stop
            // sending on a packet boundary and run the global flush
            // protocol.
            SwitchStrategy::GangFlush => self
                .comm_halt_network(now, node, sched)
                .expect("halt ordered while idle"),
            // The §5 baselines run the same three phases with no peers to
            // wait on: stop sending, halt once this node alone is quiet,
            // copy, and release at once.
            SwitchStrategy::ShareDiscard | SwitchStrategy::AckDrain => {
                n.nic.set_halt_bit(true);
                self.baseline_halt_maybe_done(now, node, sched);
            }
        }
    }

    /// SIGSTOP the process in slot `from`, make `to` the node's current
    /// slot, and SIGCONT and kick the process in it: the whole of a switch
    /// that moves no buffers, and the end of one that does.
    pub(crate) fn switch_slot(
        &mut self,
        now: SimTime,
        node: usize,
        from: usize,
        to: usize,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        if let Some(pid) = n.app_in_slot(from) {
            n.stop(pid);
        }
        n.current_slot = to;
        if let Some(pid) = n.app_in_slot(to) {
            n.cont(pid);
            sched.at(now + host::SIGNAL, Event::ProcKick { node, pid });
        }
    }

    /// A baseline's halt phase: SHARE-style discard halts at once (its
    /// stragglers are dropped by the job-ID check on arrival); PM/SCore
    /// ack-drain halts once the send engine is quiet and every packet it
    /// injected is acked or nacked. Called by the NIC handler per ack and
    /// per nack.
    pub(crate) fn baseline_halt_maybe_done(
        &mut self,
        now: SimTime,
        node: usize,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        if n.seq.phase() != SwitchPhase::Halting {
            return;
        }
        let drained = n.outstanding == 0 && !n.send_engine_busy;
        if self.cfg.strategy.uses_acks() && !drained {
            return;
        }
        let complete = n.seq.on_local_halt();
        debug_assert!(complete, "a baseline sequencer has no peers");
        self.finish_flush(now, node, sched);
    }

    /// Occupancy-dependent buffer-switch cost; also records the Fig. 8
    /// queue sample for the outgoing context. Used by `COMM_context_switch`.
    pub(crate) fn copy_cost_for(&mut self, node: usize, from: usize, to: usize) -> Cycles {
        let mut cost = Cycles::from_us(5); // noded bookkeeping floor
        if let Some((s, r)) = self.outgoing_occupancy(node, from) {
            self.stats.queue_samples.push(QueueSample {
                node,
                epoch: self.nodes[node].seq.epoch,
                send_valid: s,
                recv_valid: r,
            });
            cost += switcher::save_cost(self.cfg.copy, &self.cfg.fm, s, r);
        }
        if let Some((s, r)) = self.incoming_occupancy(node, to) {
            cost += switcher::restore_cost(self.cfg.copy, &self.cfg.fm, s, r);
        }
        // Real copies vary run to run (cache state, DRAM refresh); the
        // variance is what desynchronizes the release phase.
        let f = 1.0 + COPY_JITTER_PCT * (2.0 * self.rng.unit() - 1.0);
        Cycles((cost.raw() as f64 * f) as u64)
    }

    /// The flush completed on this node: begin the buffer switch. Called
    /// by the NIC handler when the last halt message is counted, or by
    /// [`World::baseline_halt_maybe_done`].
    pub(crate) fn finish_flush(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.nodes[node].seq.flush_complete(now);
        self.trace
            .emit(now, Category::Switch, Some(node), || "flushed".to_string());
        // COMM_context_switch: swap buffers.
        self.comm_context_switch(now, node, None, None, sched)
            .expect("copy ordered before flush completed");
    }

    /// Release protocol complete: record the switch's stages, clear the
    /// halt state, restart sending, resume the incoming process and ack
    /// the masterd. Called by the NIC handler when the last ready message
    /// is counted, or at once after a baseline's copy.
    pub(crate) fn finish_release(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let breakdown = self.nodes[node].seq.finish(now);
        let n = &mut self.nodes[node];
        let (epoch, to) = (n.seq.epoch, n.seq.to_slot);
        self.stats.record_switch(node, epoch, breakdown);
        n.nic.set_halt_bit(false);
        n.halt_broadcast_started = false;
        n.switches_done += 1;
        self.kick_send_engine(now, node, sched);
        // Only the incoming process is left to run: the outgoing one was
        // stopped, and `to` made current, when the switch began.
        self.switch_slot(now, node, to, to, sched);
        self.route_ack(now, node, MasterMsg::SwitchDone { epoch, count: 1 }, sched);
    }

    /// (send, recv) occupancy of the outgoing job's resident context in
    /// `slot` on `node`, if any.
    fn outgoing_occupancy(&self, node: usize, slot: usize) -> Option<(usize, usize)> {
        let n = &self.nodes[node];
        let proc = n.apps.in_slot(slot)?;
        let ctx = n.nic.context(n.nic.find_context(proc.fm.job)?)?;
        Some((ctx.send_q.len(), ctx.recv_q.len()))
    }

    /// Saved occupancy of the incoming process's swapped-out queues.
    fn incoming_occupancy(&self, node: usize, to: usize) -> Option<(usize, usize)> {
        let proc = self.nodes[node].apps.in_slot(to)?;
        proc.saved.as_ref().map(|s| s.occupancy())
    }

    /// The buffer copy finished: move the queue contents and enter the
    /// release phase.
    pub(super) fn on_copy_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let s = &self.nodes[node].seq;
        let (from, to) = (s.from_slot, s.to_slot);
        self.move_buffers(now, node, from, to);
        self.nodes[node].seq.copy_complete(now);
        if self.cfg.strategy.uses_flush_protocol() {
            // COMM_release_network: broadcast ready, collect peers' readys.
            self.comm_release_network(now, node, sched)
                .expect("release ordered before the copy completed");
        } else {
            // A baseline has no peers to wait on: its own ready releases.
            let complete = self.nodes[node].seq.on_local_ready();
            debug_assert!(complete, "a baseline sequencer has no peers");
            self.finish_release(now, node, sched);
        }
    }

    /// Physically exchange the queue contents (paper Fig. 4).
    fn move_buffers(&mut self, now: SimTime, node: usize, from: usize, to: usize) {
        let geo = self.cfg.fm.geometry();
        let n = &mut self.nodes[node];
        if let Some(pid_out) = n.app_in_slot(from) {
            if let Some(ctx_id) = n.nic.find_context(n.apps[&pid_out].fm.job) {
                n.save_context(ctx_id, pid_out);
            }
        }
        if let Some(proc) = n.apps.in_slot(to).filter(|p| p.saved.is_some()) {
            let pid_in = proc.pid;
            let ctx_id = n
                .nic
                .alloc_context(proc.fm.job, proc.rank, geo.send_slots, geo.recv_slots)
                .expect("NIC context slot must be free after eviction");
            n.restore_context(pid_in, ctx_id);
        }
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("buffers switched (slot {from} -> {to})")
        });
    }
}
