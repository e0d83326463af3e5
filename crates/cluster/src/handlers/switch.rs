//! Gang-switch handler: the three-phase context switch (paper §3.2) and
//! the §5 baseline strategies.

use fastmsg::division::BufferPolicy;
use gang_comm::sequencer::StageBreakdown;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher;
use parpar::protocol::MasterMsg;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::event::{Event, Sched};
use crate::node::AltSwitch;
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
        self.nodes[node].noded.current_slot = to;
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("switch epoch {epoch}: slot {from} -> {to}")
        });

        // SIGSTOP the outgoing process first: "at this point it is assured
        // that the process will not produce any more packets".
        if let Some(pid) = self.nodes[node].app_in_slot(from) {
            self.nodes[node].stop(pid);
        }

        let alt = AltSwitch {
            epoch,
            from,
            to,
            started: now,
            halt_done: now,
            copying: false,
        };
        match self.cfg.strategy {
            // The paper's scheme: halt + global flush, copy, release (three
            // phases, each a broadcast barrier).
            SwitchStrategy::GangFlush => {
                if matches!(
                    self.cfg.fm.policy,
                    BufferPolicy::StaticDivision
                        | BufferPolicy::CachedEndpoints
                        | BufferPolicy::Demand
                ) {
                    // Every context is permanently resident: nothing to
                    // flush or copy — the switch is just signals.
                    self.resume_incoming(now, node, to, sched);
                    self.route_ack(now, node, MasterMsg::SwitchDone { epoch, count: 1 }, sched);
                    return;
                }
                self.nodes[node].seq.start(now, epoch, from, to);
                // COMM_halt_network: stop sending on a packet boundary and
                // run the global flush protocol.
                self.comm_halt_network(now, node, sched)
                    .expect("halt ordered while idle");
            }
            // SHARE/PM-style baseline: no flush — stop sending and copy
            // immediately; stragglers are dropped by the job-ID check on
            // arrival.
            SwitchStrategy::ShareDiscard { .. } => {
                self.nodes[node].nic.set_halt_bit(true);
                self.nodes[node].alt_switch = Some(alt);
                self.begin_alt_copy(now, node, sched);
            }
            // Per-node drain baseline: stop sending and wait until every
            // in-flight packet is acknowledged, then copy. No broadcasts.
            SwitchStrategy::AckDrain => {
                self.nodes[node].nic.set_halt_bit(true);
                self.nodes[node].alt_switch = Some(alt);
                self.alt_drain_maybe_done(now, node, sched);
            }
        }
    }

    /// AckDrain: if the send engine is quiet and nothing is outstanding,
    /// the drain phase is over. Called by the NIC handler per ack.
    pub(crate) fn alt_drain_maybe_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let n = &self.nodes[node];
        let Some(alt) = n.alt_switch else {
            return;
        };
        if alt.copying || n.outstanding > 0 || n.send_engine_busy {
            return;
        }
        self.begin_alt_copy(now, node, sched);
    }

    /// A baseline switch's halt (or drain) phase is over: start the copy.
    fn begin_alt_copy(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let alt = self.nodes[node]
            .alt_switch
            .as_mut()
            .expect("baseline copy without a switch in progress");
        alt.copying = true;
        alt.halt_done = now;
        let (from, to) = (alt.from, alt.to);
        let cost = self.copy_cost_for(node, from, to);
        let r = self.nodes[node].cpu.reserve(now, cost);
        sched.at(r.end, Event::CopyDone { node });
    }

    /// Occupancy-dependent buffer-switch cost; also records the Fig. 8
    /// queue sample for the outgoing context. Used by `COMM_context_switch`.
    pub(crate) fn copy_cost_for(&mut self, node: usize, from: usize, to: usize) -> Cycles {
        let mut cost = Cycles::from_us(5); // noded bookkeeping floor
        if let Some((s, r)) = self.outgoing_occupancy(node, from) {
            let epoch = self.current_epoch(node);
            self.stats.queue_samples.push(QueueSample {
                node,
                epoch,
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
    /// by the NIC handler when the last halt message is counted.
    pub(crate) fn finish_flush(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.nodes[node].seq.flush_complete(now);
        self.trace
            .emit(now, Category::Switch, Some(node), || "flushed".to_string());
        // COMM_context_switch: swap buffers.
        self.comm_context_switch(now, node, None, None, sched)
            .expect("copy ordered before flush completed");
    }

    /// Release protocol complete: restart communication and resume the
    /// incoming process. Called by the NIC handler when the last ready
    /// message is counted.
    pub(crate) fn finish_release(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let breakdown = self.nodes[node].seq.finish(now);
        let seq = &self.nodes[node].seq;
        let (epoch, to) = (seq.epoch, seq.to_slot);
        self.end_switch(now, node, epoch, to, breakdown, sched);
    }

    fn current_epoch(&self, node: usize) -> u64 {
        self.nodes[node]
            .alt_switch
            .map(|a| a.epoch)
            .unwrap_or(self.nodes[node].seq.epoch)
    }

    /// (send, recv) occupancy of the outgoing job's resident context in
    /// `slot` on `node`, if any.
    fn outgoing_occupancy(&self, node: usize, slot: usize) -> Option<(usize, usize)> {
        let n = &self.nodes[node];
        let proc = n.apps.get(&n.app_in_slot(slot)?)?;
        let ctx = n.nic.context(n.nic.find_context(proc.fm.job)?)?;
        Some((ctx.send_q.len(), ctx.recv_q.len()))
    }

    /// Saved occupancy of the incoming job's state in the backing store.
    fn incoming_occupancy(&self, node: usize, to: usize) -> Option<(usize, usize)> {
        let pid = self.nodes[node].app_in_slot(to)?;
        self.nodes[node].backing.peek(pid).map(|s| s.occupancy())
    }

    /// The buffer copy finished: move the queue contents and enter the
    /// release phase (or, for the baselines, finish directly).
    pub(super) fn on_copy_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        if let Some(alt) = self.nodes[node].alt_switch.take() {
            // A baseline switch has no release protocol.
            self.move_buffers(now, node, alt.from, alt.to);
            let breakdown = StageBreakdown {
                halt: alt.halt_done.since(alt.started),
                buffer_switch: now.since(alt.halt_done),
                release: Cycles::ZERO,
            };
            self.end_switch(now, node, alt.epoch, alt.to, breakdown, sched);
            return;
        }
        let s = &self.nodes[node].seq;
        let (from, to) = (s.from_slot, s.to_slot);
        self.move_buffers(now, node, from, to);
        self.nodes[node].seq.copy_complete(now);
        // COMM_release_network: broadcast ready, collect peers' readys.
        self.comm_release_network(now, node, sched)
            .expect("release ordered before the copy completed");
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
        if let Some(pid_in) = n.app_in_slot(to) {
            if n.backing.contains(pid_in) {
                let proc = &n.apps[&pid_in];
                let ctx_id = n
                    .nic
                    .alloc_context(proc.fm.job, proc.rank, geo.send_slots, geo.recv_slots)
                    .expect("NIC context slot must be free after eviction");
                n.restore_context(pid_in, ctx_id);
            }
        }
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!("buffers switched (slot {from} -> {to})")
        });
    }

    /// The end of every switch that copied buffers: record its stages,
    /// clear the halt state, restart sending, resume the incoming process
    /// and ack the masterd.
    fn end_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        to: usize,
        breakdown: StageBreakdown,
        sched: &mut Sched,
    ) {
        self.stats.record_switch(node, epoch, breakdown);
        let n = &mut self.nodes[node];
        n.nic.set_halt_bit(false);
        n.halt_requested = false;
        n.halt_broadcast_started = false;
        n.noded.switches_done += 1;
        self.kick_send_engine(now, node, sched);
        self.resume_incoming(now, node, to, sched);
        self.route_ack(now, node, MasterMsg::SwitchDone { epoch, count: 1 }, sched);
    }

    fn resume_incoming(&mut self, now: SimTime, node: usize, to: usize, sched: &mut Sched) {
        if let Some(pid_in) = self.nodes[node].app_in_slot(to) {
            self.nodes[node].cont(pid_in);
            sched.at(
                now + self.cfg.host_costs.signal,
                Event::ProcKick { node, pid: pid_in },
            );
        }
    }
}
