//! Control-plane handler: quantum rotation, daemon message delivery, job
//! loading (paper Fig. 2), and the switch kickoff.

use std::rc::Rc;

use fastmsg::proc::FmProcess;
use gang_comm::state::SavedCommState;
use hostsim::process::{Pid, Signal};
use parpar::control::ControlPlane;
use parpar::job::JobId;
use parpar::protocol::{MasterMsg, NodedCmd, TreeMsg};
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::bus::Bus;
use crate::event::{AppEvent, DaemonEvent};
use crate::handlers::{DaemonHandler, NicHandler, SlotView, SwitchHandler};
use crate::procsim::{ProcPhase, ProcSim};
use crate::world::World;

impl DaemonHandler for World {
    fn on_daemon(&mut self, now: SimTime, ev: DaemonEvent, bus: &mut Bus) {
        match ev {
            DaemonEvent::QuantumExpired => self.on_quantum_expired(now, bus),
            DaemonEvent::NodeTick { node } => self.on_node_tick(now, node, bus),
            DaemonEvent::CtrlToNode { node, cmd } => self.on_ctrl_to_node(now, node, cmd, bus),
            DaemonEvent::CtrlToMaster { msg } => self.on_ctrl_to_master(now, msg, bus),
            DaemonEvent::NodedAct { node, cmd } => self.on_noded_act(now, node, cmd, bus),
            DaemonEvent::SwitchRetryCheck { epoch } => self.on_switch_retry_check(now, epoch, bus),
            DaemonEvent::CtrlToPeer { node, msg } => self.on_ctrl_to_peer(now, node, msg, bus),
            DaemonEvent::JobArrival { index } => self.on_job_arrival(now, index, bus),
        }
    }

    fn dynamic_cosched_preempt(&mut self, now: SimTime, node: usize, pid: Pid, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        let Some(target_slot) = n.apps.get(&pid).map(|p| p.slot) else {
            return;
        };
        if n.noded.current_slot == target_slot {
            return; // already scheduled
        }
        if let Some((_, cur_pid)) = n.noded.in_slot(n.noded.current_slot) {
            n.procs.signal(cur_pid, Signal::Stop);
        }
        n.noded.current_slot = target_slot;
        n.procs.signal(pid, Signal::Cont);
        bus.emit(
            now + self.cfg.host_costs.signal,
            AppEvent::ProcKick { node, pid },
        );
    }
}

impl World {
    /// The masterd's quantum timer fired: rotate if there is anything to
    /// rotate to, and rearm the timer.
    fn on_quantum_expired(&mut self, now: SimTime, bus: &mut Bus) {
        self.order_switch(now, bus);
        if self.cfg.auto_rotate {
            bus.emit(now + self.cfg.quantum, DaemonEvent::QuantumExpired);
        }
    }

    /// Ask the masterd for a rotation order and, if it has one, fan the
    /// SwitchSlot command out (arming the reliability watchdog). Shared by
    /// the quantum timer and serving-mode eager reclaim; the masterd's own
    /// guards (switch in flight, nothing to rotate to) make extra calls
    /// no-ops.
    fn order_switch(&mut self, now: SimTime, bus: &mut Bus) {
        if let Some(order) = self.master.quantum_expired() {
            self.trace.emit(now, Category::Gang, None, || {
                format!(
                    "quantum expired: switch epoch {} slot {} -> {}",
                    order.epoch, order.from, order.to
                )
            });
            self.switch_ordered_at = now;
            self.fan_out(
                now,
                NodedCmd::SwitchSlot {
                    epoch: order.epoch,
                    from: order.from,
                    to: order.to,
                },
                bus,
            );
            // Reliability: arm the switch watchdog. A lost halt/ready frame
            // would otherwise deadlock the whole cluster in mid-switch.
            if self.cfg.reliability.enabled {
                bus.emit(
                    now + self.cfg.reliability.switch_retry,
                    DaemonEvent::SwitchRetryCheck { epoch: order.epoch },
                );
            }
        }
    }

    /// The masterd's switch watchdog fired: if the epoch is still in
    /// flight, suspect a lost protocol frame and tell every node to re-send
    /// whatever it already emitted (each message is idempotent at every
    /// receiver), then re-arm.
    fn on_switch_retry_check(&mut self, now: SimTime, epoch: u64, bus: &mut Bus) {
        if self.master.pending_switch() != Some(epoch) {
            return; // the switch completed; the watchdog dies quietly
        }
        self.stats.switch_retries += 1;
        self.trace.emit(now, Category::Gang, None, || {
            format!("switch epoch {epoch} overdue: multicasting ResendProtocol")
        });
        self.fan_out(now, NodedCmd::ResendProtocol { epoch }, bus);
        bus.emit(
            now + self.cfg.reliability.switch_retry,
            DaemonEvent::SwitchRetryCheck { epoch },
        );
    }

    /// Send one command from the masterd to every node, over whichever
    /// control plane is configured: the paper's flat multicast (one wire
    /// time, all deliveries simultaneous — optimistic at scale), an honest
    /// serial unicast loop (N back-to-back wire transmissions on the
    /// master's link), or the combining tree (one unicast to the root;
    /// each node forwards to its children over its own link).
    fn fan_out(&mut self, now: SimTime, cmd: NodedCmd, bus: &mut Bus) {
        match self.cfg.control {
            ControlPlane::Flat => {
                let deliver = self.ctrl.multicast(now);
                for node in 0..self.cfg.nodes {
                    bus.emit(
                        deliver,
                        DaemonEvent::CtrlToNode {
                            node,
                            cmd: cmd.clone(),
                        },
                    );
                }
            }
            ControlPlane::Serial => {
                for node in 0..self.cfg.nodes {
                    let t = self.ctrl.unicast_to_node(now);
                    bus.emit(
                        t,
                        DaemonEvent::CtrlToNode {
                            node,
                            cmd: cmd.clone(),
                        },
                    );
                }
            }
            ControlPlane::Tree { .. } => {
                let root = self.tree.as_ref().expect("tree control plane").root();
                let t = self.ctrl.unicast_to_node(now);
                bus.emit(
                    t,
                    DaemonEvent::CtrlToPeer {
                        node: root,
                        msg: TreeMsg::Bcast(cmd),
                    },
                );
            }
        }
    }

    /// A node-local scheduler tick (uncoordinated mode): rotate this
    /// node's processes without any cluster-wide coordination.
    fn on_node_tick(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        debug_assert!(!self.cfg.gang_scheduling);
        let n = &mut self.nodes[node];
        let slots: Vec<usize> = n.noded.assignments().map(|(s, _, _)| s).collect();
        if slots.len() > 1 || (slots.len() == 1 && slots[0] != n.noded.current_slot) {
            let cur = n.noded.current_slot;
            let next = slots.iter().copied().find(|&s| s > cur).unwrap_or(slots[0]);
            if next != cur {
                if let Some((_, pid)) = n.noded.in_slot(cur) {
                    n.procs.signal(pid, Signal::Stop);
                }
                n.noded.current_slot = next;
                if let Some((_, pid)) = n.noded.in_slot(next) {
                    n.procs.signal(pid, Signal::Cont);
                    bus.emit(
                        now + self.cfg.host_costs.signal,
                        AppEvent::ProcKick { node, pid },
                    );
                }
            }
        }
        bus.emit(now + self.cfg.quantum, DaemonEvent::NodeTick { node });
    }

    /// The noded's wake-up latency once a message hits its socket:
    /// scheduling jitter plus dispatch cost.
    fn daemon_wake_delay(&mut self) -> Cycles {
        let jmax = self.cfg.host_costs.daemon_jitter_max.raw();
        let jitter = if jmax == 0 {
            Cycles::ZERO
        } else {
            Cycles(self.rng.below(jmax + 1))
        };
        self.cfg.host_costs.daemon_dispatch + jitter
    }

    /// A masterd command was delivered to a node's socket: the noded wakes
    /// up after its scheduling jitter and dispatch cost.
    fn on_ctrl_to_node(&mut self, now: SimTime, node: usize, cmd: NodedCmd, bus: &mut Bus) {
        let delay = self.daemon_wake_delay();
        bus.emit(now + delay, DaemonEvent::NodedAct { node, cmd });
    }

    /// A combining-tree message reached a peer noded (`ControlPlane::Tree`).
    ///
    /// Broadcasts descend: the noded wakes (jitter + dispatch), re-sends the
    /// command to each child — the sends serialize on this node's own
    /// control link — and then acts on it locally like any other command.
    /// Ack counts ascend: the wake cost is paid, the count folds into this
    /// node's reduction, and exactly when the whole subtree has reported
    /// the combined count moves one level up (or to the master at the
    /// root). Depth × (wake + wire) is the honest O(log N) latency.
    fn on_ctrl_to_peer(&mut self, now: SimTime, node: usize, msg: TreeMsg, bus: &mut Bus) {
        let tree = *self.tree.as_ref().expect("CtrlToPeer without a tree");
        let acted = now + self.daemon_wake_delay();
        match msg {
            TreeMsg::Bcast(cmd) => {
                for child in tree.children(node) {
                    let t = self.ctrl.unicast_node_to_node(acted, node);
                    bus.emit(
                        t,
                        DaemonEvent::CtrlToPeer {
                            node: child,
                            msg: TreeMsg::Bcast(cmd.clone()),
                        },
                    );
                }
                bus.emit(acted, DaemonEvent::NodedAct { node, cmd });
            }
            TreeMsg::SwitchDoneAgg { epoch, count } => {
                if let Some(total) = self.tree_agg[node].add_switch_done(epoch, count) {
                    self.forward_switch_agg(acted, node, epoch, total, bus);
                }
            }
            TreeMsg::JobFinishedAgg { job, count } => {
                if let Some(total) = self.tree_agg[node].add_job_finished(job, count) {
                    self.forward_job_agg(acted, node, job, total, bus);
                }
            }
        }
    }

    /// Send a completed switch-done reduction one level up the tree, or to
    /// the masterd from the root.
    fn forward_switch_agg(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        count: usize,
        bus: &mut Bus,
    ) {
        let tree = self.tree.as_ref().expect("tree control plane");
        match tree.parent(node) {
            Some(parent) => {
                let t = self.ctrl.unicast_node_to_node(now, node);
                bus.emit(
                    t,
                    DaemonEvent::CtrlToPeer {
                        node: parent,
                        msg: TreeMsg::SwitchDoneAgg { epoch, count },
                    },
                );
            }
            None => {
                let t = self.ctrl.unicast_to_master(now);
                bus.emit(
                    t,
                    DaemonEvent::CtrlToMaster {
                        msg: MasterMsg::SwitchDoneAgg { epoch, count },
                    },
                );
            }
        }
    }

    /// Send a completed job-finished reduction one level up the tree, or to
    /// the masterd from the root.
    fn forward_job_agg(
        &mut self,
        now: SimTime,
        node: usize,
        job: JobId,
        count: usize,
        bus: &mut Bus,
    ) {
        let tree = self.tree.as_ref().expect("tree control plane");
        match tree.parent(node) {
            Some(parent) => {
                let t = self.ctrl.unicast_node_to_node(now, node);
                bus.emit(
                    t,
                    DaemonEvent::CtrlToPeer {
                        node: parent,
                        msg: TreeMsg::JobFinishedAgg { job, count },
                    },
                );
            }
            None => {
                let t = self.ctrl.unicast_to_master(now);
                bus.emit(
                    t,
                    DaemonEvent::CtrlToMaster {
                        msg: MasterMsg::JobFinishedAgg { job, count },
                    },
                );
            }
        }
    }

    /// A node's own switch completed (tree control plane): contribute one
    /// ack to the local reduction; the combined count ascends when the
    /// subtree is done. The local contribution is free — the noded is
    /// already running — only upward hops pay wake and wire costs.
    pub(crate) fn tree_report_switch_done(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        bus: &mut Bus,
    ) {
        if let Some(total) = self.tree_agg[node].add_switch_done(epoch, 1) {
            self.forward_switch_agg(now, node, epoch, total, bus);
        }
    }

    /// A node's own process exited (tree control plane): contribute one ack
    /// to the local job reduction, ascending like switch acks.
    pub(crate) fn tree_report_job_finished(
        &mut self,
        now: SimTime,
        node: usize,
        job: JobId,
        bus: &mut Bus,
    ) {
        if let Some(total) = self.tree_agg[node].add_job_finished(job, 1) {
            self.forward_job_agg(now, node, job, total, bus);
        }
    }

    /// A noded report reached the masterd.
    fn on_ctrl_to_master(&mut self, now: SimTime, msg: MasterMsg, bus: &mut Bus) {
        match msg {
            MasterMsg::ProcStarted { job, node } => {
                if let Some(cmds) = self.master.on_proc_started(job, node) {
                    self.stats.job_all_up.insert(job, now);
                    self.stats.job_bw.entry(job).or_default().open(now);
                    self.trace
                        .emit(now, Category::Gang, None, || format!("{job} all up"));
                    for (n, cmd) in cmds {
                        let t = self.ctrl.unicast_to_node(now);
                        bus.emit(t, DaemonEvent::CtrlToNode { node: n, cmd });
                    }
                }
            }
            MasterMsg::SwitchDone { epoch, node } => {
                if self.master.on_switch_done(node, epoch) {
                    self.complete_switch(now, epoch);
                }
            }
            MasterMsg::JobFinished { job, node } => {
                if self.master.on_job_finished(job, node) {
                    self.complete_job(now, job, bus);
                }
            }
            MasterMsg::SwitchDoneAgg { epoch, count } => {
                if self.master.on_switch_done_agg(epoch, count) {
                    self.complete_switch(now, epoch);
                }
            }
            MasterMsg::JobFinishedAgg { job, count } => {
                if self.master.on_job_finished_agg(job, count) {
                    self.complete_job(now, job, bus);
                }
            }
        }
    }

    /// The masterd saw the whole cluster finish a switch.
    fn complete_switch(&mut self, now: SimTime, epoch: u64) {
        self.stats.switches += 1;
        self.stats
            .switch_latency
            .push((epoch, now.since(self.switch_ordered_at)));
    }

    /// The masterd saw a job's last process exit: record it (service and
    /// end-to-end latency for jobrep-submitted jobs), admit queued jobs
    /// into the freed matrix space, and — in serving mode with eager
    /// reclaim — rotate away from a now-empty current slot instead of
    /// idling out the quantum.
    fn complete_job(&mut self, now: SimTime, job: JobId, bus: &mut Bus) {
        self.stats.job_finished.insert(job, now);
        if let Some(&t) = self.stats.job_dispatched.get(&job) {
            self.stats.service_latency.record(now.since(t).raw());
        }
        if let Some(&t) = self.stats.job_submitted.get(&job) {
            self.stats.e2e_latency.record(now.since(t).raw());
        }
        self.trace
            .emit(now, Category::Gang, None, || format!("{job} finished"));
        let drained = self.jobrep.drain(&mut self.master);
        for ticket in &drained.dropped {
            self.queued_programs.remove(ticket);
        }
        for (ticket, sub) in drained.admitted {
            let queued = self
                .queued_programs
                .remove(&ticket)
                .expect("queued programs out of sync with jobrep");
            self.stats
                .job_submitted
                .insert(sub.job, queued.submitted_at);
            self.stats.job_dispatched.insert(sub.job, now);
            self.stats
                .wait_latency
                .record(now.since(queued.submitted_at).raw());
            self.dispatch_submission(now, sub, queued.programs, bus);
        }
        self.stats
            .queue_depth
            .set(now, self.jobrep.waiting() as f64);
        if self.cfg.eager_reclaim && self.cfg.gang_scheduling {
            let cur = self.master.current_slot();
            if !self.master.matrix().active_slots().contains(&cur) {
                self.order_switch(now, bus);
            }
        }
    }

    /// A planned open-loop arrival fired: submit it through the jobrep
    /// queue, recording its submit time (and zero wait if it was admitted
    /// on the spot).
    fn on_job_arrival(&mut self, now: SimTime, index: usize, bus: &mut Bus) {
        let planned = self.arrivals[index]
            .take()
            .expect("JobArrival fired twice for the same index");
        self.arrivals_pending -= 1;
        match self.jobrep.submit(&mut self.master, planned.spec) {
            Ok(parpar::jobrep::Admission::Admitted(sub)) => {
                self.stats.job_submitted.insert(sub.job, now);
                self.stats.job_dispatched.insert(sub.job, now);
                self.stats.wait_latency.record(0);
                self.dispatch_submission(now, sub, planned.programs, bus);
            }
            Ok(parpar::jobrep::Admission::Queued(ticket)) => {
                self.queued_programs.insert(
                    ticket,
                    crate::world::QueuedSub {
                        submitted_at: now,
                        programs: planned.programs,
                    },
                );
            }
            Err(_) => {
                // Counted as rejected in jobrep.stats; the open-loop source
                // does not retry.
            }
        }
        self.stats
            .queue_depth
            .set(now, self.jobrep.waiting() as f64);
    }

    /// The noded executes a command.
    fn on_noded_act(&mut self, now: SimTime, node: usize, cmd: NodedCmd, bus: &mut Bus) {
        match cmd {
            NodedCmd::LoadJob {
                job,
                rank,
                placement,
                slot,
            } => self.load_job(now, node, job, rank, placement, slot, bus),
            NodedCmd::AllUp { job } => {
                let Some((_, pid)) = self.noded_lookup(node, job) else {
                    panic!("AllUp for job not on node {node}");
                };
                let n = &mut self.nodes[node];
                let proc = n.apps.get_mut(&pid).expect("AllUp for unknown process");
                // Write the sync byte (Fig. 2); wake the blocked reader.
                let wake = proc.pipe.write(&[1]);
                self.trace.emit(now, Category::Gang, Some(node), || {
                    format!("sync byte written for {job}")
                });
                if wake {
                    bus.emit(
                        now + self.cfg.host_costs.pipe_write,
                        AppEvent::ProcKick { node, pid },
                    );
                }
            }
            NodedCmd::SwitchSlot { epoch, from, to } => {
                self.start_switch(now, node, epoch, from, to, bus);
            }
            NodedCmd::KillJob { job } => {
                if let Some((slot, pid)) = self.nodes[node].noded.remove_job(job) {
                    let _ = slot;
                    self.nodes[node].procs.signal(pid, Signal::Kill);
                    self.nodes[node].apps.remove(&pid);
                }
            }
            NodedCmd::ResendProtocol { epoch } => self.on_resend_protocol(now, node, epoch, bus),
        }
    }

    /// Reliability layer: the masterd suspects a lost halt/ready frame for
    /// `epoch`. Re-send whatever protocol messages this node already
    /// emitted, according to where it is in the switch. If the send engine
    /// is mid-packet the attempt is skipped — the watchdog fires again.
    fn on_resend_protocol(&mut self, now: SimTime, node: usize, epoch: u64, bus: &mut Bus) {
        use gang_comm::sequencer::SwitchPhase;
        let n = &self.nodes[node];
        if n.send_engine_busy {
            return;
        }
        match n.seq.phase() {
            SwitchPhase::Idle => {
                // Either we already finished the epoch (our ready may have
                // been the lost frame) or our SwitchSlot has not been acted
                // on yet (nothing to re-send).
                if n.seq.last_finished() == Some(epoch) {
                    self.rebroadcast_ready(now, node, bus);
                }
            }
            SwitchPhase::Halting => {
                debug_assert_eq!(n.seq.epoch, epoch);
                if n.halt_broadcast_started {
                    self.rebroadcast_halt(now, node, bus);
                } else {
                    // The original halt broadcast never ran (the engine was
                    // busy when the halt bit was set and went idle without
                    // re-checking, e.g. because the in-flight packet chain
                    // died to wire loss): run it now, first time, for real.
                    self.kick_send_engine(now, node, bus);
                }
            }
            SwitchPhase::Copying => {
                debug_assert_eq!(n.seq.epoch, epoch);
                self.rebroadcast_halt(now, node, bus);
            }
            SwitchPhase::Releasing => {
                debug_assert_eq!(n.seq.epoch, epoch);
                // A peer may have missed our halt *or* our ready; re-send
                // both (the ready re-broadcast chains off the halt
                // completion, see `on_halt_broadcast_done`).
                self.rebroadcast_halt(now, node, bus);
            }
        }
    }

    /// COMM_init_job + fork + ProcStarted notification (Fig. 2, left).
    #[allow(clippy::too_many_arguments)]
    fn load_job(
        &mut self,
        now: SimTime,
        node: usize,
        job: parpar::job::JobId,
        rank: usize,
        placement: Rc<[usize]>,
        slot: usize,
        bus: &mut Bus,
    ) {
        let geo = self.cfg.fm.geometry();
        let program = self
            .pending_programs
            .remove(&(job, rank))
            .expect("no program registered for (job, rank)");

        // COMM_init_job: make the context able to receive *before* the
        // fork. Under static division every context is resident; under the
        // buffer-switching scheme only the active slot's context occupies
        // the NIC — other jobs start life in the backing store.
        let resident = self
            .comm_init_job(now, node, job.0, rank, slot)
            .expect("NIC context allocation failed at load");
        let n = &mut self.nodes[node];

        // Fork: create the process and its pipe. The environment handoff
        // (job, rank, placement) is modelled only by its cost, which the
        // process's `InitMode::ParPar` start-up charges as host work.
        let pid = n.procs.fork();
        n.noded.assign(slot, job, pid);
        let mut fm = FmProcess::new(job.0, rank, placement, self.cfg.nodes, geo.credits);
        // Under the no-flush baselines (paper §5) packets can be dropped at
        // a switch and recovered by higher layers; FM's strict FIFO check
        // becomes a gap counter.
        fm.allow_loss = self.cfg.strategy.may_drop()
            || self.cfg.wire_loss_ppm > 0
            || self.cfg.fm.policy == fastmsg::division::BufferPolicy::CachedEndpoints;
        if self.cfg.reliability.enabled {
            fm.enable_reliability(self.cfg.nodes);
        }
        if self.cfg.fm.policy == fastmsg::division::BufferPolicy::Demand {
            // The geometry's even split seeds the windows; the ledger's
            // capacity is the context's whole receive queue, so rebalances
            // can grow hot channels up to full-buffer strength.
            fm.enable_demand(geo.recv_slots);
        }
        let proc = ProcSim {
            pid,
            job,
            rank,
            slot,
            fm,
            program,
            init: fastmsg::init::InitMachine::new(self.cfg.init_mode),
            phase: ProcPhase::Initializing,
            sending: None,
            blocked: None,
            busy: false,
            pipe: hostsim::pipe::Pipe::new(),
            pending_refills: std::collections::BTreeMap::new(),
            deferred_pkt: None,
            first_send: None,
            finished_at: None,
            rel_timer_armed: false,
            rel_backoff: 0,
            rel_progress_mark: 0,
        };
        n.apps.insert(pid, proc);
        if !resident {
            n.backing.save(pid, SavedCommState::empty(job.0), 0);
        }
        self.trace.emit(now, Category::Gang, Some(node), || {
            format!("loaded {job} rank {rank} in slot {slot} ({pid})")
        });

        // Fork cost, then: notify the masterd, and let the process start
        // FM_initialize.
        let after_fork = now + self.cfg.host_costs.fork;
        let t_master = self.ctrl.unicast_to_master(after_fork);
        bus.emit(
            t_master,
            DaemonEvent::CtrlToMaster {
                msg: MasterMsg::ProcStarted { job, node },
            },
        );
        bus.emit(after_fork, AppEvent::ProcKick { node, pid });
    }
}
