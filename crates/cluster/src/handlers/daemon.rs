//! Control-plane handler: quantum rotation, daemon message delivery, job
//! loading (paper Fig. 2), and the switch kickoff.

use std::rc::Rc;

use fastmsg::proc::FmProcess;
use gang_comm::state::SavedCommState;
use hostsim::costs as host;
use hostsim::process::Pid;
use parpar::control::ControlPlane;
use parpar::job::JobId;
use parpar::jobrep::Admission;
use parpar::protocol::{MasterMsg, NodedCmd, TreeMsg};
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::event::{Event, Sched};
use crate::handlers::nic::Signal;
use crate::procsim::ProcSim;
use crate::world::{QueuedSub, World};

impl World {
    /// Dynamic coscheduling: deschedule whoever runs and schedule the
    /// process an incoming message is destined to (related work \[12\]).
    /// Called by the NIC handler on message arrival.
    pub(crate) fn dynamic_cosched_preempt(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        sched: &mut Sched,
    ) {
        let n = &self.nodes[node];
        let cur = n.current_slot;
        // Already scheduled, or no longer live: nothing to preempt.
        if let Some(to) = n.apps.get(&pid).map(|p| p.slot).filter(|&s| s != cur) {
            self.switch_slot(now, node, cur, to, sched);
        }
    }

    /// The masterd's quantum timer fired: rotate if there is anything to
    /// rotate to, and rearm the timer.
    pub(super) fn on_quantum_expired(&mut self, now: SimTime, sched: &mut Sched) {
        self.order_switch(now, sched);
        if self.cfg.auto_rotate {
            sched.at(now + self.cfg.quantum, Event::QuantumExpired);
        }
    }

    /// Ask the masterd for a rotation order and, if it has one, fan the
    /// SwitchSlot command out (arming the reliability watchdog). Shared by
    /// the quantum timer and serving-mode eager reclaim; the masterd's own
    /// guards (switch in flight, nothing to rotate to) make extra calls
    /// no-ops.
    fn order_switch(&mut self, now: SimTime, sched: &mut Sched) {
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
                sched,
            );
            // Reliability: arm the switch watchdog. A lost halt/ready frame
            // would otherwise deadlock the whole cluster in mid-switch.
            if self.cfg.reliability.enabled {
                sched.at(
                    now + self.cfg.reliability.switch_retry,
                    Event::SwitchRetryCheck { epoch: order.epoch },
                );
            }
        }
    }

    /// The masterd's switch watchdog fired: if the epoch is still in
    /// flight, suspect a lost protocol frame and tell every node to re-send
    /// whatever it already emitted (each message is idempotent at every
    /// receiver), then re-arm.
    pub(super) fn on_switch_retry_check(&mut self, now: SimTime, epoch: u64, sched: &mut Sched) {
        if self.master.pending_switch() != Some(epoch) {
            return; // the switch completed; the watchdog dies quietly
        }
        self.stats.switch_retries += 1;
        self.trace.emit(now, Category::Gang, None, || {
            format!("switch epoch {epoch} overdue: multicasting ResendProtocol")
        });
        self.fan_out(now, NodedCmd::ResendProtocol { epoch }, sched);
        sched.at(
            now + self.cfg.reliability.switch_retry,
            Event::SwitchRetryCheck { epoch },
        );
    }

    /// Send one command from the masterd to every node, over whichever
    /// control plane is configured: the paper's flat multicast (one wire
    /// time, all deliveries simultaneous — optimistic at scale), an honest
    /// serial unicast loop (N back-to-back wire transmissions on the
    /// master's link), or the combining tree (one unicast to the root;
    /// each node forwards to its children over its own link).
    fn fan_out(&mut self, now: SimTime, cmd: NodedCmd, sched: &mut Sched) {
        match self.cfg.control {
            ControlPlane::Flat => {
                let deliver = self.ctrl.multicast(now);
                for node in 0..self.cfg.nodes {
                    sched.at(
                        deliver,
                        Event::CtrlToNode {
                            node,
                            cmd: cmd.clone(),
                        },
                    );
                }
            }
            ControlPlane::Serial => {
                for node in 0..self.cfg.nodes {
                    let t = self.ctrl.unicast_to_node(now);
                    sched.at(
                        t,
                        Event::CtrlToNode {
                            node,
                            cmd: cmd.clone(),
                        },
                    );
                }
            }
            ControlPlane::Tree { .. } => {
                let root = self.tree.as_ref().expect("tree control plane").root();
                let t = self.ctrl.unicast_to_node(now);
                sched.at(
                    t,
                    Event::CtrlToPeer {
                        node: root,
                        msg: TreeMsg::Bcast(cmd),
                    },
                );
            }
        }
    }

    /// A node-local scheduler tick (uncoordinated mode): rotate this
    /// node's processes without any cluster-wide coordination.
    pub(super) fn on_node_tick(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        debug_assert!(!self.cfg.gang_scheduling);
        let n = &self.nodes[node];
        let cur = n.current_slot;
        if let Some(next) = n.apps.next_slot(cur).filter(|&s| s != cur) {
            self.switch_slot(now, node, cur, next, sched);
        }
        sched.at(now + self.cfg.quantum, Event::NodeTick { node });
    }

    /// The noded's wake-up latency once a message hits its socket:
    /// scheduling jitter plus dispatch cost.
    fn daemon_wake_delay(&mut self) -> Cycles {
        let jmax = self.cfg.daemon_jitter_max.raw();
        let jitter = if jmax == 0 {
            Cycles::ZERO
        } else {
            Cycles(self.rng.below(jmax + 1))
        };
        host::DAEMON_DISPATCH + jitter
    }

    /// A masterd command was delivered to a node's socket: the noded wakes
    /// up after its scheduling jitter and dispatch cost.
    pub(super) fn on_ctrl_to_node(
        &mut self,
        now: SimTime,
        node: usize,
        cmd: NodedCmd,
        sched: &mut Sched,
    ) {
        let delay = self.daemon_wake_delay();
        sched.at(now + delay, Event::NodedAct { node, cmd });
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
    pub(super) fn on_ctrl_to_peer(
        &mut self,
        now: SimTime,
        node: usize,
        msg: TreeMsg,
        sched: &mut Sched,
    ) {
        let tree = *self.tree.as_ref().expect("CtrlToPeer without a tree");
        let acted = now + self.daemon_wake_delay();
        match msg {
            TreeMsg::Bcast(cmd) => {
                for child in tree.children(node) {
                    let t = self.ctrl.unicast_node_to_node(acted, node);
                    sched.at(
                        t,
                        Event::CtrlToPeer {
                            node: child,
                            msg: TreeMsg::Bcast(cmd.clone()),
                        },
                    );
                }
                sched.at(acted, Event::NodedAct { node, cmd });
            }
            TreeMsg::Ack(ack) => self.route_ack(acted, node, ack, sched),
        }
    }

    /// Route a completion report (`SwitchDone` or `JobFinished`, a count)
    /// from `node`. Without a combining tree, it goes straight to the
    /// masterd. With one, the count folds into `node`'s reduction, and
    /// once its whole subtree has reported the combined count moves one
    /// level up (or to the masterd from the root). A node's own
    /// contribution is free — the noded is already running — only upward
    /// hops pay wire costs.
    pub(crate) fn route_ack(
        &mut self,
        now: SimTime,
        node: usize,
        ack: MasterMsg,
        sched: &mut Sched,
    ) {
        let Some(tree) = self.tree else {
            let t = self.ctrl.unicast_to_master(now);
            sched.at(t, Event::CtrlToMaster { msg: ack });
            return;
        };
        let agg = &mut self.tree_agg[node];
        let folded = match ack {
            MasterMsg::SwitchDone { epoch, count } => agg
                .add_switch_done(epoch, count)
                .map(|count| MasterMsg::SwitchDone { epoch, count }),
            MasterMsg::JobFinished { job, count } => agg
                .add_job_finished(job, count)
                .map(|count| MasterMsg::JobFinished { job, count }),
            MasterMsg::ProcStarted { .. } => unreachable!("ProcStarted is not an ack"),
        };
        let Some(ack) = folded else {
            return;
        };
        match tree.parent(node) {
            Some(parent) => {
                let t = self.ctrl.unicast_node_to_node(now, node);
                let msg = TreeMsg::Ack(ack);
                sched.at(t, Event::CtrlToPeer { node: parent, msg });
            }
            None => {
                let t = self.ctrl.unicast_to_master(now);
                sched.at(t, Event::CtrlToMaster { msg: ack });
            }
        }
    }

    /// A noded report reached the masterd.
    pub(super) fn on_ctrl_to_master(&mut self, now: SimTime, msg: MasterMsg, sched: &mut Sched) {
        match msg {
            MasterMsg::ProcStarted { job } => {
                if let Some(cmds) = self.master.on_proc_started(job) {
                    self.stats.job_all_up.insert(job, now);
                    self.stats.job_bytes.entry(job).or_default();
                    self.trace
                        .emit(now, Category::Gang, None, || format!("{job} all up"));
                    for (n, cmd) in cmds {
                        let t = self.ctrl.unicast_to_node(now);
                        sched.at(t, Event::CtrlToNode { node: n, cmd });
                    }
                }
            }
            MasterMsg::SwitchDone { epoch, count } => {
                if self.master.on_switch_done(epoch, count) {
                    self.complete_switch(now, epoch);
                }
            }
            MasterMsg::JobFinished { job, count } => {
                if self.master.on_job_finished(job, count) {
                    self.complete_job(now, job, sched);
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
    fn complete_job(&mut self, now: SimTime, job: JobId, sched: &mut Sched) {
        self.stats.job_finished.insert(job, now);
        if let Some(&t) = self.stats.job_dispatched.get(&job) {
            self.stats.service_latency.record(now.since(t).raw());
        }
        if let Some(&t) = self.stats.job_submitted.get(&job) {
            self.stats.e2e_latency.record(now.since(t).raw());
        }
        self.trace
            .emit(now, Category::Gang, None, || format!("{job} finished"));
        for (sub, queued) in self.jobrep.drain(&mut self.master) {
            self.admit(now, queued.submitted_at, sub, queued.programs, sched);
        }
        self.stats
            .queue_depth
            .set(now, self.jobrep.waiting() as f64);
        if self.cfg.eager_reclaim && self.cfg.gang_scheduling {
            let cur = self.master.current_slot();
            if !self.master.matrix().active_slots().contains(&cur) {
                self.order_switch(now, sched);
            }
        }
    }

    /// A planned open-loop arrival fired: submit it through the jobrep
    /// queue, recording its submit time (and zero wait if it was admitted
    /// on the spot).
    pub(super) fn on_job_arrival(&mut self, now: SimTime, index: usize, sched: &mut Sched) {
        let planned = self.arrivals[index]
            .take()
            .expect("JobArrival fired twice for the same index");
        self.arrivals_pending -= 1;
        let queued = QueuedSub {
            submitted_at: now,
            programs: planned.programs,
        };
        // A queued job waits with its payload in the jobrep; a rejected
        // one is counted in jobrep.stats (the open-loop source does not
        // retry).
        if let Ok(Admission::Admitted(sub, queued)) =
            self.jobrep.submit(&mut self.master, planned.spec, queued)
        {
            self.admit(now, now, sub, queued.programs, sched);
        }
        self.stats
            .queue_depth
            .set(now, self.jobrep.waiting() as f64);
    }

    /// The noded executes a command.
    pub(super) fn on_noded_act(
        &mut self,
        now: SimTime,
        node: usize,
        cmd: NodedCmd,
        sched: &mut Sched,
    ) {
        match cmd {
            NodedCmd::LoadJob {
                job,
                rank,
                placement,
                slot,
            } => self.load_job(now, node, job, rank, placement, slot, sched),
            NodedCmd::AllUp { job } => {
                let n = &mut self.nodes[node];
                let Some(proc) = n.apps.values_mut().find(|p| p.job == job) else {
                    panic!("AllUp for job not on node {node}");
                };
                let pid = proc.pid;
                // Write the sync byte (Fig. 2); wake the blocked reader.
                let wake = proc.pipe.write(&[1]);
                self.trace.emit(now, Category::Gang, Some(node), || {
                    format!("sync byte written for {job}")
                });
                if wake {
                    sched.at(now + host::PIPE_WRITE, Event::ProcKick { node, pid });
                }
            }
            NodedCmd::SwitchSlot { epoch, from, to } => {
                self.start_switch(now, node, epoch, from, to, sched);
            }
            NodedCmd::ResendProtocol { epoch } => self.on_resend_protocol(now, node, epoch, sched),
        }
    }

    /// Reliability layer: the masterd suspects a lost halt/ready frame for
    /// `epoch`. Re-send whatever protocol messages this node already
    /// emitted, according to where it is in the switch. If the send engine
    /// is mid-packet the attempt is skipped — the watchdog fires again. A
    /// §5 baseline broadcasts nothing, so it has nothing to re-send.
    fn on_resend_protocol(&mut self, now: SimTime, node: usize, epoch: u64, sched: &mut Sched) {
        use gang_comm::sequencer::SwitchPhase;
        let n = &self.nodes[node];
        if n.send_engine_busy || !self.cfg.strategy.uses_flush_protocol() {
            return;
        }
        match n.seq.phase() {
            SwitchPhase::Idle => {
                // Either we already finished the epoch (our ready may have
                // been the lost frame) or our SwitchSlot has not been acted
                // on yet (nothing to re-send).
                if n.seq.last_finished() == Some(epoch) {
                    self.rebroadcast(now, node, Signal::Ready, sched);
                }
            }
            SwitchPhase::Halting => {
                debug_assert_eq!(n.seq.epoch, epoch);
                if n.halt_broadcast_started {
                    self.rebroadcast(now, node, Signal::Halt, sched);
                } else {
                    // The original halt broadcast never ran (the engine was
                    // busy when the halt bit was set and went idle without
                    // re-checking, e.g. because the in-flight packet chain
                    // died to wire loss): run it now, first time, for real.
                    self.kick_send_engine(now, node, sched);
                }
            }
            SwitchPhase::Copying => {
                debug_assert_eq!(n.seq.epoch, epoch);
                self.rebroadcast(now, node, Signal::Halt, sched);
            }
            SwitchPhase::Releasing => {
                debug_assert_eq!(n.seq.epoch, epoch);
                // A peer may have missed our halt *or* our ready; re-send
                // both (the ready re-broadcast chains off the halt
                // completion, see `on_halt_broadcast_done`).
                self.rebroadcast(now, node, Signal::Halt, sched);
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
        sched: &mut Sched,
    ) {
        let geo = self.cfg.fm.geometry();
        let program = self
            .pending_programs
            .remove(&(job, rank))
            .expect("no program registered for (job, rank)");

        // COMM_init_job: make the context able to receive *before* the
        // fork. Under static division every context is resident; under the
        // buffer-switching scheme only the active slot's context occupies
        // the NIC — other jobs start life swapped out.
        let resident = self
            .comm_init_job(now, node, job.0, rank, slot)
            .expect("NIC context allocation failed at load");
        let n = &mut self.nodes[node];

        // Fork: create the process and its pipe. The environment handoff
        // (job, rank, placement) is modelled only by its cost, which the
        // process's `InitMode::ParPar` start-up charges as host work.
        let pid = n.fork();
        let mut fm = FmProcess::new(job.0, rank, placement, geo.credits);
        // Under the no-flush baselines (paper §5) packets can be dropped at
        // a switch and recovered by higher layers; FM's strict FIFO check
        // becomes a gap counter.
        fm.allow_loss = self.cfg.strategy.may_drop()
            || self.cfg.wire_loss_ppm > 0
            || self.cfg.fm.policy == fastmsg::division::BufferPolicy::CachedEndpoints;
        if self.cfg.reliability.enabled {
            fm.enable_reliability();
        }
        if self.cfg.fm.policy == fastmsg::division::BufferPolicy::Demand {
            // The geometry's even split seeds the windows; the ledger's
            // capacity is the context's whole receive queue, so rebalances
            // can grow hot channels up to full-buffer strength.
            fm.enable_demand(geo.recv_slots, self.cfg.nodes);
        }
        let mut proc = ProcSim::new(
            pid,
            job,
            rank,
            slot,
            fm,
            program,
            fastmsg::init::InitMachine::new(self.cfg.init_mode),
        );
        proc.saved = (!resident).then(|| SavedCommState::empty(job.0));
        n.apps.insert(proc);
        self.trace.emit(now, Category::Gang, Some(node), || {
            format!("loaded {job} rank {rank} in slot {slot} ({pid})")
        });

        // Fork cost, then: notify the masterd, and let the process start
        // FM_initialize.
        let after_fork = now + host::FORK;
        let t_master = self.ctrl.unicast_to_master(after_fork);
        sched.at(
            t_master,
            Event::CtrlToMaster {
                msg: MasterMsg::ProcStarted { job },
            },
        );
        sched.at(after_fork, Event::ProcKick { node, pid });
    }
}
