//! Control-plane handler: quantum rotation, daemon message delivery, job
//! loading (paper Fig. 2), and the switch kickoff.

use std::rc::Rc;

use fastmsg::proc::FmProcess;
use gang_comm::state::SavedCommState;
use hostsim::costs as host;
use hostsim::process::Pid;
use parpar::control::{ControlPlane, PER_MSG_WIRE};
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
        let multicast = match self.cfg.control {
            ControlPlane::Flat => true,
            ControlPlane::Serial => false,
            ControlPlane::Tree { .. } => {
                let root = self.tree.as_ref().expect("tree control plane").root();
                let t = self.ctrl.unicast_to_node(now);
                let msg = TreeMsg::Bcast(cmd);
                sched.at(t, Event::CtrlToPeer { node: root, msg });
                return;
            }
        };
        let every = Commands::Every(cmd, self.cfg.nodes);
        self.send_commands(now, multicast, every, sched);
    }

    /// Send `cmds` from the masterd at `now`, as one multicast (every
    /// delivery at once) or as a serial unicast loop on its link. The
    /// deliveries claim one block of seqs where the loop would have
    /// scheduled them, one per delivery, and are parked as a command
    /// train of which only the head is queued (DESIGN.md §3i).
    pub(crate) fn send_commands(
        &mut self,
        now: SimTime,
        multicast: bool,
        cmds: Commands,
        sched: &mut Sched,
    ) {
        let len = cmds.len();
        let (first, gap) = if multicast {
            (self.ctrl.multicast(now), Cycles::ZERO)
        } else {
            (self.ctrl.unicast_train(now, len), PER_MSG_WIRE)
        };
        let base_seq = sched.claim_seqs(len as u64);
        if len > 0 {
            let train = self.cmd_trains.open(CmdTrain {
                first,
                gap,
                base_seq,
                cmds,
                next: 0,
            });
            sched.push_claimed(first, base_seq, Event::CtrlToNode { train });
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

    /// The head of a command train was delivered to its node's socket:
    /// queue the train's next delivery, then wake the noded after its
    /// scheduling jitter and dispatch cost.
    pub(super) fn on_ctrl_to_node(&mut self, now: SimTime, train: u32, sched: &mut Sched) {
        let (node, cmd, next) = self.cmd_trains.advance(train);
        if let Some((t, seq)) = next {
            sched.push_claimed(t, seq, Event::CtrlToNode { train });
        }
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
                if let Some(nodes) = self.master.on_proc_started(job) {
                    let all_up = Commands::Listed(NodedCmd::AllUp { job }, nodes.to_vec());
                    self.stats.job_all_up.insert(job, now);
                    self.stats.job_bytes.entry(job).or_default();
                    self.trace
                        .emit(now, Category::Gang, None, || format!("{job} all up"));
                    self.send_commands(now, false, all_up, sched);
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
        let program = self.take_program(job, rank);

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

/// What a command train delivers, in delivery order.
pub(crate) enum Commands {
    /// A command per delivery, each to its own node (a submission's
    /// LoadJob commands).
    Each(Vec<(usize, NodedCmd)>),
    /// One command to each of nodes `0..n` (a switch order or its
    /// re-send).
    Every(NodedCmd, usize),
    /// One command to each listed node (a job's AllUp).
    Listed(NodedCmd, Vec<usize>),
}

impl Commands {
    fn len(&self) -> usize {
        match self {
            Commands::Each(cmds) => cmds.len(),
            Commands::Every(_, n) => *n,
            Commands::Listed(_, nodes) => nodes.len(),
        }
    }

    /// Delivery `i`'s node and command.
    fn get(&self, i: usize) -> (usize, NodedCmd) {
        match self {
            Commands::Each(cmds) => cmds[i].clone(),
            Commands::Every(cmd, _) => (i, cmd.clone()),
            Commands::Listed(cmd, nodes) => (nodes[i], cmd.clone()),
        }
    }
}

/// One in-flight masterd fan-out: delivery `i` lands at `first + i·gap`
/// under seq `base_seq + i`. Times never fall and seqs rise, so delivery
/// order is `(time, seq)` order and no sort is needed.
struct CmdTrain {
    /// Delivery 0's arrival.
    first: SimTime,
    /// Spacing: one wire time on a unicast loop, zero for a multicast.
    gap: Cycles,
    /// Seq of delivery 0.
    base_seq: u64,
    cmds: Commands,
    /// The queued delivery.
    next: usize,
}

/// Slab of in-flight command trains, indexed by
/// [`Event::CtrlToNode`]'s `train`. A finished train drops its commands
/// and its slot is reused.
#[derive(Default)]
pub(crate) struct CmdTrains {
    slab: Vec<Option<CmdTrain>>,
    free: Vec<u32>,
}

impl CmdTrains {
    /// Park a train; returns its slot.
    fn open(&mut self, train: CmdTrain) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.slab[id as usize] = Some(train);
                id
            }
            None => {
                self.slab.push(Some(train));
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Take a train's head: its node and command, plus the next
    /// delivery's `(time, seq)`. A train whose last delivery this was is
    /// freed.
    fn advance(&mut self, id: u32) -> (usize, NodedCmd, Option<(SimTime, u64)>) {
        let slot = &mut self.slab[id as usize];
        let train = slot.as_mut().expect("command train already finished");
        let (node, cmd) = train.cmds.get(train.next);
        train.next += 1;
        let i = train.next as u64;
        let next = (train.next < train.cmds.len())
            .then(|| (train.first + train.gap * i, train.base_seq + i));
        if next.is_none() {
            *slot = None;
            self.free.push(id);
        }
        (node, cmd, next)
    }

    /// Trains still delivering.
    #[cfg(test)]
    fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use fastmsg::division::BufferPolicy;
    use parpar::control::ControlNet;

    use super::*;
    use crate::config::ClusterConfig;
    use crate::world::Sim;

    /// An idle `nodes`-node cluster on `control`, with no timer armed.
    fn idle(nodes: usize, control: ControlPlane) -> Sim {
        let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
        cfg.control = control;
        cfg.auto_rotate = false;
        cfg.daemon_jitter_max = Cycles::ZERO;
        Sim::new(cfg)
    }

    /// Drain train `id`: each delivery's `(time, seq, node, command)`.
    fn drain(trains: &mut CmdTrains, id: u32) -> Vec<(SimTime, u64, usize, NodedCmd)> {
        let train = trains.slab[id as usize].as_ref().unwrap();
        let mut head = Some((train.first, train.base_seq));
        let mut got = Vec::new();
        while let Some((t, seq)) = head {
            let (node, cmd, next) = trains.advance(id);
            got.push((t, seq, node, cmd));
            head = next;
        }
        got
    }

    #[test]
    fn a_flat_train_delivers_at_one_instant_in_node_order() {
        let mut sim = idle(256, ControlPlane::Flat);
        let cmd = NodedCmd::ResendProtocol { epoch: 1 };
        sim.engine.drive(|w, sched| {
            let base = sched.claim_seqs(0);
            w.fan_out(SimTime::ZERO, cmd.clone(), sched);
            assert_eq!((sched.pending(), w.cmd_trains.live()), (1, 1));
            let at = ControlNet::new().multicast(SimTime::ZERO);
            let want: Vec<_> = (0..256)
                .map(|n| (at, base + n as u64, n, cmd.clone()))
                .collect();
            assert_eq!(drain(&mut w.cmd_trains, 0), want);
            assert_eq!(w.cmd_trains.live(), 0);
            assert_eq!(w.ctrl.messages, 1);
        });
    }

    #[test]
    fn a_serial_switch_order_is_one_train_landing_like_a_unicast_loop() {
        let hosts = 256;
        let mut sim = idle(hosts, ControlPlane::Serial);
        let job = workloads::registry::build("compute", hosts, 1, 1_000).unwrap();
        for _ in 0..2 {
            sim.submit(&*job, Some((0..hosts).collect())).unwrap();
        }
        let now = SimTime::ZERO;
        sim.engine.drive(|w, sched| {
            // Two LoadJob trains are still on the master's link.
            assert_eq!((sched.pending(), w.cmd_trains.live()), (2, 2));
            let mut lp = w.ctrl.clone();
            let times: Vec<SimTime> = (0..hosts).map(|_| lp.unicast_to_node(now)).collect();
            let base = sched.claim_seqs(0);
            w.order_switch(now, sched);
            assert_eq!((sched.pending(), w.cmd_trains.live()), (3, 3));
            assert_eq!(w.ctrl.messages, lp.messages);
            let cmd = NodedCmd::SwitchSlot {
                epoch: 1,
                from: 0,
                to: 1,
            };
            let want: Vec<_> = (0..hosts)
                .map(|n| (times[n], base + n as u64, n, cmd.clone()))
                .collect();
            assert_eq!(drain(&mut w.cmd_trains, 2), want);
        });
    }

    /// Step `sim` once; the kind index of the event it dispatched.
    fn step_kind(sim: &mut Sim) -> usize {
        let before: Vec<u64> = sim.engine.dispatch_counts().map(|(_, c)| c).collect();
        sim.engine.step().expect("an event is due");
        let after = sim.engine.dispatch_counts().map(|(_, c)| c);
        after.zip(before).position(|(a, b)| a != b).unwrap()
    }

    /// The kinds `sim` dispatches until it idles, without the nodeds'
    /// `noded_act`s (which fall between the deliveries of a serial train).
    fn kinds_to_idle(sim: &mut Sim) -> Vec<usize> {
        let noded_act = Event::NodedAct {
            node: 0,
            cmd: NodedCmd::ResendProtocol { epoch: 0 },
        }
        .kind_index();
        let mut kinds = Vec::new();
        while sim.engine.pending() > 0 {
            kinds.push(step_kind(sim));
        }
        kinds.retain(|&k| k != noded_act);
        kinds
    }

    #[test]
    fn a_train_interleaves_with_same_instant_pushes_in_time_seq_order() {
        // A masterd with no switch in flight ignores a watchdog and a
        // ResendProtocol, so both make harmless markers.
        let mark = Event::SwitchRetryCheck { epoch: 7 };
        let (ctrl, check) = (
            Event::CtrlToNode { train: 0 }.kind_index(),
            mark.kind_index(),
        );
        let cmd = NodedCmd::ResendProtocol { epoch: 7 };

        // Flat: a marker pushed before the fan-out at its delivery instant
        // comes first, one pushed after comes last.
        let mut sim = idle(16, ControlPlane::Flat);
        let at = ControlNet::new().multicast(SimTime::ZERO);
        sim.engine.drive(|w, sched| {
            sched.at(at, mark.clone());
            w.fan_out(SimTime::ZERO, cmd.clone(), sched);
            sched.at(at, mark.clone());
        });
        let mut want = vec![check];
        want.extend([ctrl; 16]);
        want.push(check);
        assert_eq!(kinds_to_idle(&mut sim), want);

        // Serial: markers tied with deliveries 3 (pushed before the
        // fan-out) and 5 (pushed after) pop before and after them.
        let mut sim = idle(8, ControlPlane::Serial);
        let first = ControlNet::new().unicast_to_node(SimTime::ZERO);
        sim.engine.drive(|w, sched| {
            sched.at(first + PER_MSG_WIRE * 3, mark.clone());
            w.fan_out(SimTime::ZERO, cmd.clone(), sched);
            sched.at(first + PER_MSG_WIRE * 5, mark.clone());
        });
        let want = [ctrl, ctrl, ctrl, check, ctrl, ctrl, ctrl, check, ctrl, ctrl];
        assert_eq!(kinds_to_idle(&mut sim), want);
    }
}
