//! The simulated cluster: all state plus the top-level event dispatcher.

use std::collections::BTreeMap;

use fastmsg::packet::PACKET_BYTES;
use lanai::nic::Nic;
use myrinet::network::{Network, Transmit};
use myrinet::topology::{LinkTier, Topology};
use parpar::arrivals::{ArrivalPlan, ArrivalSpec};
use parpar::control::{ControlNet, ControlPlane};
use parpar::job::{JobId, JobSpec};
use parpar::jobrep::{Admission, JobRep};
use parpar::masterd::{Masterd, Submitted};
use parpar::matrix::PlaceError;
use parpar::tree::{job_expectations, ControlTree, TreeAgg};
use sim_core::engine::{Engine, Model, RunOutcome, Scheduler};
use sim_core::rng::DetRng;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Trace;
use workloads::program::{Program, Workload};

use crate::bus::Bus;
use crate::config::ClusterConfig;
use crate::event::{DaemonEvent, Event};
use crate::handlers::nic::Trains;
use crate::handlers::{
    AppHandler, DaemonHandler, FmHandler, NicHandler, SwitchHandler, WorldState,
};
use crate::node::NodeSim;
use crate::stats::WorldStats;

/// A submission waiting in the jobrep queue: when it was submitted (for
/// the wait-latency sketch) and the programs to dispatch on admission,
/// keyed by the jobrep ticket.
pub(crate) struct QueuedSub {
    pub(crate) submitted_at: SimTime,
    pub(crate) programs: Vec<Box<dyn Program>>,
}

/// One not-yet-fired entry of the installed arrival plan: the spec to
/// submit and the programs already built from the scenario factory.
pub(crate) struct PlannedArrival {
    pub(crate) spec: JobSpec,
    pub(crate) programs: Vec<Box<dyn Program>>,
}

/// The full simulated ParPar system.
pub struct World {
    /// Configuration (immutable during a run).
    pub cfg: ClusterConfig,
    /// The Myrinet data network.
    pub net: Network,
    /// The control Ethernet.
    pub ctrl: ControlNet,
    /// The master daemon.
    pub master: Masterd,
    /// Compute nodes.
    pub nodes: Vec<NodeSim>,
    /// Trace ring.
    pub trace: Trace,
    /// Seeded RNG (daemon jitter).
    pub rng: DetRng,
    /// Measurements.
    pub stats: WorldStats,
    /// The job representative's submission queue.
    pub jobrep: JobRep,
    /// Programs awaiting their LoadJob, keyed by (job, rank).
    pub(crate) pending_programs: BTreeMap<(JobId, usize), Box<dyn Program>>,
    /// Programs (and submit timestamps) of queued — not yet admitted —
    /// submissions, keyed by jobrep ticket.
    pub(crate) queued_programs: BTreeMap<u64, QueuedSub>,
    /// The installed open-loop arrival plan (serving mode); each entry is
    /// taken when its `JobArrival` event fires.
    pub(crate) arrivals: Vec<Option<PlannedArrival>>,
    /// Arrival-plan entries that have not fired yet.
    pub(crate) arrivals_pending: usize,
    /// Combining-tree shape (`ControlPlane::Tree` only).
    pub(crate) tree: Option<ControlTree>,
    /// Per-node combining-tree aggregation state; empty unless `tree` is
    /// set.
    pub(crate) tree_agg: Vec<TreeAgg>,
    /// When the masterd issued the in-flight switch order (feeds
    /// `stats.switch_latency` at completion; one switch in flight at a
    /// time).
    pub(crate) switch_ordered_at: SimTime,
    /// In-flight serial halt/ready broadcasts (see `handlers::nic`).
    pub(crate) trains: Trains,
    /// Pooled per-peer transmit buffer for the serial broadcasts.
    pub(crate) bcast_sends: Vec<(usize, Transmit)>,
}

impl World {
    /// Build an idle world from a configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = match cfg.topology {
            crate::config::TopologyKind::SingleSwitch => Topology::single_switch(cfg.nodes),
            crate::config::TopologyKind::DualSwitch { trunks } => {
                Topology::dual_switch(cfg.nodes, trunks)
            }
            crate::config::TopologyKind::FatTree { shape } => {
                assert_eq!(
                    shape.hosts(),
                    cfg.nodes,
                    "fat-tree shape hosts a different node count than the cluster"
                );
                Topology::fat_tree(shape)
            }
        };
        let (tree, tree_agg) = match cfg.control {
            ControlPlane::Tree { fanout } => {
                assert!(
                    !cfg.reliability.enabled,
                    "the combining-tree control plane has no ResendProtocol \
                     path; run reliability with Flat or Serial control"
                );
                let t = ControlTree::new(cfg.nodes, fanout);
                let agg = (0..cfg.nodes).map(|n| TreeAgg::new(n, &t)).collect();
                (Some(t), agg)
            }
            ControlPlane::Flat | ControlPlane::Serial => (None, Vec::new()),
        };
        let nodes = (0..cfg.nodes)
            .map(|id| {
                let nic = Nic::new(
                    id,
                    cfg.nic_context_slots(),
                    cfg.fm.send_region_bytes,
                    PACKET_BYTES,
                );
                NodeSim::new(id, cfg.nodes - 1, nic)
            })
            .collect();
        let trace = if cfg.trace_capacity > 0 {
            Trace::enabled(cfg.trace_capacity)
        } else {
            Trace::disabled()
        };
        let mut w = World {
            net: Network::new(topo),
            ctrl: ControlNet::new(),
            master: Masterd::new(cfg.nodes, cfg.slots),
            nodes,
            trace,
            rng: DetRng::new(cfg.seed),
            stats: WorldStats::default(),
            jobrep: JobRep::new(),
            pending_programs: BTreeMap::new(),
            queued_programs: BTreeMap::new(),
            arrivals: Vec::new(),
            arrivals_pending: 0,
            tree,
            tree_agg,
            switch_ordered_at: SimTime::ZERO,
            trains: Trains::default(),
            bcast_sends: Vec::new(),
            cfg,
        };
        w.stats.tree_depth = w.tree.as_ref().map_or(0, ControlTree::depth);
        // COMM_init_node on every noded startup (paper §3.2: "called when
        // the noded is initialized, to load the control program").
        for node in 0..w.cfg.nodes {
            w.comm_init_node(SimTime::ZERO, node)
                .expect("node initialization cannot fail at boot");
        }
        // Reliability layer: halt/ready frames can be lost and re-sent, so
        // the switch sequencers must tolerate duplicates and stale copies.
        if w.cfg.reliability.enabled {
            for n in &mut w.nodes {
                n.seq.set_recovery(true);
            }
        }
        w
    }

    /// Register an admitted submission's programs and send its LoadJob
    /// commands over the control network.
    pub(crate) fn dispatch_submission(
        &mut self,
        now: SimTime,
        sub: Submitted,
        programs: Vec<Box<dyn Program>>,
        bus: &mut Bus,
    ) {
        for (rank, program) in programs.into_iter().enumerate() {
            self.pending_programs.insert((sub.job, rank), program);
        }
        if let Some(tree) = self.tree {
            // Pre-register the job's ack reduction: every node on a
            // member's root path expects its subtree's share of the
            // placement before forwarding a combined JobFinished count.
            let members: Vec<usize> = sub.cmds.iter().map(|(n, _)| *n).collect();
            for (n, expected) in job_expectations(&tree, &members) {
                self.tree_agg[n].register_job(sub.job, expected);
            }
        }
        for (node, cmd) in sub.cmds {
            assert!(
                self.nodes[node].in_service,
                "job placed on out-of-service node {node}"
            );
            let t = self.ctrl.unicast_to_node(now);
            bus.emit(t, DaemonEvent::CtrlToNode { node, cmd });
        }
    }

    /// Fold the network's per-link counters by fabric tier (edge /
    /// aggregation / spine) — the scalability sweep's per-tier load view.
    pub fn tier_traffic(&self) -> crate::stats::TierTraffic {
        let topo = self.net.topology();
        let mut t = crate::stats::TierTraffic::default();
        for (lid, st) in self.net.link_stats().iter().enumerate() {
            let i = match topo.link_tier(lid) {
                LinkTier::Edge => 0,
                LinkTier::Agg => 1,
                LinkTier::Spine => 2,
            };
            t.packets[i] += st.packets;
            t.bytes[i] += st.bytes;
        }
        t
    }

    /// Have all submitted jobs finished? O(1) — the masterd keeps an
    /// unfinished-jobs counter, so the engine can afford to ask after
    /// every event.
    pub fn all_jobs_finished(&self) -> bool {
        self.master.all_jobs_finished()
    }

    /// Is the serving pipeline fully drained? True only when every
    /// admitted job finished, no submission waits in the jobrep queue, and
    /// no planned arrival is still due. For batch runs (no arrival plan,
    /// nothing queued) this degenerates to [`World::all_jobs_finished`].
    pub fn quiescent(&self) -> bool {
        self.master.all_jobs_finished() && self.jobrep.waiting() == 0 && self.arrivals_pending == 0
    }
}

impl WorldState for World {
    fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    fn node(&self, id: usize) -> &NodeSim {
        &self.nodes[id]
    }

    fn node_mut(&mut self, id: usize) -> &mut NodeSim {
        &mut self.nodes[id]
    }
}

impl Model for World {
    type Event = Event;

    /// Route one event to its subsystem handler.
    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Scheduler<Event>) {
        let bus = &mut Bus::new(sched);
        match event {
            Event::Daemon(e) => self.on_daemon(now, e, bus),
            Event::Nic(e) => self.on_nic(now, e, bus),
            Event::App(e) => self.on_app(now, e, bus),
            Event::Switch(e) => self.on_switch(now, e, bus),
            Event::Fm(e) => self.on_fm(now, e, bus),
        }
    }
}

/// The simulation driver: an [`Engine`] over a [`World`] plus submission
/// and run helpers.
///
/// ```
/// use cluster::{ClusterConfig, Sim};
/// use fastmsg::division::BufferPolicy;
/// use sim_core::time::{Cycles, SimTime};
/// use workloads::p2p::P2pBandwidth;
///
/// // A 4-node cluster under the paper's buffer-switching scheme.
/// let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
/// cfg.quantum = Cycles::from_ms(50);
/// let mut sim = Sim::new(cfg);
///
/// // Two bandwidth benchmarks gang-scheduled on the same node pair.
/// let bench = P2pBandwidth::with_count(4096, 200);
/// let job = sim.submit(&bench, Some(vec![0, 1])).unwrap();
/// sim.submit(&bench, Some(vec![0, 1])).unwrap();
///
/// assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(10)));
/// let bw = sim.world().stats.job_bandwidth_mbps(job, 4096 * 200).unwrap();
/// assert!(bw > 10.0);
/// assert_eq!(sim.world().stats.drops, 0);
/// ```
pub struct Sim {
    /// The discrete-event engine; `engine.model` is the world.
    pub engine: Engine<World>,
}

impl Sim {
    /// A fresh simulation. If the configuration auto-rotates, the first
    /// quantum timer is armed.
    pub fn new(cfg: ClusterConfig) -> Self {
        let auto = cfg.auto_rotate;
        let gang = cfg.gang_scheduling;
        let nodes = cfg.nodes;
        let quantum = cfg.quantum;
        if !gang {
            assert!(
                matches!(
                    cfg.fm.policy,
                    fastmsg::division::BufferPolicy::StaticDivision
                        | fastmsg::division::BufferPolicy::Demand
                ),
                "uncoordinated scheduling cannot switch buffers: without gang \
                 scheduling there is no moment when all communication partners \
                 are dormant (paper §1) — only the always-resident policies \
                 (StaticDivision, Demand) work"
            );
        }
        let demand = cfg.fm.policy == fastmsg::division::BufferPolicy::Demand;
        let rebalance_interval = cfg.fm.demand.rebalance_interval;
        let mut engine = Engine::new(World::new(cfg));
        engine.event_limit = 2_000_000_000;
        engine.set_event_kinds(crate::event::KIND_NAMES, Event::kind_index);
        if auto && gang {
            engine.schedule_at(SimTime::ZERO + quantum, DaemonEvent::QuantumExpired.into());
        }
        if demand {
            // Each node rebalances its processes' credit windows on a fixed
            // period; the handler re-arms its own timer.
            for node in 0..nodes {
                engine.schedule_at(
                    SimTime::ZERO + rebalance_interval,
                    crate::event::FmEvent::DemandRebalance { node }.into(),
                );
            }
        }
        if auto && !gang {
            // Each node's scheduler free-runs with its own phase: spread
            // the first ticks across the quantum so nodes drift apart.
            for node in 0..nodes {
                let phase = Cycles(quantum.raw() * (node as u64 + 1) / (nodes as u64 + 1));
                engine.schedule_at(
                    SimTime::ZERO + quantum + phase,
                    DaemonEvent::NodeTick { node }.into(),
                );
            }
        }
        Sim { engine }
    }

    /// Shorthand for the world.
    pub fn world(&self) -> &World {
        &self.engine.model
    }

    /// FNV-1a fold of the run's *logical* observables: the logical event
    /// count, per-job all-up/first-send/finish times, per-process
    /// delivered-message counts, completed switches, retransmits, drops,
    /// and wire losses.
    ///
    /// Where [`Engine::stream_digest`] pins the order of every dispatched
    /// event, this pins only what the run reports: serving cells and the
    /// per-policy goldens compare runs on it.
    pub fn logical_fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut fold = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        fold(self.engine.logical_events());
        let w = &self.engine.model;
        for (j, t) in w.stats.job_all_up.iter() {
            fold(j.0 as u64);
            fold(t.raw());
        }
        for (j, t) in w.stats.job_first_send.iter() {
            fold(j.0 as u64);
            fold(t.raw());
        }
        for (j, t) in w.stats.job_finished.iter() {
            fold(j.0 as u64);
            fold(t.raw());
        }
        for n in &w.nodes {
            for p in n.apps.values() {
                fold(p.fm.stats.msgs_received);
            }
        }
        fold(w.stats.switches);
        fold(w.stats.retransmits);
        fold(w.stats.drops);
        fold(w.stats.wire_losses);
        // Serving-mode observables fold only when the run recorded request
        // latencies, so every closed-batch golden stays bit-identical.
        if w.stats.wait_latency.count() > 0 || w.stats.e2e_latency.count() > 0 {
            for (j, t) in w.stats.job_submitted.iter() {
                fold(j.0 as u64);
                fold(t.raw());
            }
            for (j, t) in w.stats.job_dispatched.iter() {
                fold(j.0 as u64);
                fold(t.raw());
            }
            w.stats.wait_latency.fold_into(&mut fold);
            w.stats.service_latency.fold_into(&mut fold);
            w.stats.e2e_latency.fold_into(&mut fold);
        }
        h
    }

    /// Shorthand for the world, mutably.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.engine.model
    }

    /// Submit a workload (optionally pinned to exact nodes) through the
    /// jobrep → masterd path; LoadJob commands go out on the control
    /// network immediately. Fails if the job does not fit *right now*
    /// (use [`Sim::submit_queued`] for wait-for-space semantics).
    pub fn submit(
        &mut self,
        workload: &dyn Workload,
        pinned: Option<Vec<usize>>,
    ) -> Result<JobId, PlaceError> {
        let spec = match pinned {
            Some(nodes) => JobSpec::pinned(workload.name(), nodes),
            None => JobSpec::sized(workload.name(), workload.nprocs()),
        };
        let now = self.engine.now();
        let programs: Vec<Box<dyn Program>> = (0..workload.nprocs())
            .map(|r| workload.program(r))
            .collect();
        self.engine.drive(|w, sched| {
            let sub = w.master.submit(spec)?;
            let job = sub.job;
            w.dispatch_submission(now, sub, programs, &mut Bus::new(sched));
            Ok(job)
        })
    }

    /// Submit through the jobrep queue: if the gang matrix has no room the
    /// job waits (FIFO) and is admitted automatically as earlier jobs
    /// finish. Returns the JobId on immediate admission, `None` if queued.
    pub fn submit_queued(
        &mut self,
        workload: &dyn Workload,
        pinned: Option<Vec<usize>>,
    ) -> Result<Option<JobId>, PlaceError> {
        let spec = match pinned {
            Some(nodes) => JobSpec::pinned(workload.name(), nodes),
            None => JobSpec::sized(workload.name(), workload.nprocs()),
        };
        let now = self.engine.now();
        let programs: Vec<Box<dyn Program>> = (0..workload.nprocs())
            .map(|r| workload.program(r))
            .collect();
        self.engine
            .drive(|w, sched| match w.jobrep.submit(&mut w.master, spec)? {
                Admission::Admitted(sub) => {
                    let job = sub.job;
                    w.stats.job_submitted.insert(job, now);
                    w.stats.job_dispatched.insert(job, now);
                    w.stats.wait_latency.record(0);
                    w.dispatch_submission(now, sub, programs, &mut Bus::new(sched));
                    Ok(Some(job))
                }
                Admission::Queued(ticket) => {
                    w.queued_programs.insert(
                        ticket,
                        QueuedSub {
                            submitted_at: now,
                            programs,
                        },
                    );
                    w.stats.queue_depth.set(now, w.jobrep.waiting() as f64);
                    Ok(None)
                }
            })
    }

    /// Install an open-loop arrival plan (serving mode): every entry gets
    /// its workload built now via `make(index, spec)` and a
    /// [`DaemonEvent::JobArrival`] event scheduled at `now + spec.at`; when
    /// each fires, the world submits the job through the jobrep queue and
    /// records its submit→dispatch→finish latencies. Call before running;
    /// [`Sim::run_until_quiescent`] waits for the whole plan to drain.
    pub fn install_arrivals<F>(&mut self, plan: &ArrivalPlan, mut make: F)
    where
        F: FnMut(usize, &ArrivalSpec) -> Box<dyn Workload>,
    {
        let now = self.engine.now();
        let base = self.engine.model.arrivals.len();
        for (i, spec) in plan.jobs().iter().enumerate() {
            let workload = make(i, spec);
            let programs: Vec<Box<dyn Program>> = (0..workload.nprocs())
                .map(|r| workload.program(r))
                .collect();
            let job_spec =
                JobSpec::sized(workload.name(), workload.nprocs()).with_priority(spec.priority);
            self.engine.model.arrivals.push(Some(PlannedArrival {
                spec: job_spec,
                programs,
            }));
            self.engine.model.arrivals_pending += 1;
            self.engine.schedule_at(
                now + spec.at,
                DaemonEvent::JobArrival { index: base + i }.into(),
            );
        }
    }

    /// Run until the serving pipeline drains — every arrival fired, every
    /// queued submission was admitted, every job finished — or `horizon`.
    /// Returns `true` if the world went quiescent.
    pub fn run_until_quiescent(&mut self, horizon: SimTime) -> bool {
        self.engine.run_until_pred(horizon, |w| w.quiescent());
        self.engine.model.quiescent()
    }

    /// Run until `horizon`.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        self.engine.run_until(horizon)
    }

    /// Run until every submitted job finished, or `horizon`.
    /// Returns `true` if all jobs finished. (The stop predicate is
    /// [`World::quiescent`], so queued submissions and planned arrivals
    /// keep the run alive; outside serving mode it is exactly
    /// all-jobs-finished.)
    pub fn run_until_jobs_done(&mut self, horizon: SimTime) -> bool {
        self.engine.run_until_pred(horizon, |w| w.quiescent());
        self.engine.model.all_jobs_finished()
    }

    /// Run for a duration from the current instant.
    pub fn run_for(&mut self, d: Cycles) -> RunOutcome {
        let t = self.engine.now() + d;
        self.run_until(t)
    }
}
