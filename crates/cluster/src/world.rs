//! The simulated cluster: all state and the simulation driver. The
//! event dispatcher (`impl Model for World`) lives in [`crate::handlers`].

use std::collections::BTreeMap;

use fastmsg::packet::PACKET_BYTES;
use hostsim::process::Pid;
use lanai::nic::Nic;
use myrinet::network::Network;
use myrinet::topology::Topology;
use parpar::arrivals::{ArrivalPlan, ArrivalSpec};
use parpar::control::{ControlNet, ControlPlane};
use parpar::job::{JobId, JobSpec};
use parpar::jobrep::JobRep;
use parpar::masterd::{Masterd, Submitted};
use parpar::matrix::PlaceError;
use parpar::tree::{job_expectations, ControlTree, TreeAgg};
use sim_core::engine::{Engine, RunOutcome};
use sim_core::rng::DetRng;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Trace;
use workloads::program::{Program, Workload};

use crate::config::ClusterConfig;
use crate::event::{Event, Sched};
use crate::handlers::daemon::{CmdTrains, Commands};
use crate::handlers::nic::{Trains, MAX_NODES};
use crate::node::NodeSim;
use crate::stats::WorldStats;

/// The payload of a jobrep submission: when it was submitted (for the
/// wait-latency sketch) and the programs to dispatch on admission.
pub struct QueuedSub {
    pub(crate) submitted_at: SimTime,
    pub(crate) programs: Vec<Box<dyn Program>>,
}

/// One not-yet-fired entry of the installed arrival plan: the spec to
/// submit and the programs already built from the scenario factory.
pub(crate) struct PlannedArrival {
    pub(crate) spec: JobSpec,
    pub(crate) programs: Vec<Box<dyn Program>>,
}

/// A submitted job's programs, from its submission until every rank's
/// LoadJob has taken its own.
pub(crate) struct Loading {
    /// Rank `r`'s program, until its LoadJob takes it.
    programs: Vec<Option<Box<dyn Program>>>,
    /// Ranks not loaded yet.
    left: usize,
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
    pub jobrep: JobRep<QueuedSub>,
    /// Programs of the jobs still loading; a job's entry goes when its
    /// last rank has loaded.
    pub(crate) loading: BTreeMap<JobId, Loading>,
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
    /// In-flight masterd fan-outs (see `handlers::daemon`).
    pub(crate) cmd_trains: CmdTrains,
    /// Pooled pid buffer for `on_send_engine_done`'s resident scan.
    pub(crate) pid_buf: Vec<Pid>,
}

impl World {
    /// Build an idle world from a configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(
            cfg.nodes <= MAX_NODES,
            "{} nodes: a serial broadcast reaches at most {MAX_NODES}",
            cfg.nodes
        );
        let topo = match cfg.topology {
            crate::config::TopologyKind::SingleSwitch => Topology::single_switch(cfg.nodes),
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
        // The flush protocol waits on every other node; the §5 baselines'
        // sequencers have no peers, so a node's own halt and ready complete
        // their phases.
        let peers = if cfg.strategy.uses_flush_protocol() {
            cfg.nodes - 1
        } else {
            0
        };
        let nodes = (0..cfg.nodes)
            .map(|id| {
                let nic = Nic::new(
                    id,
                    cfg.nic_context_slots(),
                    cfg.fm.send_region_bytes,
                    PACKET_BYTES,
                );
                NodeSim::new(id, peers, nic)
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
            loading: BTreeMap::new(),
            arrivals: Vec::new(),
            arrivals_pending: 0,
            tree,
            tree_agg,
            switch_ordered_at: SimTime::ZERO,
            trains: Trains::default(),
            cmd_trains: CmdTrains::default(),
            pid_buf: Vec::new(),
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
    /// commands over the control network, one unicast per rank.
    pub(crate) fn dispatch_submission(
        &mut self,
        now: SimTime,
        sub: Submitted,
        programs: Vec<Box<dyn Program>>,
        sched: &mut Sched,
    ) {
        let left = programs.len();
        let programs = programs.into_iter().map(Some).collect();
        self.loading.insert(sub.job, Loading { programs, left });
        if let Some(tree) = self.tree {
            // Pre-register the job's ack reduction: every node on a
            // member's root path expects its subtree's share of the
            // placement before forwarding a combined JobFinished count.
            let members: Vec<usize> = sub.cmds.iter().map(|(n, _)| *n).collect();
            for (n, expected) in job_expectations(&tree, &members) {
                self.tree_agg[n].register_job(sub.job, expected);
            }
        }
        for &(node, _) in &sub.cmds {
            assert!(
                self.nodes[node].in_service,
                "job placed on out-of-service node {node}"
            );
        }
        self.send_commands(now, false, Commands::Each(sub.cmds), sched);
    }

    /// Rank `rank`'s program, for its LoadJob. The job's entry goes with
    /// its last rank's program.
    pub(crate) fn take_program(&mut self, job: JobId, rank: usize) -> Box<dyn Program> {
        let loading = self
            .loading
            .get_mut(&job)
            .expect("no programs registered for the job");
        let program = loading.programs[rank]
            .take()
            .expect("the rank's program was already taken");
        loading.left -= 1;
        if loading.left == 0 {
            self.loading.remove(&job);
        }
        program
    }

    /// Record an admitted submission's submit time, dispatch time and
    /// queue wait (zero when it never queued), then dispatch it.
    pub(crate) fn admit(
        &mut self,
        now: SimTime,
        submitted_at: SimTime,
        sub: Submitted,
        programs: Vec<Box<dyn Program>>,
        sched: &mut Sched,
    ) {
        self.stats.job_submitted.insert(sub.job, submitted_at);
        self.stats.job_dispatched.insert(sub.job, now);
        self.stats
            .wait_latency
            .record(now.since(submitted_at).raw());
        self.dispatch_submission(now, sub, programs, sched);
    }

    /// The network's per-tier link totals (edge / aggregation / spine) —
    /// the scalability sweep's per-tier load view.
    pub fn tier_traffic(&self) -> crate::stats::TierTraffic {
        self.net.tier_traffic()
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
        // Every periodic timer re-arms itself one period later: a zero
        // period re-fires at the same instant until the event limit.
        assert!(
            !auto || quantum > Cycles::ZERO,
            "cfg.quantum must be positive when auto_rotate is on"
        );
        assert!(
            !demand || rebalance_interval > Cycles::ZERO,
            "cfg.fm.demand.rebalance_interval must be positive under BufferPolicy::Demand"
        );
        assert!(
            !(gang && cfg.reliability.enabled) || cfg.reliability.switch_retry > Cycles::ZERO,
            "cfg.reliability.switch_retry must be positive when reliability is on"
        );
        // A zero window would let every job initialize and then never
        // send. Static division's collapse to zero stays allowed: Fig. 5
        // measures it.
        let geo = cfg.fm.geometry();
        assert!(
            cfg.fm.policy != fastmsg::division::BufferPolicy::FullBuffer || geo.credits > 0,
            "FullBuffer with {} hosts and {} receive slots gives C0 = {} credits per \
             peer: no process could ever send; use CreditRounding::Ceil or a larger \
             receive region (cfg.fm.recv_slots_total)",
            cfg.fm.hosts,
            geo.recv_slots,
            geo.credits
        );
        let mut engine = Engine::new(World::new(cfg));
        engine.event_limit = 2_000_000_000;
        engine.set_event_kinds(crate::event::KIND_NAMES, Event::kind_index);
        if auto && gang {
            engine.schedule_at(SimTime::ZERO + quantum, Event::QuantumExpired);
        }
        if demand {
            // Each node rebalances its processes' credit windows on a fixed
            // period; the handler re-arms its own timer.
            for node in 0..nodes {
                engine.schedule_at(
                    SimTime::ZERO + rebalance_interval,
                    Event::DemandRebalance { node },
                );
            }
        }
        if auto && !gang {
            // Each node's scheduler free-runs with its own phase: spread
            // the first ticks across the quantum so nodes drift apart.
            for node in 0..nodes {
                let phase = Cycles(quantum.raw() * (node as u64 + 1) / (nodes as u64 + 1));
                engine.schedule_at(SimTime::ZERO + quantum + phase, Event::NodeTick { node });
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
    /// delivered-message counts (each node's live processes and exit
    /// records together, in pid order), completed switches, retransmits,
    /// drops, and wire losses.
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
            // Processes are not torn down in pid order: merge the live
            // ones with the exit records before folding.
            let live = n.apps.values().map(|p| (p.pid, p.fm.stats.msgs_received));
            let exited = n.exited.iter().map(|e| (e.pid, e.stats.msgs_received));
            let mut received: Vec<(Pid, u64)> = live.chain(exited).collect();
            received.sort_unstable();
            received.into_iter().for_each(|(_, msgs)| fold(msgs));
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

    /// Submit a workload (optionally pinned to exact nodes) through the
    /// jobrep → masterd path; LoadJob commands go out on the control
    /// network immediately. Fails if the job does not fit *right now*
    /// (jobs from [`Sim::install_arrivals`] wait in the jobrep queue
    /// instead), or if a pinned placement names a node twice.
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
            w.dispatch_submission(now, sub, programs, sched);
            Ok(job)
        })
    }

    /// Install an open-loop arrival plan (serving mode): every entry gets
    /// its workload built now via `make(index, spec)` and a
    /// [`Event::JobArrival`] event scheduled at `now + spec.at`; when
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
            self.engine.model.arrivals.push(Some(PlannedArrival {
                spec: JobSpec::sized(workload.name(), workload.nprocs()),
                programs,
            }));
            self.engine.model.arrivals_pending += 1;
            self.engine
                .schedule_at(now + spec.at, Event::JobArrival { index: base + i });
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

#[cfg(test)]
mod tests {
    use super::*;
    use fastmsg::division::BufferPolicy;

    #[test]
    #[should_panic(expected = "cfg.quantum must be positive")]
    fn zero_quantum_is_rejected() {
        let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
        cfg.quantum = Cycles::ZERO;
        let _ = Sim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "65537 nodes: a serial broadcast reaches at most 65536")]
    fn clusters_past_the_broadcast_key_width_are_rejected() {
        let _ = World::new(ClusterConfig::parpar(65_537, 1, BufferPolicy::FullBuffer));
    }

    #[test]
    #[should_panic(expected = "FullBuffer with 1024 hosts and 668 receive slots gives C0 = 0")]
    fn a_zero_credit_full_buffer_cluster_is_rejected() {
        let _ = Sim::new(ClusterConfig::parpar(1024, 2, BufferPolicy::FullBuffer));
    }

    #[test]
    fn only_a_zero_credit_full_buffer_is_rejected() {
        // Static division starves at scale on purpose (Fig. 5).
        let starved = ClusterConfig::parpar(1024, 2, BufferPolicy::StaticDivision);
        assert_eq!(starved.fm.geometry().credits, 0);
        let _ = Sim::new(starved);
        let mut ceil = ClusterConfig::parpar(1024, 2, BufferPolicy::FullBuffer);
        ceil.fm.rounding = fastmsg::division::CreditRounding::Ceil;
        assert_eq!(ceil.fm.geometry().credits, 1);
        let _ = Sim::new(ceil);
    }

    #[test]
    #[should_panic(expected = "cfg.fm.demand.rebalance_interval must be positive")]
    fn zero_rebalance_interval_is_rejected() {
        let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::Demand);
        cfg.fm.demand.rebalance_interval = Cycles::ZERO;
        let _ = Sim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "cfg.reliability.switch_retry must be positive")]
    fn zero_switch_retry_is_rejected() {
        let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
        cfg.reliability.enabled = true;
        cfg.reliability.switch_retry = Cycles::ZERO;
        let _ = Sim::new(cfg);
    }
}
