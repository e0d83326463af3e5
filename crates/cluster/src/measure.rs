//! Prepackaged paper experiments.
//!
//! Each function builds a cluster, runs a workload, and returns the
//! quantities the corresponding figure plots. The figure harnesses in the
//! `bench-harness` crate print them; integration tests assert their shape.

use fastmsg::division::BufferPolicy;
use gang_comm::overhead::OverheadLedger;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::stats::Summary;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;

use crate::config::ClusterConfig;
use crate::stats::QueueSample;
use crate::world::Sim;

/// Result of one bandwidth cell (one bar of Fig. 5 / Fig. 6).
#[derive(Debug, Clone, Copy)]
pub struct BandwidthCell {
    /// Achieved bandwidth, MB/s (0.0 if communication was impossible).
    pub mbps: f64,
    /// Did the benchmark complete within the horizon?
    pub completed: bool,
    /// Initial credits (`C0`) the configuration yields.
    pub credits: usize,
    /// Frames dropped by the fault injector (0 unless `wire_loss_ppm`).
    pub wire_losses: u64,
    /// Go-back-N retransmissions (0 unless reliability was enabled).
    pub retransmits: u64,
}

/// One configurable paper experiment.
///
/// The figure constructors ([`Measurement::fig5`], [`Measurement::fig6`],
/// [`Measurement::switch_overhead`]) fix the experiment-specific
/// parameters; the fluent setters adjust the knobs every experiment
/// shares (seed, fault injection, the reliability layer);
/// [`run`](Measurement::run) builds the cluster and returns the figure's
/// quantities.
///
/// ```no_run
/// use cluster::measure::Measurement;
/// let cell = Measurement::fig5(4, 65_536, 100).seed(42).run();
/// assert!(cell.completed);
/// ```
#[derive(Debug, Clone)]
pub struct Measurement<K> {
    kind: K,
    seed: u64,
    wire_loss_ppm: u32,
    reliability: bool,
}

impl<K> Measurement<K> {
    fn with_kind(kind: K) -> Self {
        Measurement {
            kind,
            seed: 0,
            wire_loss_ppm: 0,
            reliability: false,
        }
    }

    /// RNG seed for the run (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Drop each injected wire frame with this probability, in parts per
    /// million (default 0 — the paper's reliable SAN).
    pub fn wire_loss_ppm(mut self, ppm: u32) -> Self {
        self.wire_loss_ppm = ppm;
        self
    }

    /// Enable the opt-in go-back-N reliability layer (default off — the
    /// paper's FM has no retransmission).
    pub fn reliability(mut self, on: bool) -> Self {
        self.reliability = on;
        self
    }

    fn apply_common(&self, cfg: &mut ClusterConfig) {
        cfg.seed = self.seed;
        cfg.wire_loss_ppm = self.wire_loss_ppm;
        cfg.reliability.enabled = self.reliability;
    }
}

/// Parameters of a Fig. 5 bandwidth cell (see [`Measurement::fig5`]).
#[derive(Debug, Clone, Copy)]
pub struct Fig5 {
    contexts: usize,
    msg_bytes: u64,
    count: u64,
    rounding: Option<fastmsg::division::CreditRounding>,
    mem_scale: Option<f64>,
}

impl Measurement<Fig5> {
    /// Fig. 5: point-to-point bandwidth under the original FM static
    /// buffer division, with `contexts` configured contexts per host and
    /// `count` messages of `msg_bytes`.
    ///
    /// The benchmark runs as the only job (no context switches occur),
    /// exactly as in the paper.
    pub fn fig5(contexts: usize, msg_bytes: u64, count: u64) -> Self {
        Measurement::with_kind(Fig5 {
            contexts,
            msg_bytes,
            count,
            rounding: None,
            mem_scale: None,
        })
    }

    /// Explicit credit-rounding mode (the knob behind the n=7-vs-8
    /// cutoff discussion in EXPERIMENTS.md).
    pub fn rounding(mut self, rounding: fastmsg::division::CreditRounding) -> Self {
        self.kind.rounding = Some(rounding);
        self
    }

    /// Scale the NIC buffer regions — the §4.1 remark that "as the
    /// available \[NIC\] memory grows, more contexts can be supported",
    /// made sweepable.
    pub fn mem_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0);
        self.kind.mem_scale = Some(scale);
        self
    }

    /// Build the cluster, run the p2p benchmark, and report the cell.
    pub fn run(self) -> BandwidthCell {
        let k = self.kind;
        let mut cfg = ClusterConfig::parpar(16, k.contexts.max(2), BufferPolicy::StaticDivision);
        cfg.fm.max_contexts = k.contexts;
        if let Some(r) = k.rounding {
            cfg.fm.rounding = r;
        }
        if let Some(scale) = k.mem_scale {
            cfg.fm.send_slots_total = (cfg.fm.send_slots_total as f64 * scale) as usize;
            cfg.fm.recv_slots_total = (cfg.fm.recv_slots_total as f64 * scale) as usize;
            cfg.fm.send_region_bytes = (cfg.fm.send_region_bytes as f64 * scale) as u64;
            cfg.fm.recv_region_bytes = (cfg.fm.recv_region_bytes as f64 * scale) as u64;
        }
        cfg.auto_rotate = false;
        self.apply_common(&mut cfg);
        run_p2p_cell(cfg, k.msg_bytes, k.count)
    }
}

fn run_p2p_cell(cfg: ClusterConfig, msg_bytes: u64, count: u64) -> BandwidthCell {
    let credits = cfg.fm.geometry().credits;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(msg_bytes, count);
    let job = sim.submit(&bench, Some(vec![0, 1])).expect("placement");
    // Generous: the paper-scale 100k x 64 KB run needs ~280 simulated
    // seconds at the credit-starved configurations. (Wall time tracks
    // event count, not simulated time.)
    let horizon = SimTime::ZERO + Cycles::from_secs(900);
    let completed = sim.run_until_jobs_done(horizon);
    let payload = msg_bytes * count;
    let mbps = if completed {
        sim.world()
            .stats
            .job_bandwidth_mbps(job, payload)
            .unwrap_or(0.0)
    } else {
        0.0
    };
    BandwidthCell {
        mbps,
        completed,
        credits,
        wire_losses: sim.world().stats.wire_losses,
        retransmits: sim.world().stats.retransmits,
    }
}

/// Result of a Fig. 6 cell: several identical jobs gang-scheduled over the
/// same nodes.
#[derive(Debug, Clone)]
pub struct MultiJobCell {
    /// Per-job bandwidth over the measurement window, MB/s.
    pub per_job_mbps: Vec<f64>,
    /// Total system bandwidth (sum over jobs), MB/s.
    pub total_mbps: f64,
    /// Completed cluster-wide switches during the window.
    pub switches: u64,
    /// Initial credits under the full-buffer policy.
    pub credits: usize,
    /// Frames dropped by the fault injector (0 unless `wire_loss_ppm`).
    pub wire_losses: u64,
    /// Go-back-N retransmissions (0 unless reliability was enabled).
    pub retransmits: u64,
    /// Demand allocator: rebalance passes that moved credit windows
    /// (0 under every other policy).
    pub realloc_events: u64,
    /// Demand allocator: credits migrated between channels.
    pub credits_migrated: u64,
}

/// Parameters of a Fig. 6 multi-job cell (see [`Measurement::fig6`]).
#[derive(Debug, Clone, Copy)]
pub struct Fig6 {
    jobs: usize,
    msg_bytes: u64,
    quantum: Cycles,
    duration: Cycles,
    policy: Option<BufferPolicy>,
}

impl Measurement<Fig6> {
    /// Fig. 6: total bandwidth with `jobs` p2p benchmarks time-sliced on
    /// the same node pair under the buffer-switching scheme.
    ///
    /// `quantum` is the gang quantum (paper used 3 s; the result is
    /// invariant, which `tests/` verifies); the measurement runs for
    /// `duration` after a warmup rotation through all jobs.
    pub fn fig6(jobs: usize, msg_bytes: u64, quantum: Cycles, duration: Cycles) -> Self {
        assert!(jobs >= 1);
        Measurement::with_kind(Fig6 {
            jobs,
            msg_bytes,
            quantum,
            duration,
            policy: None,
        })
    }

    /// Buffer policy for the run (default [`BufferPolicy::FullBuffer`],
    /// the paper's buffer-switching scheme). `max_contexts` is the job
    /// count either way, so the always-resident policies split the queues
    /// over every job's context.
    pub fn buffer_policy(mut self, policy: BufferPolicy) -> Self {
        self.kind.policy = Some(policy);
        self
    }

    /// Build the cluster, run the time-sliced benchmarks, and report.
    pub fn run(self) -> MultiJobCell {
        let Fig6 {
            jobs,
            msg_bytes,
            quantum,
            duration,
            policy,
        } = self.kind;
        let policy = policy.unwrap_or(BufferPolicy::FullBuffer);
        let mut cfg = ClusterConfig::parpar(16, jobs.max(1), policy);
        cfg.quantum = quantum;
        cfg.copy = CopyStrategy::ValidOnly;
        self.apply_common(&mut cfg);
        run_fig6_cell(cfg, jobs, msg_bytes, quantum, duration)
    }
}

fn run_fig6_cell(
    cfg: ClusterConfig,
    jobs: usize,
    msg_bytes: u64,
    quantum: Cycles,
    duration: Cycles,
) -> MultiJobCell {
    let credits = cfg.fm.geometry().credits;
    let mut sim = Sim::new(cfg);
    let mut ids = Vec::new();
    for _ in 0..jobs {
        // Effectively endless within the horizon.
        let bench = P2pBandwidth::with_count(msg_bytes, u64::MAX / 4);
        ids.push(sim.submit(&bench, Some(vec![0, 1])).expect("placement"));
    }
    // Warmup: one full rotation so every job has run once.
    let warmup = Cycles(quantum.raw() * jobs as u64) + Cycles::from_ms(50);
    sim.run_for(warmup);
    let t0 = sim.engine.now();
    let base: Vec<u64> = ids
        .iter()
        .map(|j| sim.world().stats.job_bytes.get(j).copied().unwrap_or(0))
        .collect();
    let switches0 = sim.world().stats.switches;
    sim.run_for(duration);
    let elapsed = (sim.engine.now() - t0).as_secs();
    let per_job_mbps: Vec<f64> = ids
        .iter()
        .zip(&base)
        .map(|(j, b)| {
            let bytes = sim.world().stats.job_bytes.get(j).copied().unwrap_or(0) - b;
            bytes as f64 / 1e6 / elapsed
        })
        .collect();
    let total_mbps = per_job_mbps.iter().sum();
    MultiJobCell {
        per_job_mbps,
        total_mbps,
        switches: sim.world().stats.switches - switches0,
        credits,
        wire_losses: sim.world().stats.wire_losses,
        retransmits: sim.world().stats.retransmits,
        realloc_events: sim.world().stats.realloc_events,
        credits_migrated: sim.world().stats.credits_migrated,
    }
}

/// Result of a switch-overhead run (Figs. 7, 8, 9).
#[derive(Debug, Clone)]
pub struct SwitchOverheadRun {
    /// Per-stage cycle statistics across nodes and switches.
    pub ledger: OverheadLedger,
    /// Queue occupancy samples at switch time (Fig. 8).
    pub queue_samples: Vec<QueueSample>,
    /// Mean valid packets in the send queue at switch time.
    pub mean_send_valid: f64,
    /// Mean valid packets in the receive queue at switch time.
    pub mean_recv_valid: f64,
    /// Packets dropped (only under the no-flush baselines).
    pub drops: u64,
}

/// Parameters of a switch-overhead run (see
/// [`Measurement::switch_overhead`]).
#[derive(Debug, Clone, Copy)]
pub struct SwitchOverhead {
    nodes: usize,
    copy: CopyStrategy,
    strategy: SwitchStrategy,
    switches: u64,
}

impl Measurement<SwitchOverhead> {
    /// Figs. 7/8/9: two all-to-all jobs on `nodes` nodes, gang-switched
    /// with `copy` under `strategy`, measuring per-stage cycles and queue
    /// occupancy until at least `switches` cluster-wide switches
    /// completed.
    pub fn switch_overhead(
        nodes: usize,
        copy: CopyStrategy,
        strategy: SwitchStrategy,
        switches: u64,
    ) -> Self {
        assert!(nodes >= 2);
        Measurement::with_kind(SwitchOverhead {
            nodes,
            copy,
            strategy,
            switches,
        })
    }

    /// Build the cluster, gang-switch until enough samples, and report.
    pub fn run(self) -> SwitchOverheadRun {
        let SwitchOverhead {
            nodes,
            copy,
            strategy,
            switches,
        } = self.kind;
        let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
        cfg.copy = copy;
        cfg.strategy = strategy;
        // A short quantum packs many switches into little simulated time;
        // the stage costs are quantum-independent (verified in tests/).
        cfg.quantum = Cycles::from_ms(50);
        self.apply_common(&mut cfg);
        run_switch_overhead(cfg, nodes, switches)
    }
}

fn run_switch_overhead(cfg: ClusterConfig, nodes: usize, switches: u64) -> SwitchOverheadRun {
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..nodes).collect();
    let a = AllToAll::stress(nodes);
    sim.submit(&a, Some(all.clone())).expect("placement");
    sim.submit(&a, Some(all)).expect("placement");
    let horizon = SimTime::ZERO + Cycles::from_secs(600);
    sim.engine
        .run_until_pred(horizon, |w| w.stats.switches >= switches);
    let w = sim.world();
    let mut send = Summary::new();
    let mut recv = Summary::new();
    for q in &w.stats.queue_samples {
        send.record(q.send_valid as f64);
        recv.record(q.recv_valid as f64);
    }
    SwitchOverheadRun {
        ledger: w.stats.ledger.clone(),
        queue_samples: w.stats.queue_samples.clone(),
        mean_send_valid: send.mean(),
        mean_recv_valid: recv.mean(),
        drops: w.stats.drops,
    }
}

/// Result of the gang-vs-uncoordinated BSP comparison (the paper's §1
/// premise, quantified).
#[derive(Debug, Clone, Copy)]
pub struct BspComparison {
    /// Wall time to finish the BSP job under coordinated gang scheduling.
    pub gang: Cycles,
    /// Wall time under uncoordinated per-node time slicing.
    pub uncoordinated: Cycles,
}

impl BspComparison {
    /// Slowdown factor of uncoordinated scheduling.
    pub fn slowdown(&self) -> f64 {
        self.uncoordinated.raw() as f64 / self.gang.raw().max(1) as f64
    }
}

/// Scheduling disciplines the BSP comparison can run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Coordinated gang scheduling (the paper).
    Gang,
    /// Uncoordinated per-node time slicing.
    Uncoordinated,
    /// Uncoordinated + message-driven preemption (paper §5, ref. \[12\]).
    DynamicCosched,
}

/// Time for a BSP job (next to a CPU-bound competitor) to complete under
/// the given scheduling discipline; static buffer division throughout, so
/// only coordination differs.
pub fn bsp_completion(
    nodes: usize,
    supersteps: u64,
    compute: Cycles,
    quantum: Cycles,
    seed: u64,
    mode: SchedulingMode,
) -> Cycles {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::StaticDivision);
    cfg.gang_scheduling = mode == SchedulingMode::Gang;
    cfg.dynamic_coscheduling = mode == SchedulingMode::DynamicCosched;
    cfg.quantum = quantum;
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let bsp = workloads::bsp::Bsp {
        nprocs: nodes,
        compute,
        msg_bytes: 1024,
        supersteps,
    };
    let all: Vec<usize> = (0..nodes).collect();
    let job = sim.submit(&bsp, Some(all.clone())).expect("placement");
    // The competitor: CPU-bound, never communicates, occupies the
    // other slot on every node.
    let spin = workloads::program::Uniform::new(nodes, "spin", |_| {
        Box::new(workloads::program::SpinProgram::default()) as Box<dyn workloads::program::Program>
    });
    sim.submit(&spin, Some(all)).expect("placement");
    let horizon = SimTime::ZERO + Cycles::from_secs(3600);
    sim.engine
        .run_until_pred(horizon, |w| w.stats.job_finished.contains_key(&job));
    let w = sim.world();
    let done = *w
        .stats
        .job_finished
        .get(&job)
        .expect("BSP job did not finish inside an hour of simulated time");
    done.since(w.stats.job_all_up[&job])
}

/// Run a BSP job next to a CPU-bound competitor under both scheduling
/// disciplines and compare completion times.
pub fn bsp_gang_vs_uncoordinated(
    nodes: usize,
    supersteps: u64,
    compute: Cycles,
    quantum: Cycles,
    seed: u64,
) -> BspComparison {
    BspComparison {
        gang: bsp_completion(
            nodes,
            supersteps,
            compute,
            quantum,
            seed,
            SchedulingMode::Gang,
        ),
        uncoordinated: bsp_completion(
            nodes,
            supersteps,
            compute,
            quantum,
            seed,
            SchedulingMode::Uncoordinated,
        ),
    }
}

/// Result of one serving-mode cell: an open-loop arrival stream offered to
/// the cluster at a fixed rate, with request-latency percentiles (in
/// cycles) from the run's streaming sketches.
#[derive(Debug, Clone)]
pub struct ServeCell {
    /// Jobs the arrival stream submitted.
    pub submitted: u64,
    /// Jobs admitted into the gang matrix (immediately or after queueing).
    pub admitted: u64,
    /// Jobs rejected outright (would never fit).
    pub rejected: u64,
    /// Jobs that ran to completion inside the drain window.
    pub completed: u64,
    /// Submit → dispatch wait, p50/p99/p999 cycles.
    pub wait_p50: u64,
    /// Wait p99.
    pub wait_p99: u64,
    /// Wait p999.
    pub wait_p999: u64,
    /// Dispatch → finish service time, p50/p99/p999 cycles.
    pub service_p50: u64,
    /// Service p99.
    pub service_p99: u64,
    /// Service p999.
    pub service_p999: u64,
    /// Submit → finish end-to-end, p50/p99/p999 cycles.
    pub e2e_p50: u64,
    /// End-to-end p99.
    pub e2e_p99: u64,
    /// End-to-end p999.
    pub e2e_p999: u64,
    /// Fraction of completed jobs whose end-to-end latency met the SLO.
    pub slo_attainment: f64,
    /// Time-weighted mean jobrep queue depth.
    pub queue_depth_mean: f64,
    /// Peak jobrep queue depth.
    pub queue_depth_max: f64,
    /// Did the pipeline drain (every arrival admitted and finished) before
    /// the drain window closed? `false` marks a saturated cell — offered
    /// load past the knee.
    pub drained: bool,
    /// The run's logical fingerprint ([`crate::Sim::logical_fingerprint`]).
    pub fingerprint: u64,
    /// Logical events the engine dispatched
    /// ([`Engine::logical_events`](sim_core::Engine::logical_events)).
    pub logical_events: u64,
}

/// Processes per arriving job in a serving cell.
const SERVE_JOB_WIDTH: usize = 2;
/// The [`workloads::registry`] scenario every arriving job runs.
const SERVE_SCENARIO: &str = "p2p";
/// Serving-cell gang quantum: serving wants fast rotation, not the paper's
/// 1 s batch quantum.
const SERVE_QUANTUM: Cycles = Cycles::from_ms(100);

/// Parameters of a serving-mode cell (see [`Measurement::serve`]).
#[derive(Debug, Clone)]
pub struct Serve {
    nodes: usize,
    slots: usize,
    mode: SchedulingMode,
    arrival_rate: f64,
    trace: Option<Vec<parpar::arrivals::ArrivalSpec>>,
    horizon: Cycles,
    size_range: (u64, u64),
    slo: Cycles,
    policy: BufferPolicy,
}

impl Measurement<Serve> {
    /// Serving-cluster mode: a Poisson (or traced) open-loop job stream
    /// offered to `nodes` nodes with a `slots`-deep gang matrix under the
    /// given scheduling discipline, static buffer division by default (so
    /// the three disciplines differ only in coordination). Reliability is
    /// on by default — a serving cluster cannot assume a perfect SAN — and
    /// can be switched off with [`reliability(false)`](Measurement::reliability).
    ///
    /// Every job is 2 processes wide and runs the `p2p` scenario, under a
    /// 100 ms quantum with eager slot reclaim (gang mode only). Defaults:
    /// 2 jobs/s Poisson arrivals for 10 simulated seconds of jobs sized
    /// 20..=80 messages, and a 500 ms end-to-end SLO.
    pub fn serve(nodes: usize, slots: usize, mode: SchedulingMode) -> Self {
        assert!(nodes >= 2 && slots >= 1);
        let mut m = Measurement::with_kind(Serve {
            nodes,
            slots,
            mode,
            arrival_rate: 2.0,
            trace: None,
            horizon: Cycles::from_secs(10),
            size_range: (20, 80),
            slo: Cycles::from_ms(500),
            policy: BufferPolicy::StaticDivision,
        });
        m.reliability = true;
        m
    }

    /// Poisson offered load, jobs per simulated second (default 2.0).
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0);
        self.kind.arrival_rate = rate;
        self
    }

    /// Replace the Poisson stream with an explicit arrival trace (offsets
    /// relative to the run start; entries are stable-sorted by time).
    pub fn trace(mut self, entries: Vec<parpar::arrivals::ArrivalSpec>) -> Self {
        self.kind.trace = Some(entries);
        self
    }

    /// End-to-end latency SLO used for the attainment fraction (default
    /// 500 ms).
    pub fn slo(mut self, slo: Cycles) -> Self {
        self.kind.slo = slo;
        self
    }

    /// Arrival horizon: the Poisson stream stops here (default 10 s). The
    /// run itself gets five more horizons to drain the queue.
    pub fn horizon(mut self, horizon: Cycles) -> Self {
        assert!(horizon.raw() > 0);
        self.kind.horizon = horizon;
        self
    }

    /// Inclusive per-job size range the Poisson stream draws from, in the
    /// scenario's natural unit (default 20..=80 messages).
    pub fn size_range(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo <= hi);
        self.kind.size_range = (lo, hi);
        self
    }

    /// NIC buffer policy (default static division, the paper's serving
    /// baseline). Uncoordinated mode requires static division or demand —
    /// the always-resident policies presume coordinated switching.
    pub fn buffer_policy(mut self, policy: BufferPolicy) -> Self {
        self.kind.policy = policy;
        self
    }

    /// Build the cluster, play the arrival stream, drain, and report.
    pub fn run(self) -> ServeCell {
        use parpar::arrivals::ArrivalPlan;
        let k = self.kind.clone();
        let mut cfg = ClusterConfig::parpar(k.nodes, k.slots, k.policy);
        cfg.gang_scheduling = k.mode == SchedulingMode::Gang;
        cfg.dynamic_coscheduling = k.mode == SchedulingMode::DynamicCosched;
        cfg.quantum = SERVE_QUANTUM;
        cfg.eager_reclaim = cfg.gang_scheduling;
        self.apply_common(&mut cfg);
        let seed = self.seed;
        let mut sim = Sim::new(cfg);
        let plan = match k.trace {
            Some(entries) => ArrivalPlan::trace(entries),
            None => ArrivalPlan::poisson(
                seed,
                k.arrival_rate,
                k.horizon,
                SERVE_JOB_WIDTH,
                k.size_range.0,
                k.size_range.1,
            ),
        };
        sim.install_arrivals(&plan, |i, spec| {
            let job_seed = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            workloads::registry::build(SERVE_SCENARIO, spec.nprocs, job_seed, spec.size)
                .expect("p2p is a registered scenario")
        });
        let drain_until = SimTime::ZERO + Cycles(k.horizon.raw().saturating_mul(6));
        let drained = sim.run_until_quiescent(drain_until);
        let fingerprint = sim.logical_fingerprint();
        let logical_events = sim.engine.logical_events();
        let w = sim.world();
        let s = &w.stats;
        ServeCell {
            submitted: w.jobrep.stats.submitted,
            admitted: w.jobrep.stats.admitted,
            rejected: w.jobrep.stats.rejected,
            completed: s.e2e_latency.count(),
            wait_p50: s.wait_latency.quantile_ppk(500),
            wait_p99: s.wait_latency.quantile_ppk(990),
            wait_p999: s.wait_latency.quantile_ppk(999),
            service_p50: s.service_latency.quantile_ppk(500),
            service_p99: s.service_latency.quantile_ppk(990),
            service_p999: s.service_latency.quantile_ppk(999),
            e2e_p50: s.e2e_latency.quantile_ppk(500),
            e2e_p99: s.e2e_latency.quantile_ppk(990),
            e2e_p999: s.e2e_latency.quantile_ppk(999),
            slo_attainment: s.e2e_latency.fraction_le(k.slo.raw()),
            queue_depth_mean: s.queue_depth.mean(),
            queue_depth_max: s.queue_depth.max(),
            drained,
            fingerprint,
            logical_events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_single_context_delivers_high_bandwidth() {
        let c = Measurement::fig5(1, 65536, 200).seed(1).run();
        assert!(c.completed);
        assert_eq!(c.credits, 41);
        assert!(c.mbps > 50.0, "{c:?}");
        assert_eq!((c.wire_losses, c.retransmits), (0, 0));
    }

    #[test]
    fn fig5_seven_contexts_cannot_communicate() {
        let c = Measurement::fig5(7, 1024, 50).seed(1).run();
        assert_eq!(c.credits, 0);
        assert!(!c.completed);
        assert_eq!(c.mbps, 0.0);
    }

    #[test]
    fn fig7_run_produces_stage_samples() {
        let r = Measurement::switch_overhead(4, CopyStrategy::Full, SwitchStrategy::GangFlush, 3)
            .seed(7)
            .run();
        assert!(r.ledger.samples() >= 3 * 4_u64, "{}", r.ledger.samples());
        let (_h, b, _r) = r.ledger.mean_stages();
        // Full copy: ~16 M cycles.
        assert!(b > 10_000_000.0, "buffer switch {b}");
        assert_eq!(r.drops, 0);
    }
}
