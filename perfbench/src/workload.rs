//! The three benchmark workloads: how each builds its simulation from a
//! seed, when its run ends, and which output checks it must pass.

use std::time::Instant;

use cluster::measure::Measurement;
use cluster::{
    ArrivalPlan, ClusterConfig, ControlPlane, FatTreeShape, SchedulingMode, Sim, TopologyKind,
    World,
};
use fastmsg::division::BufferPolicy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::{Cycles, SimTime};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 nodes, 32 disjoint `p2p` pairs, static division, no rotation:
    /// the data plane alone.
    Pairs64Stream,
    /// A 256-host fat-tree, serial control plane, four whole-machine
    /// `compute` jobs rotating every 10 ms: the gang switch alone.
    GangRotate256,
    /// `Measurement::serve(8, 2, Gang)` at 12 jobs/s: admission, arrivals
    /// and the go-back-N reliability layer.
    ServeGang12,
}

/// How big a workload's inputs are. `Full` is the benchmark; `Small` is a
/// scaled-down copy with the same structure, for the package's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// A few-millisecond version of the same workload.
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

/// The rule that ends a run and the end condition it must reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every submitted job finished (`Sim::run_until_jobs_done`).
    JobsDone,
    /// The serving pipeline drained (`Sim::run_until_quiescent`).
    Drained,
    /// The cluster completed this many gang switches.
    Switches(u64),
}

impl Stop {
    /// The predicate the engine checks before every event — the same one
    /// the `Sim` run helper passes to `Engine::run_until_pred`.
    #[inline]
    pub fn pred(self, w: &World) -> bool {
        match self {
            Stop::JobsDone | Stop::Drained => w.quiescent(),
            Stop::Switches(n) => w.stats.switches >= n,
        }
    }

    /// Did the run reach its end condition?
    pub fn reached(self, w: &World) -> bool {
        match self {
            Stop::JobsDone => w.all_jobs_finished(),
            Stop::Drained => w.quiescent(),
            Stop::Switches(n) => w.stats.switches >= n,
        }
    }
}

/// Serving workload parameters, shared by the hand-built simulation and
/// the `Measurement::serve` cell it is checked against.
const SERVE_NODES: usize = 8;
const SERVE_SLOTS: usize = 2;
const SERVE_RATE: f64 = 12.0;
const SERVE_SIZES: (u64, u64) = (200, 800);
/// Arrival draws per serving pass.
const SERVE_DRAWS: u64 = 4;
/// Default `Measurement::serve` knobs the hand-built copy reproduces.
const SERVE_WIDTH: usize = 2;
const SERVE_QUANTUM_MS: u64 = 100;
const SERVE_SCENARIO: &str = "p2p";
/// The end-to-end SLO `Measurement::serve` scores attainment against.
pub const SERVE_SLO: Cycles = Cycles::from_ms(500);

/// A simulation after set-up, ready to run.
pub struct Prepared {
    /// The simulation.
    pub sim: Sim,
    /// When its run ends.
    pub stop: Stop,
    /// Simulated-time limit of the run.
    pub horizon: SimTime,
    /// Host seconds spent in `Sim::new`.
    pub world_new_s: f64,
    /// Host seconds spent submitting jobs or installing arrivals.
    pub submit_s: f64,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Pairs64Stream,
        Workload::GangRotate256,
        Workload::ServeGang12,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs64Stream => "pairs64_stream",
            Workload::GangRotate256 => "gang_rotate256",
            Workload::ServeGang12 => "serve_gang12",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seeds of the inputs one pass runs, derived from `seed`.
    ///
    /// The pairs and rotation workloads have one input; the seed moves only
    /// daemon and copy jitter. The serving workload's work follows its
    /// arrival draw, so a pass runs several draws, each a Poisson stream
    /// conditioned on its expected job count and, within 2%, its expected
    /// total size (the first seed in a fixed sequence whose plan qualifies):
    /// the seed moves arrival instants and single job sizes, not how much
    /// work a pass holds.
    pub fn inputs(self, seed: u64, scale: Scale) -> Vec<u64> {
        let mix = |i: u64| seed.wrapping_mul(0x100_0000_01b3).wrapping_add(i);
        match self {
            Workload::Pairs64Stream | Workload::GangRotate256 => vec![mix(0)],
            Workload::ServeGang12 => {
                let horizon = serve_horizon(scale);
                let jobs = (SERVE_RATE * horizon.as_secs()).round() as u64;
                let work = jobs * (SERVE_SIZES.0 + SERVE_SIZES.1) / 2;
                let typical = |s: u64| {
                    let plan = serve_plan(s, horizon);
                    let total: u64 = plan.jobs().iter().map(|j| j.size).sum();
                    plan.len() as u64 == jobs && total.abs_diff(work) * 50 <= work
                };
                (0..SERVE_DRAWS)
                    .map(|i| {
                        (0..)
                            .map(|a| mix(i << 32 | a))
                            .find(|&s| typical(s))
                            .expect("some seed draws a typical plan")
                    })
                    .collect()
            }
        }
    }

    /// Build the simulation for one input, timing its two set-up phases.
    pub fn prepare(self, seed: u64, scale: Scale) -> Prepared {
        match self {
            Workload::Pairs64Stream => prepare_pairs(seed, scale),
            Workload::GangRotate256 => prepare_rotate(seed, scale),
            Workload::ServeGang12 => prepare_serve(seed, scale),
        }
    }

    /// The fingerprint the library's own packaged run of this input
    /// reports, where one exists: `Measurement::serve(...).run()` for the
    /// serving workload. The hand-built simulation must match it.
    pub fn reference_fingerprint(self, seed: u64, scale: Scale) -> Option<u64> {
        match self {
            Workload::ServeGang12 => Some(
                Measurement::serve(SERVE_NODES, SERVE_SLOTS, SchedulingMode::Gang)
                    .arrival_rate(SERVE_RATE)
                    .size_range(SERVE_SIZES.0, SERVE_SIZES.1)
                    .horizon(serve_horizon(scale))
                    .seed(seed)
                    .run()
                    .fingerprint,
            ),
            _ => None,
        }
    }
}

impl Prepared {
    /// Run the simulation to its end with the library's own run helpers
    /// (tracing off).
    pub fn run(&mut self) {
        match self.stop {
            Stop::JobsDone => {
                self.sim.run_until_jobs_done(self.horizon);
            }
            Stop::Drained => {
                self.sim.run_until_quiescent(self.horizon);
            }
            Stop::Switches(n) => {
                self.sim
                    .engine
                    .run_until_pred(self.horizon, |w| w.stats.switches >= n);
            }
        }
    }
}

/// Set-up timing: `Sim::new`, then the submission step.
fn timed_setup(cfg: ClusterConfig, submit: impl FnOnce(&mut Sim)) -> (Sim, f64, f64) {
    let t0 = Instant::now();
    let mut sim = Sim::new(cfg);
    let t1 = Instant::now();
    submit(&mut sim);
    let t2 = Instant::now();
    (sim, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

fn prepare_pairs(seed: u64, scale: Scale) -> Prepared {
    let (nodes, count) = match scale {
        Scale::Full => (64, 400),
        Scale::Small => (8, 20),
    };
    let mut cfg = ClusterConfig::parpar(nodes, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    let bench = workloads::registry::build("p2p", 2, seed, count).expect("registry has p2p");
    let (sim, world_new_s, submit_s) = timed_setup(cfg, |sim| {
        for pair in 0..nodes / 2 {
            sim.submit(&*bench, Some(vec![2 * pair, 2 * pair + 1]))
                .expect("disjoint pairs always fit");
        }
    });
    Prepared {
        sim,
        stop: Stop::JobsDone,
        horizon: SimTime::ZERO + Cycles::from_secs(600),
        world_new_s,
        submit_s,
    }
}

fn prepare_rotate(seed: u64, scale: Scale) -> Prepared {
    let (hosts, switches) = match scale {
        Scale::Full => (256, 12),
        Scale::Small => (16, 3),
    };
    let slots = 4;
    let mut cfg = ClusterConfig::parpar(hosts, slots, BufferPolicy::FullBuffer);
    cfg.topology = TopologyKind::FatTree {
        shape: FatTreeShape::for_hosts(hosts),
    };
    cfg.control = ControlPlane::Serial;
    cfg.copy = CopyStrategy::ValidOnly;
    cfg.quantum = Cycles::from_ms(10);
    cfg.seed = seed;
    // Far more 1 ms chunks than the run lasts: no job ever finishes.
    let job = workloads::registry::build("compute", hosts, seed, 1_000_000)
        .expect("registry has compute");
    let (sim, world_new_s, submit_s) = timed_setup(cfg, |sim| {
        for _ in 0..slots {
            sim.submit(&*job, Some((0..hosts).collect()))
                .expect("one whole-machine job per slot fits");
        }
    });
    Prepared {
        sim,
        stop: Stop::Switches(switches),
        horizon: SimTime::ZERO + Cycles::from_secs(600),
        world_new_s,
        submit_s,
    }
}

fn serve_horizon(scale: Scale) -> Cycles {
    match scale {
        Scale::Full => Cycles::from_secs(2),
        Scale::Small => Cycles::from_ms(500),
    }
}

fn serve_plan(seed: u64, horizon: Cycles) -> ArrivalPlan {
    ArrivalPlan::poisson(
        seed,
        SERVE_RATE,
        horizon,
        SERVE_WIDTH,
        SERVE_SIZES.0,
        SERVE_SIZES.1,
    )
}

/// The serving cell `Measurement::serve(8, 2, Gang)` builds, assembled by
/// hand so set-up and run can be timed and traced separately.
fn prepare_serve(seed: u64, scale: Scale) -> Prepared {
    let horizon = serve_horizon(scale);
    let mut cfg = ClusterConfig::parpar(SERVE_NODES, SERVE_SLOTS, BufferPolicy::StaticDivision);
    cfg.gang_scheduling = true;
    cfg.quantum = Cycles::from_ms(SERVE_QUANTUM_MS);
    cfg.eager_reclaim = true;
    cfg.reliability.enabled = true;
    cfg.seed = seed;
    let plan = serve_plan(seed, horizon);
    let (sim, world_new_s, submit_s) = timed_setup(cfg, |sim| {
        sim.install_arrivals(&plan, |i, spec| {
            let job_seed = seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            workloads::registry::build(SERVE_SCENARIO, spec.nprocs, job_seed, spec.size)
                .expect("registry has p2p")
        });
    });
    Prepared {
        sim,
        stop: Stop::Drained,
        horizon: SimTime::ZERO + Cycles(horizon.raw() * 6),
        world_new_s,
        submit_s,
    }
}

/// The output checks every run must pass; each failure is one line.
pub fn check(p: &Prepared) -> Vec<String> {
    let w = p.sim.world();
    let mut failures = Vec::new();
    if !p.stop.reached(w) {
        failures.push(format!("end condition {:?} not reached", p.stop));
    }
    if w.stats.drops != 0 {
        failures.push(format!("{} packets dropped", w.stats.drops));
    }
    let clamps = p.sim.engine.causality_clamps();
    if clamps != 0 {
        failures.push(format!("{clamps} causality clamps"));
    }
    failures
}
