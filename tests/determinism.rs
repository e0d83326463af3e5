//! The simulation is deterministic: identical configuration and seed give
//! bit-identical runs; the figures are exactly reproducible.

use cluster::measure::Measurement;
use cluster::{ClusterConfig, ControlPlane, FatTreeShape, Sim, TopologyKind};
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;

#[test]
fn same_seed_same_event_count_and_bandwidth() {
    let run = || {
        let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
        cfg.quantum = Cycles::from_ms(30);
        cfg.seed = 77;
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(4096, 500);
        let j = sim.submit(&bench, Some(vec![0, 1])).unwrap();
        sim.submit(&bench, Some(vec![0, 1])).unwrap();
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
        (
            sim.engine.events_processed(),
            sim.world().stats.job_finished[&j],
            sim.world().stats.switches,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Golden digests recorded from the seed engine (BinaryHeap pending queue,
/// monolithic dispatcher) before the event-queue and event-bus refactors.
/// The digest is FNV-1a over the delivered `(time, kind)` stream, so any
/// change to event ordering, timing, or the stable kind mapping in
/// `cluster::event::KIND_NAMES` shows up here. Identical in debug and
/// release builds.
mod golden {
    /// 4 nodes / 2 slots / FullBuffer / 30 ms quantum / seed 77,
    /// two P2pBandwidth(4096 B × 500) jobs pinned to nodes [0, 1].
    pub const FULL_BUFFER_EVENTS: u64 = 18_197;
    pub const FULL_BUFFER_DIGEST: u64 = 0xd76b_ef7d_1b3f_c15a;
    /// 2 nodes / 4 slots / CachedEndpoints (max_contexts 2) / 25 ms
    /// quantum / seed 1234, three P2pBandwidth(4096 B × 800) jobs on [0, 1].
    pub const VN_CACHE_EVENTS: u64 = 43_422;
    pub const VN_CACHE_DIGEST: u64 = 0xb1b5_b5ea_bd1b_8f67;
    /// [`super::baseline_strategy_run`] under `ShareDiscard`. Recorded in
    /// release mode; debug matches.
    pub const SHARE_DISCARD_EVENTS: u64 = 131_577;
    pub const SHARE_DISCARD_DIGEST: u64 = 0xd66f_ae6c_0b8a_dbfb;
    /// [`super::baseline_strategy_run`] under `AckDrain`. Recorded in
    /// release mode; debug matches.
    pub const ACK_DRAIN_EVENTS: u64 = 162_177;
    pub const ACK_DRAIN_DIGEST: u64 = 0x8d97_7049_366e_d61e;
}

/// A §5 baseline switch run configured like `Measurement::switch_overhead`:
/// 6 nodes / 2 slots / FullBuffer / 50 ms quantum / seed 3, two
/// whole-machine `AllToAll::stress` jobs, run to 4 completed switches.
/// Returns `(events, digest)`.
fn baseline_strategy_run(strategy: SwitchStrategy) -> (u64, u64) {
    const NODES: usize = 6;
    const SWITCHES: u64 = 4;
    let mut cfg = ClusterConfig::parpar(NODES, 2, BufferPolicy::FullBuffer);
    cfg.copy = CopyStrategy::ValidOnly;
    cfg.strategy = strategy;
    cfg.quantum = Cycles::from_ms(50);
    cfg.seed = 3;
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..NODES).collect();
    let a = AllToAll::stress(NODES);
    sim.submit(&a, Some(all.clone())).unwrap();
    sim.submit(&a, Some(all)).unwrap();
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(600), |w| {
            w.stats.switches >= SWITCHES
        });
    assert_eq!(sim.world().stats.switches, SWITCHES);
    assert_eq!(sim.engine.causality_clamps(), 0);
    (sim.engine.events_processed(), sim.engine.stream_digest())
}

#[test]
fn event_stream_digest_matches_pre_refactor_golden() {
    // Scenario A: gang-scheduled buffer switching.
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    cfg.seed = 77;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 500);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
    assert_eq!(sim.engine.events_processed(), golden::FULL_BUFFER_EVENTS);
    assert_eq!(sim.engine.stream_digest(), golden::FULL_BUFFER_DIGEST);
    assert_eq!(sim.engine.causality_clamps(), 0);
    // Every event was classified: the per-kind counts sum to the total.
    let counted: u64 = sim.engine.dispatch_counts().map(|(_, c)| c).sum();
    assert_eq!(counted, sim.engine.events_processed());

    // Scenario B: VN endpoint caching with faults.
    let mut cfg = ClusterConfig::parpar(2, 4, BufferPolicy::CachedEndpoints);
    cfg.fm.max_contexts = 2;
    cfg.quantum = Cycles::from_ms(25);
    cfg.seed = 1234;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 800);
    for _ in 0..3 {
        sim.submit(&bench, Some(vec![0, 1])).unwrap();
    }
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
    assert_eq!(sim.engine.events_processed(), golden::VN_CACHE_EVENTS);
    assert_eq!(sim.engine.stream_digest(), golden::VN_CACHE_DIGEST);
    assert_eq!(sim.engine.causality_clamps(), 0);
    // Faults occurred, so the fault_done counter is live.
    let faults = sim
        .engine
        .dispatch_counts()
        .find(|(n, _)| *n == "fault_done")
        .map(|(_, c)| c)
        .unwrap();
    assert!(faults > 0, "VN scenario should take endpoint faults");

    // Scenarios C and D: the §5 baselines, which switch without the
    // flush protocol.
    assert_eq!(
        baseline_strategy_run(SwitchStrategy::ShareDiscard),
        (golden::SHARE_DISCARD_EVENTS, golden::SHARE_DISCARD_DIGEST),
        "ShareDiscard"
    );
    assert_eq!(
        baseline_strategy_run(SwitchStrategy::AckDrain),
        (golden::ACK_DRAIN_EVENTS, golden::ACK_DRAIN_DIGEST),
        "AckDrain"
    );
}

#[test]
fn fig_cells_are_reproducible() {
    let a = Measurement::fig5(3, 4096, 100).seed(5).run();
    let b = Measurement::fig5(3, 4096, 100).seed(5).run();
    assert_eq!(a.mbps.to_bits(), b.mbps.to_bits());

    let a = Measurement::fig6(2, 1536, Cycles::from_ms(50), Cycles::from_ms(100))
        .seed(5)
        .run();
    let b = Measurement::fig6(2, 1536, Cycles::from_ms(50), Cycles::from_ms(100))
        .seed(5)
        .run();
    assert_eq!(a.total_mbps.to_bits(), b.total_mbps.to_bits());

    let a = Measurement::switch_overhead(4, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 3)
        .seed(5)
        .run();
    let b = Measurement::switch_overhead(4, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 3)
        .seed(5)
        .run();
    assert_eq!(
        a.ledger.mean_total().to_bits(),
        b.ledger.mean_total().to_bits()
    );
    assert_eq!(a.queue_samples.len(), b.queue_samples.len());
}

/// Golden *logical fingerprints* per buffer policy: the one-word summary
/// of what a run reports. Each cell must reproduce its committed value —
/// any change to the logical event count, job lifecycle timing, or
/// delivered-message accounting shows up here. Identical in debug and
/// release builds.
#[test]
fn logical_fingerprint_goldens_per_policy() {
    let run = |policy: BufferPolicy| {
        let mut cfg = ClusterConfig::parpar(8, 1, policy);
        cfg.auto_rotate = false;
        cfg.seed = 2025;
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(4096, 150);
        for pair in [[0usize, 1], [2, 3], [4, 5], [6, 7]] {
            sim.submit(&bench, Some(pair.to_vec())).unwrap();
        }
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(20)));
        sim.logical_fingerprint()
    };
    // Three policies share a value: on disjoint one-slot pairs the NIC
    // memory scheme does not change any logical observable, only Demand's
    // credit-window sizing moves packet timing. That collapse is itself
    // part of the golden.
    let goldens: &[(BufferPolicy, u64)] = &[
        (BufferPolicy::StaticDivision, 0xdac4_d486_6096_8900),
        (BufferPolicy::FullBuffer, 0xdac4_d486_6096_8900),
        (BufferPolicy::CachedEndpoints, 0xdac4_d486_6096_8900),
        (BufferPolicy::Demand, 0x2290_ddc6_eb19_4988),
    ];
    for &(policy, want) in goldens {
        assert_eq!(run(policy), want, "{policy:?}");
    }
}

/// A 64-host fat-tree gang rotation under FullBuffer, serial control: slot
/// 0 holds a whole-machine compute job, slot 1 a whole-machine 64 KB ring,
/// and the run stops after [`ROTATE64_SWITCHES`] switches. Every switch
/// runs 64 serial halt broadcasts and 64 serial ready broadcasts of 63
/// frames each, so this is the scenario where the broadcast trains matter.
fn rotate64(wire_loss_ppm: u32) -> Sim {
    let hosts = 64;
    let mut cfg = ClusterConfig::parpar(hosts, 2, BufferPolicy::FullBuffer);
    cfg.topology = TopologyKind::FatTree {
        shape: FatTreeShape::for_hosts(hosts),
    };
    cfg.control = ControlPlane::Serial;
    cfg.quantum = Cycles::from_ms(10);
    cfg.seed = 6401;
    cfg.wire_loss_ppm = wire_loss_ppm;
    cfg.reliability.enabled = wire_loss_ppm > 0;
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..hosts).collect();
    for name in ["compute", "ring"] {
        let job = workloads::registry::build(name, hosts, 1, 1_000_000).unwrap();
        sim.submit(&*job, Some(all.clone())).unwrap();
    }
    sim
}

/// Switches [`rotate64`] runs for.
const ROTATE64_SWITCHES: u64 = 6;

/// Run [`rotate64`] to its switch count: `(events, digest, fingerprint)`.
fn run_rotate64(wire_loss_ppm: u32) -> (u64, u64, u64) {
    let mut sim = rotate64(wire_loss_ppm);
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(60), |w| {
            w.stats.switches >= ROTATE64_SWITCHES
        });
    assert_eq!(sim.world().stats.switches, ROTATE64_SWITCHES);
    assert_eq!(sim.engine.causality_clamps(), 0);
    // The masterd counts acks instead of filing node ids, so each node
    // must end each switch exactly once, lost frames and re-broadcasts
    // included.
    let w = sim.world();
    for n in &w.nodes {
        assert_eq!(n.switches_done, w.stats.switches, "node {}", n.id);
    }
    if wire_loss_ppm > 0 {
        // The loss run exercises lost control frames and re-broadcasts.
        assert!(sim.world().stats.rebroadcasts > 0);
    }
    (
        sim.engine.events_processed(),
        sim.engine.stream_digest(),
        sim.logical_fingerprint(),
    )
}

/// Golden event count, stream digest and logical fingerprint of
/// [`rotate64`]: plain, and with 2000 ppm wire loss and reliability on
/// (lost halt/ready frames and the recovery re-broadcasts). Recorded with
/// every serial broadcast's frames queued as separate engine events, so
/// they pin that delivery order.
#[test]
fn fat_tree_rotation_goldens() {
    let cells: &[(u32, u64, u64, u64)] = &[
        (0, 64_550, 0xe436_99e3_120f_14d9, 0x50e1_15b9_704e_ec20),
        (2000, 123_614, 0x345f_20ba_81c0_1e53, 0x8fb8_29c5_e17e_0665),
    ];
    for &(loss, events, digest, fingerprint) in cells {
        let got = run_rotate64(loss);
        let want = (events, digest, fingerprint);
        assert_eq!(got, want, "wire_loss_ppm={loss}");
    }
}

/// A serial broadcast keeps one engine event pending, not one per peer:
/// stepping [`rotate64`] event by event, the queue never holds more than
/// 8 events per host.
#[test]
fn fat_tree_rotation_pending_stays_linear_in_hosts() {
    let mut sim = rotate64(0);
    let bound = 8 * sim.world().cfg.nodes;
    let horizon = SimTime::ZERO + Cycles::from_secs(60);
    let mut peak = 0;
    while sim.world().stats.switches < ROTATE64_SWITCHES {
        assert!(sim.engine.step_bounded(horizon).is_some(), "run stalled");
        peak = peak.max(sim.engine.pending());
    }
    assert!(peak <= bound, "{peak} pending events > {bound}");
}

#[test]
fn different_seeds_vary_jitter_but_preserve_shape() {
    let x = Measurement::switch_overhead(8, CopyStrategy::Full, SwitchStrategy::GangFlush, 3)
        .seed(1)
        .run();
    let y = Measurement::switch_overhead(8, CopyStrategy::Full, SwitchStrategy::GangFlush, 3)
        .seed(2)
        .run();
    // Halt depends on daemon jitter → differs across seeds.
    let (hx, bx, _) = x.ledger.mean_stages();
    let (hy, by, _) = y.ledger.mean_stages();
    assert_ne!(hx.to_bits(), hy.to_bits());
    // The full-copy cost is structural → nearly identical.
    assert!((bx - by).abs() / bx < 0.1, "{bx} vs {by}");
}
