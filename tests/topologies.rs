//! The protocols only assume per-route FIFO and halt-after-data; verify
//! the whole stack — flush, switch, collectives — on multi-hop fat-tree
//! fabrics: a two-edge fabric whose single edge→aggregation uplink is a
//! contended trunk, and the 64-host three-tier Clos.

use cluster::{ClusterConfig, ControlPlane, FatTreeShape, LinkTier, Sim, TopologyKind};
use fastmsg::division::BufferPolicy;
use myrinet::topology::Topology;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;

/// Two edge switches of four hosts under one aggregation switch: hosts
/// 0–3 and 4–7 each share their edge's single uplink, the trunk that all
/// cross-edge traffic contends on.
fn two_edge() -> TopologyKind {
    TopologyKind::FatTree {
        shape: FatTreeShape {
            pods: 1,
            edges_per_pod: 2,
            hosts_per_edge: 4,
            aggs_per_pod: 1,
            spines: 0,
        },
    }
}

#[test]
fn cross_trunk_p2p_completes_with_switches() {
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.topology = two_edge();
    cfg.quantum = Cycles::from_ms(25);
    let mut sim = Sim::new(cfg);
    // Nodes 0 and 7 sit on different edge switches: every packet crosses
    // the trunk.
    let bench = P2pBandwidth::with_count(8192, 800);
    sim.submit(&bench, Some(vec![0, 7])).unwrap();
    sim.submit(&bench, Some(vec![0, 7])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches > 2);
    assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        for e in &n.exited {
            assert_eq!(e.gaps, 0);
            if e.rank == 1 {
                assert_eq!(e.stats.msgs_received, 800);
            }
        }
    }
}

#[test]
fn all_to_all_over_a_contended_trunk_flushes_cleanly() {
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.topology = two_edge();
    cfg.quantum = Cycles::from_ms(40);
    let mut sim = Sim::new(cfg);
    let a = AllToAll {
        nprocs: 8,
        msg_bytes: 1536,
        burst: 6,
        rounds: Some(60),
    };
    let all: Vec<usize> = (0..8).collect();
    sim.submit(&a, Some(all.clone())).unwrap();
    sim.submit(&a, Some(all)).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(120)));
    let w = sim.world();
    assert_eq!(w.stats.drops, 0);
    let expect = 60 * 6 * 7;
    for n in &w.nodes {
        for e in &n.exited {
            assert_eq!(e.stats.msgs_received, expect);
        }
    }
}

#[test]
fn trunk_contention_caps_cross_traffic_bandwidth() {
    // Three concurrent cross-trunk streams share one 160 MB/s trunk;
    // three same-side streams do not.
    let run = |pairs: [(usize, usize); 3]| -> f64 {
        let mut cfg = ClusterConfig::parpar(8, 1, BufferPolicy::FullBuffer);
        cfg.topology = two_edge();
        cfg.auto_rotate = false;
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(65536, 150);
        let mut jobs = Vec::new();
        for (a, b) in pairs {
            jobs.push(sim.submit(&bench, Some(vec![a, b])).unwrap());
        }
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
        let w = sim.world();
        jobs.iter()
            .map(|j| w.stats.job_bandwidth_mbps(*j, 65536 * 150).unwrap())
            .sum()
    };
    // Cross-trunk: three ~74 MB/s streams squeeze through one 160 MB/s
    // trunk link.
    let cross = run([(0, 4), (1, 5), (2, 6)]);
    // Same-side: no shared link — each stream runs at host speed.
    let local = run([(0, 1), (2, 3), (4, 5)]);
    assert!(
        cross < local * 0.85,
        "trunk contention should bite: cross {cross} vs local {local}"
    );
    // And the trunk carries at most its wire rate.
    assert!(cross < 165.0, "{cross} exceeds the trunk");
}

/// Fat-tree routes are a pure function of `(src, dst)`: rebuilding the
/// topology (any simulation seed — construction takes none) yields the
/// same route, so per-pair FIFO holds. Every route is also a valid
/// up-down path: tier profiles are palindromic `E`, `E·A·A·E`, or
/// `E·A·S·S·A·E` depending on locality.
#[test]
fn fat_tree_routes_are_deterministic_up_down_paths() {
    let shape = FatTreeShape::for_hosts(64);
    let a = Topology::fat_tree(shape);
    let b = Topology::fat_tree(shape);
    for src in 0..64 {
        for dst in 0..64 {
            if src == dst {
                continue;
            }
            let ra: Vec<usize> = a.route(src, dst).to_vec();
            let rb: Vec<usize> = b.route(src, dst).to_vec();
            assert_eq!(ra, rb, "route ({src}, {dst}) not deterministic");
            let tiers: Vec<LinkTier> = ra.iter().map(|&l| a.link_tier(l)).collect();
            use LinkTier::{Agg, Edge, Spine};
            match tiers.len() {
                2 => assert_eq!(tiers, [Edge, Edge]),
                4 => assert_eq!(tiers, [Edge, Agg, Agg, Edge]),
                6 => assert_eq!(tiers, [Edge, Agg, Spine, Spine, Agg, Edge]),
                n => panic!("route ({src}, {dst}) has invalid length {n}"),
            }
        }
    }
}

/// Per-tier link counts give the expected bisection structure: with
/// `hosts_per_edge = 8` hosts per edge switch, the edge tier has `2·N`
/// links, and the aggregation and spine tiers each offer the full
/// rearrangeable bisection of the shape.
#[test]
fn fat_tree_bisection_link_counts_per_tier() {
    for n in [64usize, 256, 1024] {
        let shape = FatTreeShape::for_hosts(n);
        let topo = Topology::fat_tree(shape);
        let mut count = [0usize; 3];
        for lid in 0..topo.links().len() {
            match topo.link_tier(lid) {
                LinkTier::Edge => count[0] += 1,
                LinkTier::Agg => count[1] += 1,
                LinkTier::Spine => count[2] += 1,
            }
        }
        assert_eq!(count[0], 2 * n, "edge tier at N = {n}");
        // Each edge switch uplinks to every agg in its pod (one up + one
        // down wire each); each agg uplinks to its spine stripe.
        let aggs = shape.pods * shape.aggs_per_pod;
        assert_eq!(
            count[1],
            2 * shape.edges_per_pod * aggs,
            "agg tier at N = {n}"
        );
        assert_eq!(
            count[2],
            2 * shape.spines * shape.pods,
            "spine tier at N = {n}"
        );
    }
}

/// Cross-pod traffic on a fat-tree exercises every tier and arrives
/// intact through gang switches; per-tier traffic shows up in the stats.
#[test]
fn cross_pod_p2p_completes_with_switches() {
    let shape = FatTreeShape::for_hosts(64);
    let mut cfg = ClusterConfig::parpar(64, 2, BufferPolicy::FullBuffer);
    cfg.topology = TopologyKind::FatTree { shape };
    cfg.quantum = Cycles::from_ms(25);
    let mut sim = Sim::new(cfg);
    // Hosts 0 and 63 sit in different pods: six hops through the spine.
    let bench = P2pBandwidth::with_count(8192, 400);
    sim.submit(&bench, Some(vec![0, 63])).unwrap();
    sim.submit(&bench, Some(vec![0, 63])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches > 2);
    assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        for e in &n.exited {
            assert_eq!(e.gaps, 0);
            if e.rank == 1 {
                assert_eq!(e.stats.msgs_received, 400);
            }
        }
    }
    let tiers = w.tier_traffic();
    assert!(tiers.packets[0] > 0, "edge tier carried nothing");
    assert!(tiers.packets[1] > 0, "agg tier carried nothing");
    assert!(tiers.packets[2] > 0, "spine tier carried nothing");
    // Cross-pod data climbs agg and spine alike, but flush-protocol
    // broadcasts to same-pod peers turn around at the aggregation tier,
    // so it carries at least as much as the spine.
    assert!(tiers.packets[1] >= tiers.packets[2]);
}

/// The three control planes deliver the same protocol outcomes; their
/// latency ordering is the honest one — a serial unicast loop pays O(N)
/// wire times where the flat multicast pays one, and the combining tree
/// undercuts serial well before N = 64.
#[test]
fn control_planes_agree_and_order_switch_latency_honestly() {
    let run = |control: ControlPlane| {
        let mut cfg = ClusterConfig::parpar(64, 2, BufferPolicy::StaticDivision);
        cfg.topology = TopologyKind::FatTree {
            shape: FatTreeShape::for_hosts(64),
        };
        cfg.control = control;
        cfg.daemon_jitter_max = Cycles::ZERO;
        cfg.quantum = Cycles::from_ms(50);
        let mut sim = Sim::new(cfg);
        // Same pair twice: the jobs share nodes, so they must occupy two
        // slots and every quantum actually rotates.
        let bench = P2pBandwidth::with_count(4096, 200);
        sim.submit(&bench, Some(vec![0, 63])).unwrap();
        sim.submit(&bench, Some(vec![0, 63])).unwrap();
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
        let w = sim.world();
        assert_eq!(w.stats.drops, 0);
        assert!(w.stats.switches > 0);
        assert_eq!(
            w.stats.switch_latency.len(),
            w.stats.switches as usize,
            "one latency sample per completed switch"
        );
        (w.stats.switches, w.stats.mean_switch_latency().unwrap())
    };
    let (_, flat) = run(ControlPlane::Flat);
    let (_, serial) = run(ControlPlane::Serial);
    let (_, tree) = run(ControlPlane::Tree { fanout: 8 });
    assert!(
        serial > flat,
        "serial fan-out must cost more than a single multicast: {serial} vs {flat}"
    );
    assert!(
        tree < serial,
        "the combining tree must beat the serial loop at N = 64: {tree} vs {serial}"
    );
}
