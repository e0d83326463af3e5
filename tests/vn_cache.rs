//! Virtual-networks endpoint caching (paper §5): demand-faulted NIC
//! endpoints with LRU eviction, decoupled from process scheduling —
//! compared against the paper's proactive buffer switch.

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn vn_cfg(nodes: usize, cache_slots: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::parpar(nodes, 4, BufferPolicy::CachedEndpoints);
    cfg.fm.max_contexts = cache_slots;
    cfg.quantum = Cycles::from_ms(25);
    cfg
}

#[test]
fn jobs_beyond_the_cache_fault_in_and_complete() {
    // 3 jobs, 2 cache slots: the third job starts in backing store and
    // faults its endpoints in on first use; rotation churns them.
    let mut sim = Sim::new(vn_cfg(2, 2));
    let bench = P2pBandwidth::with_count(4096, 800);
    for _ in 0..3 {
        sim.submit(&bench, Some(vec![0, 1])).unwrap();
    }
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)),
        "VN-cached jobs did not finish"
    );
    let w = sim.world();
    let faults: u64 = w.nodes.iter().map(|n| n.faults).sum();
    assert!(faults > 0, "three jobs over two slots must fault");
    // Every receiver got every message (parking preserved them).
    for n in &w.nodes {
        for e in &n.exited {
            if e.rank == 1 {
                assert_eq!(e.stats.msgs_received, 800);
            }
            assert_eq!(e.gaps, 0, "VN run lost packets");
        }
    }
    assert_eq!(w.stats.drops, 0, "parking should absorb all arrivals here");
    // Teardown drops a job's LRU entry with its endpoint.
    for n in &w.nodes {
        assert!(n.lru.is_empty(), "node {} kept {:?}", n.id, n.lru);
    }
}

#[test]
fn cache_hits_avoid_faults() {
    // 2 jobs, 2 slots: everything stays resident — zero faults.
    let mut sim = Sim::new(vn_cfg(2, 2));
    let bench = P2pBandwidth::with_count(4096, 500);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    let faults: u64 = w.nodes.iter().map(|n| n.faults).sum();
    assert_eq!(faults, 0);
    assert_eq!(w.stats.drops, 0);
}

#[test]
fn thrash_grows_with_jobs_over_slots() {
    // The cost of decoupling from the scheduler: more jobs than cache
    // slots means every rotation faults.
    let run = |jobs: usize| -> u64 {
        let mut cfg = vn_cfg(2, 2);
        cfg.slots = jobs.max(4);
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(2048, u64::MAX / 4);
        for _ in 0..jobs {
            sim.submit(&bench, Some(vec![0, 1])).unwrap();
        }
        sim.run_until(SimTime::ZERO + Cycles::from_ms(400));
        sim.world().nodes.iter().map(|n| n.faults).sum()
    };
    let fits = run(2);
    let thrash = run(4);
    assert_eq!(fits, 0);
    assert!(
        thrash > 4,
        "4 jobs over 2 slots should thrash, got {thrash}"
    );
}

#[test]
fn vn_pays_faults_where_gang_switch_pays_copies() {
    // Same multiprogrammed load under the paper's scheme vs VN caching
    // with one cache slot: both complete; VN's copies happen reactively
    // (counted as faults), the paper's proactively (counted as switches).
    let bench = P2pBandwidth::with_count(4096, 600);

    let mut gang_cfg = ClusterConfig::parpar(2, 2, BufferPolicy::FullBuffer);
    gang_cfg.quantum = Cycles::from_ms(25);
    let mut gang = Sim::new(gang_cfg);
    gang.submit(&bench, Some(vec![0, 1])).unwrap();
    gang.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(gang.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));

    let mut vn = Sim::new(vn_cfg(2, 1));
    vn.submit(&bench, Some(vec![0, 1])).unwrap();
    vn.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(vn.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));

    let gang_w = gang.world();
    let vn_w = vn.world();
    assert!(gang_w.stats.switches > 0);
    assert_eq!(gang_w.nodes.iter().map(|n| n.faults).sum::<u64>(), 0);
    assert!(vn_w.nodes.iter().map(|n| n.faults).sum::<u64>() > 0);
}
