//! Jobs of different sizes sharing slots — "several parallel applications
//! can run in the same slot, as long as the sum of nodes they require
//! does not exceed the total number of nodes" (paper §2.1) — and
//! switches between slots with *partial* node coverage (some nodes have
//! no process in the outgoing or incoming slot).

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;
use workloads::ring::Ring;

#[test]
fn different_sized_jobs_pack_one_slot_and_run_concurrently() {
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    let mut sim = Sim::new(cfg);
    // Buddy placement packs these three into slot 0: sizes 4, 2, 2.
    let a = sim
        .submit(
            &Ring {
                nprocs: 4,
                msg_bytes: 256,
                laps: 100,
            },
            None,
        )
        .unwrap();
    let b = sim
        .submit(&P2pBandwidth::with_count(2048, 200), None)
        .unwrap();
    let c = sim
        .submit(&P2pBandwidth::with_count(2048, 200), None)
        .unwrap();
    {
        let w = sim.world();
        let slots: Vec<usize> = [a, b, c]
            .iter()
            .map(|j| w.master.job(*j).unwrap().placement.slot)
            .collect();
        assert_eq!(slots, vec![0, 0, 0], "all three should share slot 0");
    }
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
    assert_eq!(sim.world().stats.drops, 0);
    assert_eq!(sim.world().stats.job_finished.len(), 3);
}

#[test]
fn switches_with_partial_node_coverage_lose_nothing() {
    // Slot 0: an 8-node ring. Slot 1: a 2-node p2p on nodes {0,1} and a
    // 2-node p2p on nodes {4,5}. During each switch, nodes 2,3,6,7 have
    // no incoming process — they still participate in the flush protocol.
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(25);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..8).collect();
    let ring = sim
        .submit(
            &Ring {
                nprocs: 8,
                msg_bytes: 512,
                laps: 600,
            },
            Some(all),
        )
        .unwrap();
    let p1 = sim
        .submit(&P2pBandwidth::with_count(4096, 800), Some(vec![0, 1]))
        .unwrap();
    let p2 = sim
        .submit(&P2pBandwidth::with_count(4096, 800), Some(vec![4, 5]))
        .unwrap();
    {
        let w = sim.world();
        assert_eq!(w.master.job(ring).unwrap().placement.slot, 0);
        assert_eq!(w.master.job(p1).unwrap().placement.slot, 1);
        assert_eq!(w.master.job(p2).unwrap().placement.slot, 1);
    }
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches > 2, "switches: {}", w.stats.switches);
    assert_eq!(w.stats.drops, 0);
    assert_eq!(w.stats.job_finished.len(), 3);
    for n in &w.nodes {
        assert_eq!(n.nic.send_q_occupancy(), 0);
        assert_eq!(n.nic.recv_q_occupancy(), 0);
        assert!(n.backing.is_empty());
        for e in &n.exited {
            assert_eq!(e.gaps, 0);
        }
    }
}

#[test]
fn uncovered_nodes_still_flush_and_report() {
    // A 2-node job alternating with nothing else on a 6-node cluster plus
    // a 2-node job in another slot: nodes 2..5 host nobody, yet every
    // switch needs their halt/ready messages.
    let mut cfg = ClusterConfig::parpar(6, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    sim.submit(&P2pBandwidth::with_count(1536, 3000), Some(vec![0, 1]))
        .unwrap();
    sim.submit(&P2pBandwidth::with_count(1536, 3000), Some(vec![0, 1]))
        .unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches > 2);
    // Every node (including empty ones) completed every switch.
    for n in &w.nodes {
        assert_eq!(n.noded.switches_done, w.stats.switches, "node {}", n.id);
    }
}
