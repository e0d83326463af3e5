//! A realistic multiprogrammed day on the cluster: irregular, collective
//! and streaming jobs of different sizes gang-scheduled together, with
//! rotation, queued admission, and full conservation checks at the end.

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::collectives::{AllReduce, Barrier};
use workloads::p2p::P2pBandwidth;
use workloads::pairs::{expected_received, RandomPairs};
use workloads::ring::Ring;

#[test]
fn random_pairs_survive_gang_switches() {
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..8).collect();
    let pairs = RandomPairs {
        nprocs: 8,
        msg_bytes: 2048,
        rounds: 400,
        seed: 31,
        sync_every: 40,
    };
    sim.submit(&pairs, Some(all.clone())).unwrap();
    sim.submit(&pairs, Some(all)).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches > 2);
    assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        for e in &n.exited {
            let expect = expected_received(31, 8, e.rank, 400);
            assert_eq!(e.stats.msgs_received, expect, "rank {}", e.rank);
            assert_eq!(e.stats.msgs_sent, 400);
            assert_eq!(e.gaps, 0);
        }
    }
}

#[test]
fn four_way_mixed_day() {
    // Slot stack on 16 nodes: a 16-rank allreduce job, a 16-rank random
    // pairs job, and a slot shared by an 8-rank barrier job + two 2-rank
    // p2p jobs + a 4-rank ring — five jobs, three slots, all finishing.
    let mut cfg = ClusterConfig::parpar(16, 3, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..16).collect();
    sim.submit(
        &AllReduce {
            nprocs: 16,
            msg_bytes: 8192,
            repetitions: 150,
        },
        Some(all.clone()),
    )
    .unwrap();
    sim.submit(
        &RandomPairs {
            nprocs: 16,
            msg_bytes: 1536,
            rounds: 300,
            seed: 5,
            sync_every: 30,
        },
        Some(all),
    )
    .unwrap();
    sim.submit(
        &Barrier {
            nprocs: 8,
            msg_bytes: 64,
            repetitions: 400,
        },
        None, // buddy placement: nodes 0..8 in slot 2
    )
    .unwrap();
    sim.submit(&P2pBandwidth::with_count(16384, 400), Some(vec![8, 9]))
        .unwrap();
    sim.submit(&P2pBandwidth::with_count(16384, 400), Some(vec![10, 11]))
        .unwrap();
    sim.submit(
        &Ring {
            nprocs: 4,
            msg_bytes: 1024,
            laps: 300,
        },
        Some(vec![12, 13, 14, 15]),
    )
    .unwrap();
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(120)),
        "mixed day did not finish"
    );
    let w = sim.world();
    assert_eq!(w.stats.job_finished.len(), 6);
    assert_eq!(w.stats.drops, 0);
    assert!(w.stats.switches > 3);
    for n in &w.nodes {
        assert_eq!(n.nic.send_q_occupancy(), 0, "node {}", n.id);
        assert_eq!(n.nic.recv_q_occupancy(), 0, "node {}", n.id);
        assert!(n.apps.values().all(|p| p.saved.is_none()), "node {}", n.id);
        for e in &n.exited {
            assert_eq!(e.gaps, 0);
        }
    }
    // Global packet conservation: everything sent was received.
    let sent: u64 = w.nodes.iter().map(|n| n.nic.stats.data_sent).sum();
    let recvd: u64 = w.nodes.iter().map(|n| n.nic.stats.data_received).sum();
    assert_eq!(sent, recvd);
}
