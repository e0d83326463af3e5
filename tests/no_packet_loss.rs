//! The paper's robustness claim (§3.2): "This context switch mechanism was
//! found to be robust, and withstood thorough testing without packet
//! loss."
//!
//! These tests run gang-scheduled communicating jobs across many buffer
//! switches and assert end-to-end conservation: every message sent is
//! received, in per-sender FIFO order (the FM library panics on any
//! sequence violation), with zero drops and tight credit accounting.

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;
use workloads::ring::Ring;

#[test]
fn two_gang_scheduled_p2p_jobs_lose_nothing() {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(20); // force many switches mid-stream
    cfg.copy = CopyStrategy::ValidOnly;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 3000);
    let j1 = sim.submit(&bench, Some(vec![0, 1])).unwrap();
    let j2 = sim.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
    let w = sim.world();
    assert!(
        w.stats.switches > 5,
        "want many switches, got {}",
        w.stats.switches
    );
    assert_eq!(w.stats.drops, 0);
    for j in [j1, j2] {
        assert!(w.stats.job_finished.contains_key(&j), "{j} unfinished");
    }
    // Message conservation: each receiver got exactly `count` messages.
    for n in &w.nodes {
        for e in &n.exited {
            if e.rank == 1 {
                assert_eq!(e.stats.msgs_received, 3000);
                assert_eq!(e.stats.bytes_received, 3000 * 4096);
            }
            assert_eq!(e.gaps, 0);
        }
    }
}

#[test]
fn all_to_all_under_full_copy_switches_loses_nothing() {
    let mut cfg = ClusterConfig::parpar(6, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(40);
    cfg.copy = CopyStrategy::Full;
    let mut sim = Sim::new(cfg);
    let a2a = AllToAll {
        nprocs: 6,
        msg_bytes: 1536,
        burst: 8,
        rounds: Some(40),
    };
    let nodes: Vec<usize> = (0..6).collect();
    let j1 = sim.submit(&a2a, Some(nodes.clone())).unwrap();
    let j2 = sim.submit(&a2a, Some(nodes)).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert!(w.stats.switches >= 2);
    assert_eq!(w.stats.drops, 0);
    let expect = 40 * 8 * 5; // rounds * burst * peers
    for n in &w.nodes {
        for e in &n.exited {
            assert_eq!(e.stats.msgs_received, expect, "{j1} {j2} rank {}", e.rank);
            assert_eq!(e.stats.msgs_sent, expect);
        }
    }
}

#[test]
fn ring_survives_switches_and_preserves_token_order() {
    let mut cfg = ClusterConfig::parpar(5, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(15);
    let mut sim = Sim::new(cfg);
    let ring = Ring {
        nprocs: 5,
        msg_bytes: 256,
        laps: 400,
    };
    let nodes: Vec<usize> = (0..5).collect();
    let ring_job = sim.submit(&ring, Some(nodes.clone())).unwrap();
    // A CPU-bound job in the second slot forces real rotations.
    let spin = workloads::program::Uniform::new(5, "spin", |_| {
        Box::new(workloads::program::SpinProgram::default()) as Box<dyn workloads::program::Program>
    });
    sim.submit(&spin, Some(nodes)).unwrap();
    let done = sim
        .engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(60), |w| {
            w.stats.job_finished.len() == 1
        });
    let _ = done;
    let w = sim.world();
    assert_eq!(w.stats.job_finished.len(), 1, "ring did not finish");
    assert!(w.stats.switches > 3);
    assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        // The ring's process has torn down; the spinner's is still live.
        assert_eq!(n.exited.len(), 1);
        assert_eq!(n.exited[0].job, ring_job);
        assert_eq!(n.exited[0].gaps, 0);
    }
}

#[test]
fn credits_are_conserved_across_switches() {
    // After quiescence, every process's held credits must equal C0 toward
    // every peer minus credits consumed by in-flight nothing (queues are
    // empty at completion), up to refills not yet returned.
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(25);
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1536, 2000);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![2, 3])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
    let w = sim.world();
    let c0 = w.cfg.fm.geometry().credits;
    for n in &w.nodes {
        for e in &n.exited {
            // credits held + consumed-but-unreturned on the peer side = C0
            // per peer; with everything drained at teardown the only slack
            // is refills that were never triggered (bounded by the
            // low-water mark).
            let held = e.held_credits;
            let peers = w.cfg.nodes - 1;
            assert!(held <= peers * c0, "credit overflow on {}", e.pid);
            assert!(
                held >= peers * c0 - peers * c0.div_ceil(2),
                "credit leak on {}: held {held}, C0 {c0}",
                e.pid
            );
        }
    }
}

#[test]
fn queues_are_empty_after_all_jobs_finish() {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(8000, 500);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(30)));
    let w = sim.world();
    for n in &w.nodes {
        assert_eq!(n.nic.send_q_occupancy(), 0, "node {} send_q", n.id);
        assert_eq!(n.nic.recv_q_occupancy(), 0, "node {} recv_q", n.id);
        assert!(
            n.apps.values().all(|p| p.saved.is_none()),
            "node {} kept saved queues",
            n.id
        );
    }
}
