//! Paper Fig. 2: the job-initialization protocol.
//!
//! Verifies the sequence masterd → noded → process → LANai: contexts are
//! ready to receive before the fork completes, the masterd collects all
//! ProcStarted notifications before broadcasting AllUp, and no process
//! starts sending before the global synchronization point.

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use fastmsg::init::InitMode;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn run_init(mode: InitMode, nodes: usize) -> (Sim, parpar::job::JobId) {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.init_mode = mode;
    cfg.trace_capacity = 4096;
    // Daemon jitter off: init-latency comparisons must not depend on luck.
    cfg.daemon_jitter_max = Cycles::ZERO;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1024, 10);
    let job = sim.submit(&bench, Some(vec![0, 1])).unwrap();
    (sim, job)
}

#[test]
fn all_up_happens_before_any_send() {
    let (mut sim, job) = run_init(InitMode::ParPar, 4);
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5)));
    let w = sim.world();
    let all_up = w.stats.job_all_up[&job];
    let sent = w.stats.job_first_send[&job];
    assert!(
        sent > all_up,
        "a process sent ({sent:?}) before the sync point ({all_up:?})"
    );
}

#[test]
fn context_is_receive_ready_before_fork_completes() {
    // COMM_init_job allocates the context before the fork (paper §3.2), so
    // the NIC can accept packets for a process that has not mapped its
    // queues yet. We verify the context exists as soon as LoadJob ran.
    let mut cfg = ClusterConfig::parpar(2, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.daemon_jitter_max = Cycles::ZERO;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1024, 10);
    let job = sim.submit(&bench, Some(vec![0, 1])).unwrap();
    // Without jitter the noded acts ~0.55 ms after submission; the fork
    // costs 800 µs more. At 1 ms the context must exist on both nodes while
    // the job is still loading.
    sim.run_until(SimTime::ZERO + Cycles::from_ms(1));
    let w = sim.world();
    assert!(!w.stats.job_all_up.contains_key(&job), "job already all-up");
    for node in [0usize, 1] {
        assert_eq!(
            w.nodes[node].nic.resident_contexts().count(),
            1,
            "node {node} context not allocated early"
        );
    }
}

#[test]
fn job_completes_under_both_init_modes() {
    for mode in [InitMode::ParPar, InitMode::OriginalFm] {
        let (mut sim, job) = run_init(mode, 4);
        assert!(
            sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5)),
            "{mode:?} did not complete"
        );
        assert!(sim.world().stats.job_finished.contains_key(&job));
    }
}

#[test]
fn parpar_integration_starts_jobs_faster_than_stock_fm() {
    // The integration's point in §3.2: IDs come from environment variables,
    // eliminating "costly communication operations when a process is
    // started".
    let mut t = Vec::new();
    for mode in [InitMode::ParPar, InitMode::OriginalFm] {
        let (mut sim, job) = run_init(mode, 4);
        assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5)));
        t.push(sim.world().stats.job_first_send[&job]);
    }
    assert!(
        t[0] < t[1],
        "ParPar init ({:?}) should beat stock FM init ({:?})",
        t[0],
        t[1]
    );
}

#[test]
fn trace_records_the_fig2_sequence() {
    let (mut sim, _job) = run_init(InitMode::ParPar, 2);
    sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5));
    let w = sim.world();
    let gang: Vec<String> = w
        .trace
        .by_category(sim_core::trace::Category::Gang)
        .map(|r| r.msg.clone())
        .collect();
    let pos = |needle: &str| {
        gang.iter()
            .position(|m| m.contains(needle))
            .unwrap_or_else(|| panic!("trace lacks '{needle}': {gang:?}"))
    };
    let loaded = pos("loaded job");
    let all_up = pos("all up");
    let sync = pos("sync byte written");
    assert!(loaded < all_up && all_up < sync);
}

#[test]
fn sixteen_node_job_loads_everywhere() {
    let mut cfg = ClusterConfig::parpar(16, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    let mut sim = Sim::new(cfg);
    let a2a = workloads::alltoall::AllToAll {
        nprocs: 16,
        msg_bytes: 512,
        burst: 2,
        rounds: Some(2),
    };
    let job = sim.submit(&a2a, None).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(10)));
    let w = sim.world();
    assert!(w.stats.job_finished.contains_key(&job));
    // Every node hosted exactly one rank, now torn down, and saw traffic.
    for n in &w.nodes {
        assert!(n.apps.is_empty());
        assert_eq!(n.exited.len(), 1);
        assert_eq!(n.exited[0].job, job);
        assert!(n.nic.stats.data_sent > 0);
        assert!(n.nic.stats.data_received > 0);
    }
}

#[test]
fn pinning_a_job_twice_on_one_node_is_rejected_at_submit() {
    // A job runs one process per node: a repeated node would need two
    // contexts of one job on one NIC. Submission refuses it up front,
    // and the rejected job leaves the cluster free for a valid one.
    let mut sim = Sim::new(ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer));
    let bench = P2pBandwidth::with_count(1024, 10);
    assert_eq!(
        sim.submit(&bench, Some(vec![1, 1])),
        Err(parpar::matrix::PlaceError::RepeatedNode(1))
    );
    sim.submit(&bench, Some(vec![1, 0])).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5)));
}
