//! End-to-end jobrep queueing: submissions that do not fit the gang
//! matrix wait and are admitted automatically as space frees up.

use cluster::{ArrivalPlan, ArrivalSpec, ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;
use workloads::Workload;

/// Submit `jobs` copies of `bench` through the jobrep queue, all arriving
/// at time zero, and let the arrivals fire.
fn submit_at_zero(sim: &mut Sim, jobs: usize, bench: P2pBandwidth) {
    let spec = ArrivalSpec {
        at: Cycles::ZERO,
        nprocs: bench.nprocs(),
        size: 0,
    };
    sim.install_arrivals(&ArrivalPlan::trace(vec![spec; jobs]), |_, _| {
        Box::new(bench)
    });
    sim.run_until(SimTime::ZERO);
}

#[test]
fn queued_job_runs_after_matrix_space_frees() {
    // 2 nodes, a 2-deep matrix: two jobs fill it; the third waits.
    let mut cfg = ClusterConfig::parpar(2, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    let mut sim = Sim::new(cfg);
    submit_at_zero(&mut sim, 3, P2pBandwidth::with_count(2048, 300));
    assert_eq!(sim.world().jobrep.stats.admitted, 2);
    assert_eq!(sim.world().jobrep.waiting(), 1, "third job should queue");

    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)),
        "all three jobs should eventually finish"
    );
    let w = sim.world();
    assert_eq!(w.jobrep.waiting(), 0);
    assert_eq!(w.jobrep.stats.admitted, 3);
    // Three distinct jobs finished, including the late-admitted one.
    assert_eq!(w.stats.job_finished.len(), 3);
    // Exactly one job waited: it was dispatched after it was submitted.
    let (waited, immediate): (Vec<_>, Vec<_>) = w
        .stats
        .job_dispatched
        .iter()
        .partition(|(j, t)| **t > w.stats.job_submitted[j]);
    assert_eq!((waited.len(), immediate.len()), (1, 2));
    for (j, _) in &immediate {
        assert!(w.stats.job_finished.contains_key(j));
    }
    // The queued job started strictly after one of the first two ended.
    let first_end = w.stats.job_finished.values().min().unwrap();
    let queued_job = waited[0].0;
    assert!(w.stats.job_all_up[&queued_job] > *first_end);
    assert_eq!(w.stats.drops, 0);
}

#[test]
fn queue_preserves_fifo_admission() {
    let mut cfg = ClusterConfig::parpar(2, 1, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    let mut sim = Sim::new(cfg);
    // One job runs; two more queue up.
    submit_at_zero(&mut sim, 3, P2pBandwidth::with_count(1024, 50));
    assert_eq!(sim.world().jobrep.stats.admitted, 1);
    assert_eq!(sim.world().jobrep.waiting(), 2);
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    let w = sim.world();
    assert_eq!(w.stats.job_finished.len(), 3);
    // Jobs were admitted (and thus came up) in submission order:
    // JobIds are allocated at admission, so all-up order tracks id order.
    let mut ups: Vec<_> = w.stats.job_all_up.iter().collect();
    ups.sort_by_key(|(j, _)| *j);
    for pair in ups.windows(2) {
        assert!(pair[0].1 <= pair[1].1, "admission out of order");
    }
}
