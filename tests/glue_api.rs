//! Exercises the Table-1 network-management API (paper Table 1) through
//! the abstract `CommManager` trait — the interface a different cluster
//! management system would program against.

use cluster::{ClusterConfig, GlueFm, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::api::{CommError, CommManager};
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn sim(nodes: usize) -> Sim {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    Sim::new(cfg)
}

#[test]
fn init_job_allocates_a_receivable_context() {
    let mut s = sim(4);
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 2);
        glue.init_job(SimTime::ZERO, 7, 0).unwrap();
    });
    let w = s.world();
    assert_eq!(w.nodes[2].nic.find_context(7), Some(0));
    // A second context for the same job is rejected by the NIC.
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 2);
        assert_eq!(
            glue.init_job(SimTime::ZERO, 7, 0),
            Err(CommError::NoResources)
        );
    });
}

#[test]
fn full_buffer_policy_admits_only_one_resident_context() {
    let mut s = sim(4);
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        glue.init_job(SimTime::ZERO, 1, 0).unwrap();
        // The whole send buffer is committed to job 1's context.
        assert_eq!(
            glue.init_job(SimTime::ZERO, 2, 0),
            Err(CommError::NoResources)
        );
    });
}

#[test]
fn switch_phases_enforce_ordering() {
    let mut s = sim(2);
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        // No switch in progress: every phase call is a BadPhase.
        assert_eq!(glue.halt_network(SimTime::ZERO), Err(CommError::BadPhase));
        assert_eq!(
            glue.context_switch(SimTime::ZERO, None, None),
            Err(CommError::BadPhase)
        );
        assert_eq!(
            glue.release_network(SimTime::ZERO),
            Err(CommError::BadPhase)
        );
    });
    // Start a switch on node 0 and walk the legal order.
    s.engine.drive(|w, sched| {
        w.nodes[0].seq.start(SimTime::ZERO, 1, 0, 1);
        let mut glue = GlueFm::new(w, sched, 0);
        glue.halt_network(SimTime::ZERO).unwrap();
        // Copy before the flush completed: refused.
        assert_eq!(
            glue.context_switch(SimTime::ZERO, None, None),
            Err(CommError::BadPhase)
        );
    });
}

#[test]
fn context_switch_validates_claimed_jobs_in_both_slots() {
    // Two real jobs pinned to the same nodes land in slots 0 and 1; walk
    // node 0's sequencer to the copy phase and drive COMM_context_switch
    // with explicit from/to claims, both wrong and right.
    let mut s = sim(2);
    // Long enough that neither job finishes (and unloads) before the
    // probe point: with auto-rotation off only slot 0 ever runs.
    let bench = P2pBandwidth::with_count(1024, 100_000);
    let j1 = s.submit(&bench, Some(vec![0, 1])).unwrap();
    let j2 = s.submit(&bench, Some(vec![0, 1])).unwrap();
    let now = SimTime::ZERO + Cycles::from_ms(10);
    s.run_until(now);
    s.engine.drive(|w, sched| {
        assert_eq!(w.nodes[0].apps.in_slot(0).map(|p| p.job), Some(j1));
        assert_eq!(w.nodes[0].apps.in_slot(1).map(|p| p.job), Some(j2));
        // Reach Copying by hand: one peer halt plus the local halt
        // completes the flush on a 2-node cluster.
        let seq = &mut w.nodes[0].seq;
        seq.start(now, 1, 0, 1);
        seq.on_halt_msg(1, 1);
        assert!(seq.on_local_halt());
        seq.flush_complete(now);

        let mut glue = GlueFm::new(w, sched, 0);
        // Claims are validated against the actual slot occupants: swapped
        // jobs, a bogus outgoing claim, and a bogus incoming claim are all
        // rejected without side effects.
        for (from, to) in [
            (Some(j2.0), Some(j1.0)),
            (Some(99), Some(j2.0)),
            (Some(j1.0), Some(99)),
        ] {
            assert_eq!(
                glue.context_switch(now, from, to),
                Err(CommError::UnknownJob)
            );
        }
        // Correct claims for both slots are accepted; partial and blind
        // forms of the same call would be too, but the double-claimed one
        // is the paper's Table-1 signature exercised end to end.
        glue.context_switch(now, Some(j1.0), Some(j2.0)).unwrap();
    });
}

#[test]
fn add_remove_node_membership() {
    let mut s = sim(4);
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        // Removing an idle node succeeds; removing it twice fails.
        glue.remove_node(SimTime::ZERO, 3).unwrap();
        assert_eq!(glue.remove_node(SimTime::ZERO, 3), Err(CommError::BadPhase));
        // Bring it back.
        glue.add_node(SimTime::ZERO, 3).unwrap();
        assert_eq!(glue.add_node(SimTime::ZERO, 3), Err(CommError::BadPhase));
        // A node with a resident context cannot be removed.
        glue.init_job(SimTime::ZERO, 9, 0).unwrap();
        assert_eq!(
            glue.remove_node(SimTime::ZERO, 0),
            Err(CommError::NoResources)
        );
    });
}

#[test]
fn remove_node_after_its_jobs_finish() {
    // COMM_end_job evicts each process, so a node whose jobs all finished
    // hosts nothing and may leave service.
    let mut s = sim(2);
    let bench = P2pBandwidth::with_count(1024, 5);
    s.submit(&bench, Some(vec![0, 1])).unwrap();
    let horizon = SimTime::ZERO + Cycles::from_secs(5);
    s.engine
        .run_until_pred(horizon, |w| !w.nodes[1].apps.is_empty());
    let now = s.engine.now();
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        assert_eq!(glue.remove_node(now, 1), Err(CommError::NoResources));
    });
    assert!(s.run_until_jobs_done(horizon));
    let now = s.engine.now();
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        assert_eq!(glue.remove_node(now, 1), Ok(()));
        assert_eq!(glue.remove_node(now, 0), Ok(()));
    });
}

#[test]
fn end_job_through_the_trait() {
    // Run a real job to completion, then verify end_job already cleaned
    // up (double end_job errors).
    let mut s = sim(2);
    let bench = P2pBandwidth::with_count(1024, 5);
    let _job = s.submit(&bench, Some(vec![0, 1])).unwrap();
    assert!(s.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(5)));
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 0);
        assert_eq!(
            glue.end_job(SimTime::ZERO + Cycles::from_secs(5), 1),
            Err(CommError::UnknownJob)
        );
    });
}

#[test]
fn api_calls_are_usable_as_trait_objects() {
    // The paper's interoperability argument: the interface is abstract.
    let mut s = sim(2);
    s.engine.drive(|w, sched| {
        let mut glue = GlueFm::new(w, sched, 1);
        let mgr: &mut dyn CommManager = &mut glue;
        mgr.init_node(SimTime::ZERO).unwrap();
        mgr.init_job(SimTime::ZERO, 42, 0).unwrap();
        mgr.end_job(SimTime::ZERO, 42).unwrap_or_else(|e| {
            // end_job via trait needs a process; context-only teardown is
            // reported as UnknownJob here.
            assert_eq!(e, CommError::UnknownJob);
        });
    });
}
