//! Cluster-level verification of the flush protocol's ordering claims
//! (paper §3.2), read off the trace of a real run, and of the SIGSTOP /
//! SIGCONT discipline around it, read off the per-process records.

use std::collections::BTreeMap;

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;

fn traced_run(nodes: usize) -> Sim {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(30);
    cfg.trace_capacity = 65536;
    let mut sim = Sim::new(cfg);
    let a = AllToAll::stress(nodes);
    let all: Vec<usize> = (0..nodes).collect();
    sim.submit(&a, Some(all.clone())).unwrap();
    sim.submit(&a, Some(all)).unwrap();
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(20), |w| {
            w.stats.switches >= 2
        });
    sim
}

#[test]
fn every_node_hears_every_other_node_halt_each_epoch() {
    let nodes = 5;
    let sim = traced_run(nodes);
    let w = sim.world();
    // For epoch 1: each node must log exactly nodes-1 halt arrivals and
    // one "flushed".
    for n in 0..nodes {
        let halts = w
            .trace
            .by_category(Category::Switch)
            .filter(|r| {
                r.node == Some(n) && r.msg.contains("halt from") && r.msg.contains("(epoch 1)")
            })
            .count();
        assert_eq!(halts, nodes - 1, "node {n} halt count");
        let flushed = w
            .trace
            .by_category(Category::Switch)
            .filter(|r| r.node == Some(n) && r.msg == "flushed")
            .count();
        assert!(flushed >= 1, "node {n} never flushed");
    }
}

#[test]
fn flush_precedes_buffer_switch_on_every_node() {
    let nodes = 4;
    let sim = traced_run(nodes);
    let w = sim.world();
    for n in 0..nodes {
        let records: Vec<_> = w
            .trace
            .by_category(Category::Switch)
            .filter(|r| r.node == Some(n))
            .collect();
        let flushed_at = records
            .iter()
            .find(|r| r.msg == "flushed")
            .expect("no flush record")
            .t;
        let switched_at = records
            .iter()
            .find(|r| r.msg.contains("buffers switched"))
            .expect("no buffer-switch record")
            .t;
        assert!(
            flushed_at < switched_at,
            "node {n}: copy at {switched_at} before flush at {flushed_at}"
        );
    }
}

#[test]
fn no_data_is_in_flight_when_any_node_copies() {
    // The whole point of the flush: by the time a node starts its copy,
    // every packet addressed to it has landed. Equivalent observable: at
    // CopyDone-time occupancies are stable — we verify via conservation:
    // nothing was dropped and FIFO held through 2+ switches (the
    // assertions inside the FM library fire otherwise), and at the end
    // of the run sent == received + in-queues.
    let sim = traced_run(6);
    let w = sim.world();
    assert_eq!(w.stats.drops, 0);
    let sent: u64 = w.nodes.iter().map(|n| n.nic.stats.data_sent).sum();
    let received: u64 = w.nodes.iter().map(|n| n.nic.stats.data_received).sum();
    // The run stops mid-flight: anything not received is still queued in
    // recv rings, parked in saved states, or on the wire at the horizon.
    assert!(sent >= received);
    assert!(sent - received < 2000, "{sent} vs {received}");
}

#[test]
fn stopped_process_waits_for_sigcont_and_finished_processes_exit() {
    // With buffer switching the outgoing context is swapped out too; with
    // static division it stays resident, so only the stop keeps the
    // process from extracting what keeps landing there.
    for policy in [BufferPolicy::FullBuffer, BufferPolicy::StaticDivision] {
        check_stop_cont_and_exit(policy);
    }
}

/// Two p2p jobs share nodes 0 and 1 on a 2-slot rotation: a stopped
/// process starts no host work until its SIGCONT, and once both jobs
/// finish every process is evicted from its node, leaving an exit record
/// but no NIC context and no backing-store entry.
fn check_stop_cont_and_exit(policy: BufferPolicy) {
    let mut cfg = ClusterConfig::parpar(2, 2, policy);
    cfg.quantum = Cycles::from_ms(5);
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, 200);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    let horizon = SimTime::ZERO + Cycles::from_secs(20);
    // Per (node, pid), after every event: (stopped, busy, sent, received).
    let mut last: BTreeMap<(usize, u32), (bool, bool, u64, u64)> = BTreeMap::new();
    let (mut stops, mut conts) = (0, 0);
    while !sim.world().quiescent() && sim.engine.now() < horizon {
        sim.engine.step().expect("event queue ran dry");
        for (node, n) in sim.world().nodes.iter().enumerate() {
            for p in n.apps.values() {
                let s = &p.fm.stats;
                let now = (p.stopped, p.busy, s.msgs_sent, s.msgs_received);
                let Some(prev) = last.insert((node, p.pid.0), now) else {
                    continue;
                };
                // A host op in flight at SIGSTOP may still complete; once
                // it has, nothing runs until SIGCONT.
                if prev.0 && !prev.1 && now.0 {
                    assert!(!now.1, "{policy:?}: stopped {} started host work", p.pid);
                    assert_eq!(prev, now, "{policy:?}: stopped {} made progress", p.pid);
                }
                stops += usize::from(!prev.0 && now.0);
                conts += usize::from(prev.0 && !now.0);
            }
        }
    }
    let w = sim.world();
    assert!(
        w.quiescent(),
        "{policy:?}: jobs did not finish by the horizon"
    );
    assert_eq!(w.stats.job_finished.len(), 2);
    assert!(
        w.stats.switches >= 4,
        "{policy:?}: {} switches",
        w.stats.switches
    );
    assert!(
        stops >= 4 && conts >= 4,
        "{policy:?}: {stops} stops, {conts} conts"
    );
    for n in &w.nodes {
        assert!(
            n.apps.is_empty(),
            "node {}: a process was not evicted",
            n.id
        );
        assert_eq!(n.exited.len(), 2, "node {}: exit records", n.id);
        for e in &n.exited {
            assert!(
                n.nic.find_context(e.job.0).is_none(),
                "{} kept its NIC context",
                e.pid
            );
            assert!(
                !n.backing.contains(e.pid),
                "{} kept a backing-store entry",
                e.pid
            );
        }
    }
}
