//! Fault injection: the paper's §2.2 warning made executable.
//!
//! "Because of this credit scheme and the credit refill technique, a
//! single packet loss can mess up the credit counters and the entire flow
//! control algorithm. FM does not have a retransmission mechanism, based
//! on the assumption of an insignificant error rate on a SAN."

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn run_with_loss(ppm: u32) -> (bool, u64) {
    run_with_loss_rel(ppm, false).0
}

/// Returns `((done, wire_losses), retransmits)`.
fn run_with_loss_rel(ppm: u32, reliability: bool) -> ((bool, u64), u64) {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.wire_loss_ppm = ppm;
    cfg.reliability.enabled = reliability;
    cfg.seed = 1234;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1536, 20_000);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    let done = sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(10));
    let w = sim.world();
    ((done, w.stats.wire_losses), w.stats.retransmits)
}

#[test]
fn reliable_san_completes() {
    let (done, losses) = run_with_loss(0);
    assert!(done);
    assert_eq!(losses, 0);
}

#[test]
fn packet_loss_wedges_fm_flow_control() {
    // At 200 ppm the 20k-message run loses a handful of packets. Lost
    // data packets consume credits that are never returned; lost refills
    // strand the window. Without retransmission the benchmark cannot
    // complete — exactly the fragility §2.2 describes.
    let (done, losses) = run_with_loss(200);
    assert!(losses > 0, "fault injector never fired");
    assert!(
        !done,
        "FM without retransmission should wedge after {losses} losses"
    );
}

#[test]
fn reliability_layer_survives_heavy_loss() {
    // The same workload that wedges stock FM at 200 ppm completes at
    // 500 ppm once the opt-in go-back-N layer is on: lost fragments are
    // retransmitted and cumulative acks/credits self-heal the counters.
    let ((done, losses), retransmits) = run_with_loss_rel(500, true);
    assert!(losses > 0, "fault injector never fired");
    assert!(
        retransmits > 0,
        "losses happened but nothing was retransmitted"
    );
    assert!(
        done,
        "reliability layer should recover from {losses} losses ({retransmits} retransmits)"
    );
}

#[test]
fn reliability_layer_is_inert_at_zero_loss() {
    // With no loss the layer adds no retries — acks just piggyback on
    // traffic that exists anyway.
    let ((done, losses), retransmits) = run_with_loss_rel(0, true);
    assert!(done);
    assert_eq!(losses, 0);
    assert_eq!(retransmits, 0);
}

#[test]
fn switch_protocol_recovers_lost_broadcasts() {
    // With auto-rotation and a short quantum the halt/ready broadcast
    // protocol runs constantly; at 2% frame loss some halt or ready
    // messages vanish. Without recovery a single lost broadcast deadlocks
    // the whole machine mid-switch. With reliability on, the masterd
    // watchdog re-requests the protocol and the sequencers dedup the
    // rebroadcasts, so both jobs still finish.
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = true;
    cfg.quantum = Cycles::from_ms(5);
    cfg.wire_loss_ppm = 20_000;
    cfg.reliability.enabled = true;
    cfg.reliability.switch_retry = Cycles::from_ms(10);
    cfg.seed = 42;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1536, 2_000);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    let done = sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60));
    let w = sim.world();
    assert!(w.stats.wire_losses > 0, "fault injector never fired");
    assert!(w.stats.switches > 0, "auto-rotation never switched");
    assert!(
        done,
        "switch protocol should recover from lost broadcasts \
         ({} losses, {} switches, {} retries, {} rebroadcasts)",
        w.stats.wire_losses, w.stats.switches, w.stats.switch_retries, w.stats.rebroadcasts
    );
    assert!(
        w.stats.switch_retries > 0 || w.stats.rebroadcasts > 0,
        "expected at least one protocol retry at this loss rate"
    );
}

#[test]
fn lost_messages_are_visible_as_gaps_or_shortfall() {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.wire_loss_ppm = 500;
    cfg.seed = 77;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(1536, 20_000);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.run_until(SimTime::ZERO + Cycles::from_secs(5));
    let w = sim.world();
    assert!(w.stats.wire_losses > 0);
    let live = w.nodes.iter().flat_map(|n| n.apps.values());
    let exited = w.nodes.iter().flat_map(|n| &n.exited);
    let receiver_msgs: u64 = live
        .filter(|p| p.rank == 1)
        .map(|p| p.fm.stats.msgs_received)
        .chain(
            exited
                .filter(|e| e.rank == 1)
                .map(|e| e.stats.msgs_received),
        )
        .sum();
    assert!(
        receiver_msgs < 20_000,
        "loss must be end-to-end visible (got {receiver_msgs})"
    );
}
