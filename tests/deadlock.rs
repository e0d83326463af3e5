//! Deadlock-freedom proof harness for the demand-driven credit allocator
//! (`BufferPolicy::Demand`).
//!
//! The allocator moves credit windows between channels *while packets are
//! in flight*, which is exactly the kind of mechanism that invites credit
//! leaks and silent wedges. The defence is a floor invariant — a rebalance
//! target is never below one credit, so every live channel always has at
//! least one credit circulating and a one-credit window refills on every
//! consumed packet. This harness attacks that claim from three sides:
//!
//! * adversarial schedules (gang and non-gang, rotating and co-resident
//!   jobs, skewed and uniform traffic, mid-stream rebalances) must always
//!   quiesce with nothing lost and every ledger intact;
//! * at the paper's scale (16 hosts, 8 contexts) static division's
//!   `C0 = Br/(n²·p)` hits zero and wedges, while Demand — same queue
//!   split, same memory — completes;
//! * the ledger can never acquire credits: its conserved capacity is
//!   bounded by the full-buffer scheme's receive queue.

use cluster::{ClusterConfig, Sim, World};
use fastmsg::config::FmConfig;
use fastmsg::demand::DemandWindows;
use fastmsg::division::{BufferPolicy, CreditRounding};
use proptest::prelude::*;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;
use workloads::ring::Ring;

/// One adversarial schedule: a job mix (with its slot requirement), a
/// gang/non-gang mode, quanta, a rebalance cadence that may or may not
/// divide the quantum.
fn quiesce_case(
    shape: usize,
    gang: bool,
    quantum_ms: u64,
    rebalance_ms: u64,
    msg: u64,
    count: u64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::Demand);
    cfg.gang_scheduling = gang;
    cfg.quantum = Cycles::from_ms(quantum_ms);
    cfg.fm.demand.rebalance_interval = Cycles::from_ms(rebalance_ms);
    cfg.seed = seed;
    let geo = cfg.fm.geometry();
    let full = {
        let mut f = cfg.fm.clone();
        f.policy = BufferPolicy::FullBuffer;
        f.geometry()
    };
    let mut sim = Sim::new(cfg);
    let p2p = P2pBandwidth::with_count(msg, count);
    let ring = Ring {
        nprocs: 4,
        msg_bytes: msg,
        laps: 2,
    };
    let a2a = AllToAll {
        nprocs: 4,
        msg_bytes: msg,
        burst: 4,
        rounds: Some(2),
    };
    // Every shape needs at most 2 contexts per node, so the same mixes
    // run gang-rotated and fully co-resident (non-gang).
    match shape {
        // Two streams rotating on one pair: the classic starvation bait.
        0 => {
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
        }
        // A ring under a point-to-point stream: the ring's forwarding
        // traffic keeps every channel warm while the stream skews one.
        1 => {
            sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
        }
        // Disjoint pairs under a ring: rebalances on nodes whose hot
        // channel is *not* the ring's predecessor.
        2 => {
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
            sim.submit(&p2p, Some(vec![2, 3])).unwrap();
            sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
        }
        // All-to-all bursts: uniform pressure, every window contended.
        _ => {
            sim.submit(&a2a, Some(vec![0, 1, 2, 3])).unwrap();
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
        }
    }
    // A process is evicted with its ledger at teardown, so the ledgers
    // are audited while live: after every event, until the run quiesces.
    let mut audit = Ok(());
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(60), |w| {
            audit = audit_ledgers(w, geo.recv_slots, full.recv_slots);
            audit.is_err() || w.quiescent()
        });
    audit?;
    let w = sim.world();
    prop_assert!(w.all_jobs_finished(), "schedule wedged");
    prop_assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        prop_assert_eq!(n.nic.send_q_occupancy(), 0);
        prop_assert_eq!(n.nic.recv_q_occupancy(), 0);
        prop_assert!(n.apps.values().all(|p| p.saved.is_none()));
        for e in &n.exited {
            prop_assert_eq!(e.gaps, 0);
        }
    }
    Ok(())
}

/// Check every live process's demand ledger.
fn audit_ledgers(w: &World, share: usize, full: usize) -> Result<(), TestCaseError> {
    for (h, n) in w.nodes.iter().enumerate() {
        for p in n.apps.values() {
            let d = p.fm.flow.demand().expect("demand ledger missing");
            // Conservation: the ledger still administers exactly the
            // geometry's receive share — no credit was minted or leaked —
            // and that share never exceeds the full-buffer queue.
            prop_assert_eq!(d.capacity(), share);
            prop_assert!(d.capacity() <= full);
            for peer in (0..w.nodes.len()).filter(|&peer| peer != h) {
                // The deadlock-freedom floor: every peer channel keeps a
                // credit, and no scheduled shrink could ever take the
                // last one.
                prop_assert!(d.window(peer) >= 1, "host {h} peer {peer} starved");
                prop_assert!(d.pending_shrink(peer) < d.window(peer));
            }
        }
    }
    Ok(())
}

proptest! {
    // Each case is a full cluster simulation; 256 schedules is the
    // harness's contract (the vendored proptest default).
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Adversarial schedules always quiesce: jobs finish, nothing drops,
    /// queues drain, and every demand ledger ends conserved and floored.
    #[test]
    fn adversarial_schedules_quiesce(
        shape in 0usize..4,
        gang in any::<bool>(),
        quantum_ms in 5u64..40,
        rebalance_ms in 1u64..12,
        msg in 1u64..6_000,
        count in 8u64..50,
        seed in any::<u64>(),
    ) {
        quiesce_case(shape, gang, quantum_ms, rebalance_ms, msg, count, seed)?;
    }

    /// The ledger in isolation: arbitrary traffic skews and rebalance
    /// cadences never change the conserved capacity, never take a window
    /// below the floor, and the capacity — derived from static division's
    /// own queue split — never exceeds the full-buffer receive queue.
    #[test]
    fn ledger_capacity_is_conserved_and_bounded(
        n in 1usize..9,
        p in 2usize..17,
        recv in 256usize..1025,
        traffic_seed in any::<u64>(),
        rounds in 1usize..6,
    ) {
        // Per-(peer, round) traffic volumes from a splitmix64 stream (the
        // vendored proptest has no collection strategies).
        let volume = |k: u64| {
            let mut z = traffic_seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % 200
        };
        let demand = BufferPolicy::Demand.geometry(252, recv, n, p, CreditRounding::Floor);
        let full = BufferPolicy::FullBuffer.geometry(252, recv, n, p, CreditRounding::Floor);
        let mut d = DemandWindows::new(0, p, demand.credits, demand.recv_slots);
        let cap0 = d.capacity();
        prop_assert!(cap0 <= full.recv_slots, "{cap0} > {}", full.recv_slots);
        for round in 0..rounds {
            for peer in 1..p {
                // Skew rotates with the round so shrinks scheduled in one
                // round are applied by the next round's traffic.
                let t = volume((peer + round) as u64 % 16);
                for _ in 0..t {
                    d.advance(peer);
                }
            }
            d.rebalance();
            prop_assert_eq!(d.capacity(), cap0, "round {}", round);
            for peer in 1..p {
                prop_assert!(d.window(peer) >= 1);
                prop_assert!(d.pending_shrink(peer) < d.window(peer));
            }
        }
    }
}

/// The paper-scale separation: at 16 hosts and 8 contexts static division
/// computes `C0 = 668/(8²·16) = 0` — its channels are stillborn and the
/// jobs wedge forever — while Demand, from the same `668/8`-slot queue
/// split, keeps every channel at the floor or better and completes.
#[test]
fn demand_completes_where_static_division_wedges() {
    let run = |policy: BufferPolicy, count: u64| {
        let mut cfg = ClusterConfig::parpar(16, 8, policy);
        cfg.quantum = Cycles::from_ms(10);
        cfg.seed = 7;
        let geo = cfg.fm.geometry();
        let mut sim = Sim::new(cfg);
        let bench = P2pBandwidth::with_count(2048, count);
        for _ in 0..4 {
            sim.submit(&bench, Some(vec![0, 1])).unwrap();
        }
        let done = sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(3));
        let w = sim.world();
        (geo.credits, done, w.stats.drops, w.stats.realloc_events)
    };

    let (c0, done, drops, _) = run(BufferPolicy::StaticDivision, 10);
    assert_eq!(c0, 0, "the n² collapse should zero static credits");
    assert!(!done, "zero-credit static division cannot finish");
    assert_eq!(drops, 0, "a wedge is starvation, not loss");

    let (c0, done, drops, _) = run(BufferPolicy::Demand, 10);
    assert!(c0 >= 1, "demand must start live");
    assert!(done, "demand wedged at the paper scale");
    assert_eq!(drops, 0);

    // Ten messages finish before a rebalance sees a skew; a longer stream
    // makes the live processes' ledgers move.
    let (_, done, drops, reallocs) = run(BufferPolicy::Demand, 200);
    assert!(done, "demand wedged at the paper scale");
    assert_eq!(drops, 0);
    assert!(reallocs > 0, "skewed traffic should trigger rebalances");
}

/// The geometry backing the whole harness: Demand's per-context share is
/// static division's, so even with all `n` contexts resident its pinned
/// memory never exceeds one full-buffer queue — the paper scheme's cost.
#[test]
fn demand_footprint_matches_static_division() {
    for n in 1..=8usize {
        let fm = FmConfig::parpar(16, n, BufferPolicy::Demand);
        let d = fm.geometry();
        let s = BufferPolicy::StaticDivision.geometry(252, 668, n, 16, CreditRounding::Floor);
        assert_eq!(d.recv_slots, s.recv_slots);
        assert_eq!(d.send_slots, s.send_slots);
        assert!(d.recv_slots * n <= 668);
        assert_eq!(fm.resident_contexts(), n);
    }
}
