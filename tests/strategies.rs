//! The related-work baseline strategies (paper §5) as ablations.
//!
//! * SHARE-style discard: fastest switch, but packets in flight at switch
//!   time are dropped and must be recovered by higher layers;
//! * PM/SCore-style ack-drain: no broadcasts, but every packet pays an ack
//!   on the wire;
//! * the paper's gang-flush: slower halt/release, zero loss.

use cluster::measure::Measurement;
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::p2p::P2pBandwidth;

const SHARE: SwitchStrategy = SwitchStrategy::ShareDiscard;

#[test]
fn gang_flush_never_drops() {
    let r = Measurement::switch_overhead(6, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 4)
        .seed(3)
        .run();
    assert_eq!(r.drops, 0);
    assert!(r.ledger.samples() > 0);
}

#[test]
fn share_discard_drops_in_flight_packets() {
    let r = Measurement::switch_overhead(6, CopyStrategy::ValidOnly, SHARE, 6)
        .seed(3)
        .run();
    assert!(
        r.drops > 0,
        "switching without a flush must catch packets in flight"
    );
}

#[test]
fn share_discard_halt_phase_is_free() {
    let flush =
        Measurement::switch_overhead(8, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 4)
            .seed(3)
            .run();
    let share = Measurement::switch_overhead(8, CopyStrategy::ValidOnly, SHARE, 4)
        .seed(3)
        .run();
    let (hf, _, rf) = flush.ledger.mean_stages();
    let (hs, _, rs) = share.ledger.mean_stages();
    assert!(hs < hf / 10.0, "share halt {hs} vs flush halt {hf}");
    assert_eq!(rs, 0.0, "share has no release protocol");
    assert!(rf > 0.0);
}

/// A `Measurement::switch_overhead` cell (two stress all-to-all jobs on
/// `nodes` nodes, `ValidOnly` copy, 50 ms quantum, seed 3, 4 switches),
/// run by hand so its dispatch counts can be read. Returns the mean halt
/// stage in cycles and the serial halt and ready broadcasts that ran.
fn halt_and_broadcasts(nodes: usize, strategy: SwitchStrategy) -> (f64, u64) {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.copy = CopyStrategy::ValidOnly;
    cfg.strategy = strategy;
    cfg.quantum = Cycles::from_ms(50);
    cfg.seed = 3;
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..nodes).collect();
    let a = AllToAll::stress(nodes);
    sim.submit(&a, Some(all.clone())).unwrap();
    sim.submit(&a, Some(all)).unwrap();
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(600), |w| {
            w.stats.switches >= 4
        });
    let w = sim.world();
    assert!(
        w.stats.switches >= 4,
        "{strategy:?} on {nodes} nodes stalled"
    );
    assert!(w.stats.ledger.samples() > 0);
    let broadcasts = sim
        .engine
        .dispatch_counts()
        .filter(|(kind, _)| matches!(*kind, "halt_bcast_done" | "ready_bcast_done"))
        .map(|(_, n)| n)
        .sum();
    (w.stats.ledger.mean_stages().0, broadcasts)
}

#[test]
fn ack_drain_quiesces_without_broadcasts() {
    // The drain settles a node's *own* in-flight packets by acks (packets
    // headed toward a node that finished first are nacked and left to the
    // sender, exactly the PM/SCore semantics), so no node broadcasts a
    // halt or a ready; the flush protocol broadcasts both every switch.
    let (h6, b6) = halt_and_broadcasts(6, SwitchStrategy::AckDrain);
    let (h16, b16) = halt_and_broadcasts(16, SwitchStrategy::AckDrain);
    let (f6, fb6) = halt_and_broadcasts(6, SwitchStrategy::GangFlush);
    let (f16, fb16) = halt_and_broadcasts(16, SwitchStrategy::GangFlush);
    assert_eq!((b6, b16), (0, 0), "the drain broadcast");
    assert!(fb6 > 0 && fb16 > fb6, "flush broadcasts {fb6}, {fb16}");
    // The drain phase exists, and what it adds from 6 to 16 nodes (more
    // packets in flight to settle) is less than the flush protocol adds
    // by collecting ten more halts per node. (Relative to its own base
    // the drain grows faster: it starts about 100 times cheaper.)
    assert!(h6 > 0.0 && h16 > 0.0, "the drain phase costs nothing");
    assert!(
        h16 - h6 < f16 - f6,
        "drain halt {h6:.0} -> {h16:.0} grew more than flush halt {f6:.0} -> {f16:.0}"
    );
}

#[test]
fn strategies_trade_switch_speed_for_loss() {
    // The ablation summary: SHARE switches fastest but drops; gang-flush
    // pays halt+release and never drops.
    let share = Measurement::switch_overhead(8, CopyStrategy::ValidOnly, SHARE, 5)
        .seed(11)
        .run();
    let flush =
        Measurement::switch_overhead(8, CopyStrategy::ValidOnly, SwitchStrategy::GangFlush, 5)
            .seed(11)
            .run();
    assert!(share.ledger.mean_total() < flush.ledger.mean_total());
    assert!(share.drops > 0);
    assert_eq!(flush.drops, 0);
}

#[test]
fn every_strategy_reports_its_stages_through_the_sequencer() {
    // 6 nodes, two whole-machine all-to-all stress jobs, 50 ms quantum,
    // run to 4 completed switches.
    const NODES: usize = 6;
    for strategy in [SwitchStrategy::GangFlush, SHARE, SwitchStrategy::AckDrain] {
        let mut cfg = ClusterConfig::parpar(NODES, 2, BufferPolicy::FullBuffer);
        cfg.strategy = strategy;
        cfg.quantum = Cycles::from_ms(50);
        cfg.seed = 3;
        let mut sim = Sim::new(cfg);
        let all: Vec<usize> = (0..NODES).collect();
        let a = AllToAll::stress(NODES);
        sim.submit(&a, Some(all.clone())).unwrap();
        sim.submit(&a, Some(all)).unwrap();
        sim.engine
            .run_until_pred(SimTime::ZERO + Cycles::from_secs(600), |w| {
                w.stats.switches >= 4
            });
        let w = sim.world();
        assert_eq!(w.stats.switches, 4, "{}", strategy.name());
        let samples = &w.stats.stage_samples;
        assert_eq!(samples.len(), 4 * NODES, "{}", strategy.name());
        for (node, epoch, b) in samples {
            match strategy {
                // SHARE halts at once and has no release barrier.
                SwitchStrategy::ShareDiscard => {
                    assert_eq!((b.halt, b.release), (Cycles::ZERO, Cycles::ZERO));
                }
                // Ack-drain waits for its own acks, but releases alone.
                SwitchStrategy::AckDrain => assert_eq!(b.release, Cycles::ZERO),
                SwitchStrategy::GangFlush => {
                    assert!(b.halt > Cycles::ZERO && b.release > Cycles::ZERO);
                }
            }
            assert!(b.buffer_switch > Cycles::ZERO, "node {node} epoch {epoch}");
        }
        // Every breakdown came from the node's sequencer: each one's last
        // finished epoch is the epoch of its last stage sample.
        for n in &w.nodes {
            let last = samples.iter().rfind(|s| s.0 == n.id).map(|s| s.1);
            assert!(last.is_some(), "node {} never switched", n.id);
            assert_eq!(
                n.seq.last_finished(),
                last,
                "{} node {}",
                strategy.name(),
                n.id
            );
        }
    }
}

#[test]
fn resident_policies_switch_by_signals_alone() {
    // Under a policy that keeps every context on the NIC there is nothing
    // to flush or copy, whatever the strategy: each switch is a SIGSTOP
    // and a SIGCONT, so no baseline copies buffers or drops stragglers,
    // and every node counts the switch it made. Each cell time-shares
    // nodes 0 and 1 of a 4-node, 2-slot cluster between two 2,000 × 4 KB
    // `p2p` jobs (20 ms quantum, seed 1).
    const SWITCHES: u64 = 4;
    let horizon = SimTime::ZERO + Cycles::from_secs(30);
    for policy in [
        BufferPolicy::StaticDivision,
        BufferPolicy::Demand,
        BufferPolicy::CachedEndpoints,
    ] {
        for strategy in [SwitchStrategy::GangFlush, SHARE, SwitchStrategy::AckDrain] {
            let cell = format!("{policy:?} × {strategy:?}");
            let mut cfg = ClusterConfig::parpar(4, 2, policy);
            cfg.strategy = strategy;
            cfg.quantum = Cycles::from_ms(20);
            cfg.seed = 1;
            let mut sim = Sim::new(cfg);
            let p2p = P2pBandwidth::with_count(4096, 2000);
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
            sim.submit(&p2p, Some(vec![0, 1])).unwrap();
            sim.engine
                .run_until_pred(horizon, |w| w.stats.switches >= SWITCHES);
            let w = sim.world();
            assert_eq!(w.stats.switches, SWITCHES, "{cell}: rotation stalled");
            for n in &w.nodes {
                assert_eq!(n.switches_done, SWITCHES, "{cell}: node {}", n.id);
            }
            assert!(sim.run_until_jobs_done(horizon), "{cell}: jobs unfinished");
            let w = sim.world();
            assert_eq!(w.stats.drops, 0, "{cell}: drops");
            assert!(w.stats.queue_samples.is_empty(), "{cell}: queue samples");
            let copies = sim
                .engine
                .dispatch_counts()
                .find(|(kind, _)| *kind == "copy_done")
                .map_or(0, |(_, n)| n);
            assert_eq!(copies, 0, "{cell}: buffer copies");
        }
    }
}
