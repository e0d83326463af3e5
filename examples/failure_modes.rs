//! What breaks, and how: FM's no-retransmission fragility under injected
//! wire loss (paper §2.2), and the packet drops the no-flush SHARE-style
//! switch takes (paper §5) — next to the paper's loss-free gang-flush.
//!
//! ```text
//! cargo run --release --example failure_modes
//! ```

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn wire_loss_demo(ppm: u32) {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.wire_loss_ppm = ppm;
    let mut sim = Sim::new(cfg);
    let count = 20_000u64;
    sim.submit(&P2pBandwidth::with_count(1536, count), Some(vec![0, 1]))
        .unwrap();
    let done = sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(8));
    let w = sim.world();
    // The receiver (rank 1) runs on node 1, live or torn down.
    let n = &w.nodes[1];
    let received: u64 = n
        .apps
        .values()
        .map(|p| p.fm.stats.msgs_received)
        .sum::<u64>()
        + n.exited.iter().map(|e| e.stats.msgs_received).sum::<u64>();
    // Stalls of the processes still running: a wedged run's stuck ones.
    let stalls: u64 = w
        .nodes
        .iter()
        .flat_map(|n| n.apps.values())
        .map(|p| p.fm.flow.stats.credit_stalls)
        .sum();
    println!(
        "  loss {ppm:>4} ppm: {} — {received}/{count} messages, {} packets lost, {stalls} credit stalls",
        if done { "completed " } else { "WEDGED    " },
        w.stats.wire_losses,
    );
}

fn switch_strategy_demo(strategy: SwitchStrategy) {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.strategy = strategy;
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(4096, u64::MAX / 4);
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.submit(&bench, Some(vec![0, 1])).unwrap();
    sim.run_until(SimTime::ZERO + Cycles::from_ms(300));
    let w = sim.world();
    println!(
        "  {:<13} {} switches, {} packets dropped at switches",
        strategy.name(),
        w.stats.switches,
        w.stats.drops
    );
}

fn main() {
    println!("FM under injected wire loss (no retransmission, §2.2):");
    for ppm in [0u32, 50, 200, 1000] {
        wire_loss_demo(ppm);
    }
    println!(
        "\nA single lost packet strands credits forever — which is exactly\n\
         why the paper flushes the network before touching the buffers:\n"
    );
    println!("switch strategies under a multiprogrammed p2p load:");
    switch_strategy_demo(SwitchStrategy::GangFlush);
    switch_strategy_demo(SwitchStrategy::ShareDiscard);
    switch_strategy_demo(SwitchStrategy::AckDrain);
    println!(
        "\ngang-flush loses nothing; the §5 alternatives trade packets (and\n\
         thus a retransmission layer FM does not have) for a cheaper switch."
    );
}
