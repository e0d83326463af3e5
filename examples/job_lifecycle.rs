//! The job-initialization protocol of paper Fig. 2, step by step, and the
//! payoff of the ParPar/FM integration: starting a process with
//! environment variables instead of GRM/CM round trips.
//!
//! ```text
//! cargo run --release --example job_lifecycle
//! ```

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use fastmsg::init::InitMode;
use sim_core::time::{Cycles, SimTime};
use workloads::ring::Ring;

fn run(mode: InitMode) -> (Vec<String>, Cycles) {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.auto_rotate = false;
    cfg.init_mode = mode;
    cfg.trace_capacity = 4096;
    // Remove daemon scheduling jitter so the two protocols compare
    // apples-to-apples.
    cfg.daemon_jitter_max = Cycles::ZERO;
    let mut sim = Sim::new(cfg);
    let ring = Ring {
        nprocs: 4,
        msg_bytes: 1024,
        laps: 3,
    };
    let job = sim.submit(&ring, None).expect("submit");
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(10)));
    let w = sim.world();
    let startup = w.stats.job_first_send[&job].since(SimTime::ZERO);
    let log = w
        .trace
        .records()
        .map(|r| format!("{r}"))
        .collect::<Vec<_>>();
    (log, startup)
}

fn main() {
    println!("== Fig. 2 sequence (ParPar integration) ==");
    let (log, parpar_startup) = run(InitMode::ParPar);
    for line in log
        .iter()
        .filter(|l| l.contains("gang") || l.contains("fm"))
    {
        println!("{line}");
    }
    let (_, stock_startup) = run(InitMode::OriginalFm);
    println!("\nsubmission -> first data packet:");
    println!("  ParPar integration (env vars + pipe sync): {parpar_startup}");
    println!("  stock FM (GRM + CM round trips)          : {stock_startup}");
    println!(
        "\nThe integration removes the per-process control-network round\n\
         trips because the noded already knows the job ID and rank before\n\
         the fork (paper §3.2); the pipe byte provides the one global\n\
         synchronization point that prevents sends to unready processes."
    );
}
