//! Engine performance snapshot: wall-clock throughput of the discrete-event
//! core on two scenarios, written to `DIR/BENCH_engine.json` with `--out DIR`.
//!
//! * `ring_1mib` — 4 nodes, one ring job pushing 1 MiB messages for 4
//!   laps: bidirectional traffic on shared links.
//! * `pairs64` — 64 nodes, 32 disjoint point-to-point pairs, static
//!   division, no rotation: the data plane at scale.
//!
//! Each scenario is one row carrying the run's event-stream digest,
//! printed as a stable `DIGEST` line for CI to diff. The row format, its
//! writer and the median-of-three timer live in [`crate::snapshot`].
//!
//! ```text
//! cargo run --release -p bench-harness -- perf_snapshot [--seed N] [--out DIR]
//! ```

use crate::snapshot::{median_wall_ms, Row, Snapshot};
use crate::HarnessOpts;
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::ring::Ring;

/// A static-division cluster of `nodes` one-slot hosts with rotation off.
fn config(nodes: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::parpar(nodes, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    cfg
}

fn ring(seed: u64) -> Sim {
    let mut sim = Sim::new(config(4, seed));
    let ring = Ring {
        nprocs: 4,
        msg_bytes: 1 << 20,
        laps: 4,
    };
    sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
    sim
}

fn pairs64(seed: u64) -> Sim {
    let mut sim = Sim::new(config(64, seed));
    let bench = workloads::registry::build("p2p", 2, seed, 400).expect("registry has p2p");
    for pair in 0..32 {
        sim.submit(&*bench, Some(vec![2 * pair, 2 * pair + 1]))
            .unwrap();
    }
    sim
}

/// One row: run a freshly built `scenario` to completion three times and
/// keep the median wall time. Building the cluster is not timed.
fn measure(scenario: &str, build: impl Fn() -> Sim) -> Row {
    let (wall_ms, sim) = median_wall_ms(build, |mut sim| {
        assert!(
            sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)),
            "{scenario} did not finish"
        );
        sim
    });
    Row {
        scenario: scenario.into(),
        wall_ms,
        logical_events: sim.engine.logical_events(),
        digest: sim.engine.stream_digest(),
    }
}

/// Measure both scenarios and emit the snapshot.
pub fn run(opts: &HarnessOpts) {
    let seed = opts.seed;
    let rows = vec![
        measure("ring_1mib", || ring(seed)),
        measure("pairs64", || pairs64(seed)),
    ];

    println!(
        "{:<10} {:>10} {:>12} {:>12}  digest",
        "scenario", "wall ms", "events", "events/s"
    );
    for r in &rows {
        println!(
            "{:<10} {:>10.1} {:>12} {:>12.0}  {:#018x}",
            r.scenario,
            r.wall_ms,
            r.logical_events,
            r.events_per_sec(),
            r.digest,
        );
    }
    opts.emit_snapshot(
        "BENCH_engine.json",
        &Snapshot::new("engine_throughput", seed, rows),
    );
}
