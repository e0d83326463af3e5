//! Engine performance snapshot: wall-clock throughput of the discrete-event
//! core on the micro-benchmark scenarios, written to `BENCH_engine.json`.
//!
//! Two default scenarios (`--scenario NAME` swaps in any scenario from
//! [`workloads::registry`] instead — resolved by name, run on 8 nodes):
//!
//! * `ring_1mib` — 4 nodes, one ring job pushing 1 MiB messages for 4
//!   laps: bidirectional traffic on shared links.
//! * `pairs64` — 64 nodes, 32 disjoint point-to-point pairs, static
//!   division, no rotation: the data plane at scale.
//!
//! Each scenario is one row carrying the run's event-stream digest,
//! printed as a stable `DIGEST` line for CI to diff. The row format and
//! its writer live in [`bench_harness::snapshot`].
//!
//! ```text
//! cargo run --release -p bench-harness --bin perf_snapshot \
//!     [--seed N] [--out FILE] [--quick] [--scenario NAME]
//! ```

use std::time::Instant;

use bench_harness::snapshot::{Row, Snapshot};
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::ring::Ring;

/// Everything a run returns besides wall time.
struct Outcome {
    logical_events: u64,
    /// The engine's event-stream digest.
    digest: u64,
}

/// A static-division cluster of `nodes` one-slot hosts with rotation off.
fn config(nodes: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::parpar(nodes, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    cfg
}

/// Run every submitted job to completion and collect the row's outcome.
fn finish(mut sim: Sim, what: &str) -> Outcome {
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)),
        "{what} did not finish"
    );
    Outcome {
        logical_events: sim.engine.logical_events(),
        digest: sim.engine.stream_digest(),
    }
}

fn run_ring(seed: u64, laps: u64) -> Outcome {
    let mut sim = Sim::new(config(4, seed));
    let ring = Ring {
        nprocs: 4,
        msg_bytes: 1 << 20,
        laps,
    };
    sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
    finish(sim, "ring")
}

fn run_pairs64(seed: u64, count: u64) -> Outcome {
    let mut sim = Sim::new(config(64, seed));
    let bench = workloads::registry::build("p2p", 2, seed, count).expect("registry has p2p");
    for pair in 0..32 {
        sim.submit(&*bench, Some(vec![2 * pair, 2 * pair + 1]))
            .unwrap();
    }
    finish(sim, "pairs")
}

/// One registry scenario on 8 nodes, static division, no rotation: the
/// shared path every sweep bin resolves scenario names through.
fn run_scenario(name: &str, seed: u64, size: u64) -> Outcome {
    let bench = workloads::registry::build(name, 8, seed, size).unwrap_or_else(|| {
        panic!(
            "unknown scenario {name:?} (known: {:?})",
            workloads::registry::names()
        )
    });
    let mut sim = Sim::new(config(8, seed));
    let nodes: Vec<usize> = (0..bench.nprocs()).collect();
    sim.submit(&*bench, Some(nodes)).unwrap();
    finish(sim, name)
}

/// Median-of-three wall time (single run with `--quick`), as a row.
fn measure(quick: bool, scenario: &str, f: impl Fn() -> Outcome) -> Row {
    let reps = if quick { 1 } else { 3 };
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let o = f();
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        out = Some(o);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("wall time is finite"));
    let wall_ms = times[times.len() / 2];
    let o = out.expect("at least one rep");
    Row {
        scenario: scenario.into(),
        wall_ms,
        logical_events: o.logical_events,
        digest: o.digest,
    }
}

fn main() {
    let mut seed = 42u64;
    let mut out_path = String::from("BENCH_engine.json");
    let mut quick = false;
    let mut scenario: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let take = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        if let Some(rest) = a.strip_prefix("--seed") {
            let v = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--seed"),
                _ => panic!("unknown flag {a}"),
            };
            seed = v.parse().expect("seed must be an integer");
        } else if let Some(rest) = a.strip_prefix("--out") {
            out_path = match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--out"),
                _ => panic!("unknown flag {a}"),
            };
        } else if let Some(rest) = a.strip_prefix("--scenario") {
            scenario = Some(match rest.strip_prefix('=') {
                Some(v) => v.to_string(),
                None if rest.is_empty() => take(&mut args, "--scenario"),
                _ => panic!("unknown flag {a}"),
            });
        } else if a == "--quick" {
            quick = true;
        } else if a == "--help" || a == "-h" {
            eprintln!(
                "flags: --seed N --out FILE --quick --scenario NAME\n\
                 scenarios: {:?}",
                workloads::registry::names()
            );
            std::process::exit(0);
        } else {
            panic!("unknown flag {a}");
        }
    }

    let (ring_laps, pairs_count) = if quick { (1, 60) } else { (4, 400) };
    let scenario_size = if quick { 20 } else { 100 };
    let rows = match &scenario {
        Some(name) => vec![measure(quick, name, || {
            run_scenario(name, seed, scenario_size)
        })],
        None => vec![
            measure(quick, "ring_1mib", || run_ring(seed, ring_laps)),
            measure(quick, "pairs64", || run_pairs64(seed, pairs_count)),
        ],
    };

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
    Snapshot::new("engine_throughput", seed, rows).write(&out_path);
}
