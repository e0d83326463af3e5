//! Engine performance snapshot: wall-clock throughput of the discrete-event
//! core on the micro-benchmark scenarios, written to `BENCH_engine.json`.
//!
//! Two default scenarios (`--scenario NAME` swaps in any scenario from
//! [`workloads::registry`] instead — resolved by name, run on 8 nodes at
//! both batch settings):
//!
//! * `ring_1mib` — 4 nodes, one ring job pushing 1 MiB messages for 4
//!   laps: bidirectional traffic on shared links, the burst fast path's
//!   best case.
//! * `pairs64` — 64 nodes, 32 disjoint point-to-point pairs, static
//!   division, no rotation: the data plane at scale.
//!
//! Each scenario runs at `--batch off` and `--batch 16`. Every row carries
//! a determinism digest, printed as stable `DIGEST` lines for CI to diff.
//! For `batch == 0` rows that is the physical event-stream digest. Burst
//! trains elide physical events, so `batch > 0` rows pin the run one level
//! up, at [`Sim::logical_fingerprint`], which equals the unbatched run's.
//!
//! The row format and its JSON round-trip live in
//! [`bench_harness::snapshot`].
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
    /// Physical stream digest at `batch == 0`, logical fingerprint at
    /// `batch > 0` (see the module docs for why the contract moves).
    digest: u64,
}

/// A static-division cluster of `nodes` one-slot hosts with rotation off.
fn config(nodes: usize, batch: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::parpar(nodes, 1, BufferPolicy::StaticDivision);
    cfg.auto_rotate = false;
    cfg.seed = seed;
    cfg.batch = batch;
    cfg
}

/// Run every submitted job to completion and collect the row's outcome.
fn finish(mut sim: Sim, batch: usize, what: &str) -> Outcome {
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)),
        "{what} did not finish"
    );
    Outcome {
        logical_events: sim.engine.logical_events(),
        digest: if batch == 0 {
            sim.engine.stream_digest()
        } else {
            sim.logical_fingerprint()
        },
    }
}

fn run_ring(batch: usize, seed: u64, laps: u64) -> Outcome {
    let mut sim = Sim::new(config(4, batch, seed));
    let ring = Ring {
        nprocs: 4,
        msg_bytes: 1 << 20,
        laps,
    };
    sim.submit(&ring, Some(vec![0, 1, 2, 3])).unwrap();
    finish(sim, batch, "ring")
}

fn run_pairs64(batch: usize, seed: u64, count: u64) -> Outcome {
    let mut sim = Sim::new(config(64, batch, seed));
    let bench = workloads::registry::build("p2p", 2, seed, count).expect("registry has p2p");
    for pair in 0..32 {
        sim.submit(&*bench, Some(vec![2 * pair, 2 * pair + 1]))
            .unwrap();
    }
    finish(sim, batch, "pairs")
}

/// One registry scenario on 8 nodes, static division, no rotation: the
/// shared path every sweep bin resolves scenario names through.
fn run_scenario(name: &str, batch: usize, seed: u64, size: u64) -> Outcome {
    let bench = workloads::registry::build(name, 8, seed, size).unwrap_or_else(|| {
        panic!(
            "unknown scenario {name:?} (known: {:?})",
            workloads::registry::names()
        )
    });
    let mut sim = Sim::new(config(8, batch, seed));
    let nodes: Vec<usize> = (0..bench.nprocs()).collect();
    sim.submit(&*bench, Some(nodes)).unwrap();
    finish(sim, batch, name)
}

/// Median-of-three wall time (single run with `--quick`), as a row.
fn measure(quick: bool, scenario: &str, batch: usize, f: impl Fn() -> Outcome) -> Row {
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
        batch,
        wall_ms,
        logical_events: o.logical_events,
        events_per_sec: o.logical_events as f64 / (wall_ms / 1e3),
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
    let mut rows = Vec::new();
    for batch in [0usize, 16] {
        if let Some(name) = &scenario {
            rows.push(measure(quick, name, batch, || {
                run_scenario(name, batch, seed, scenario_size)
            }));
            continue;
        }
        rows.push(measure(quick, "ring_1mib", batch, || {
            run_ring(batch, seed, ring_laps)
        }));
        rows.push(measure(quick, "pairs64", batch, || {
            run_pairs64(batch, seed, pairs_count)
        }));
    }

    println!(
        "{:<10} {:>5} {:>10} {:>12} {:>12}  digest",
        "scenario", "batch", "wall ms", "events", "events/s"
    );
    for r in &rows {
        println!(
            "{:<10} {:>5} {:>10.1} {:>12} {:>12.0}  {:#018x}",
            r.scenario, r.batch, r.wall_ms, r.logical_events, r.events_per_sec, r.digest,
        );
    }
    // Determinism lines for CI: a fixed function of the seed, so two runs
    // must print the same set (compare with `grep ^DIGEST | sort -u`).
    for r in &rows {
        println!(
            "DIGEST scenario={} batch={} kind={} events={} digest={:#018x}",
            r.scenario,
            r.batch,
            if r.batch == 0 { "physical" } else { "logical" },
            r.logical_events,
            r.digest
        );
    }

    let snap = Snapshot {
        bench: "engine_throughput".into(),
        seed,
        host_cores: sim_core::pool::max_parallelism(),
        rows,
    };
    std::fs::write(&out_path, snap.to_json()).expect("write snapshot json");
    eprintln!("wrote {out_path}");
}
