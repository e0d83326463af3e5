//! The serving-cluster latency figure: open-loop offered load vs request
//! latency, gang vs uncoordinated vs dynamic coscheduling.
//!
//! Each cell plays the same seeded Poisson arrival stream (2-wide `p2p`
//! jobs from the workload registry, sizes drawn 200..=800 messages) into
//! an 8-node, 2-slot cluster and reports the streaming latency sketches:
//! submit→dispatch wait, dispatch→finish service, and end-to-end
//! percentiles, plus SLO attainment at 1 s and the jobrep queue depth.
//! Reliability is on — the serving operating point cannot assume a
//! perfect SAN. Rows ascend in offered rate with all three disciplines
//! per rate, so the CSV from `--max-rate 2` (the CI smoke run) is a byte
//! prefix of the committed full `results/serve_sweep.csv`. Cells are
//! deterministic: the CSV is bit-identical at any `--batch`, and per-cell
//! `DIGEST` lines print the logical fingerprint for CI to diff. Wall-clock
//! throughput (engine logical events per second) goes to
//! `BENCH_serve.json`.
//!
//! The figure to look for: every discipline holds the e2e tail near the
//! bare service time until the capacity knee (~6-8 jobs/s here), then the
//! curves separate — past the knee the uncoordinated baseline's tail
//! blows up to several times the coordinated disciplines' because
//! communicating peers stop running together exactly when the cluster is
//! busiest, while gang and dynamic coscheduling degrade gracefully.
//!
//! ```text
//! cargo run --release -p bench-harness --bin serve_sweep -- \
//!     [--max-rate R] [--out FILE] [--csv DIR] [--seed N] [--batch K]
//! ```

use std::time::Instant;

use bench_harness::snapshot::{Row, Snapshot};
use bench_harness::{par_sweep, HarnessOpts};
use cluster::measure::{Measurement, SchedulingMode, ServeCell};
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// Offered-load x-axis, jobs per simulated second.
const RATES: [f64; 7] = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0];

/// The scheduling disciplines, in stable column order.
const MODES: [(SchedulingMode, &str); 3] = [
    (SchedulingMode::Gang, "gang"),
    (SchedulingMode::Uncoordinated, "uncoord"),
    (SchedulingMode::DynamicCosched, "dynamic"),
];

struct CellOut {
    mode: &'static str,
    rate: f64,
    cell: ServeCell,
    wall_ms: f64,
}

fn run_cell(mode: SchedulingMode, name: &'static str, rate: f64, opts: &HarnessOpts) -> CellOut {
    let t0 = Instant::now();
    let cell = Measurement::serve(8, 2, mode)
        .arrival_rate(rate)
        .horizon(Cycles::from_secs(4))
        .size_range(200, 800)
        .slo(Cycles::from_secs(1))
        .seed(opts.seed)
        .batch(opts.batch)
        .run();
    CellOut {
        mode: name,
        rate,
        cell,
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

fn ms(cycles: u64) -> f64 {
    cycles as f64 / Cycles::from_ms(1).raw() as f64
}

fn main() {
    // Strip the sweep-specific flags before the common parser (it rejects
    // unknown flags).
    let mut max_rate = f64::INFINITY;
    let mut out_path = String::from("BENCH_serve.json");
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max-rate" => {
                max_rate = args
                    .next()
                    .expect("--max-rate needs a rate")
                    .parse()
                    .expect("--max-rate takes a number");
            }
            "--out" => out_path = args.next().expect("--out needs a file"),
            _ => rest.push(a),
        }
    }
    let opts = HarnessOpts::parse(rest);

    let mut params = Vec::new();
    for &rate in RATES.iter().filter(|&&r| r <= max_rate) {
        for (mode, name) in MODES {
            params.push((mode, name, rate));
        }
    }
    let cells = par_sweep(params, |&(mode, name, rate)| {
        run_cell(mode, name, rate, &opts)
    });

    let mut t = Table::new(
        "serve_sweep — open-loop request latency vs offered load (8 nodes, 2 slots, p2p jobs)",
        &[
            "mode",
            "rate",
            "submitted",
            "completed",
            "drained",
            "wait_p50_ms",
            "wait_p99_ms",
            "svc_p50_ms",
            "svc_p99_ms",
            "e2e_p50_ms",
            "e2e_p99_ms",
            "e2e_p999_ms",
            "slo_pct",
            "qdepth_mean",
            "qdepth_max",
        ],
    );
    for c in &cells {
        let s = &c.cell;
        t.row(vec![
            c.mode.into(),
            Cell::Float(c.rate, 1),
            s.submitted.into(),
            s.completed.into(),
            u64::from(s.drained).into(),
            Cell::Float(ms(s.wait_p50), 3),
            Cell::Float(ms(s.wait_p99), 3),
            Cell::Float(ms(s.service_p50), 3),
            Cell::Float(ms(s.service_p99), 3),
            Cell::Float(ms(s.e2e_p50), 3),
            Cell::Float(ms(s.e2e_p99), 3),
            Cell::Float(ms(s.e2e_p999), 3),
            Cell::Float(s.slo_attainment * 100.0, 2),
            Cell::Float(s.queue_depth_mean, 2),
            Cell::Float(s.queue_depth_max, 1),
        ]);
    }
    opts.emit("serve_sweep", &t);

    // Stable fingerprint lines for CI to diff across `--batch`.
    for c in &cells {
        println!(
            "DIGEST scenario={}_r{} events={} digest={:#018x}",
            c.mode, c.rate, c.cell.logical_events, c.cell.fingerprint
        );
    }

    let snap = Snapshot {
        bench: "serve_sweep".to_string(),
        seed: opts.seed,
        host_cores: sim_core::pool::max_parallelism(),
        rows: cells
            .iter()
            .map(|c| Row {
                scenario: format!("{}_r{}", c.mode, c.rate),
                batch: opts.batch,
                wall_ms: c.wall_ms,
                logical_events: c.cell.logical_events,
                events_per_sec: c.cell.logical_events as f64 / (c.wall_ms / 1e3).max(1e-9),
                digest: c.cell.fingerprint,
            })
            .collect(),
    };
    std::fs::write(&out_path, snap.to_json()).expect("write snapshot json");
    eprintln!("wrote {out_path}");
}
