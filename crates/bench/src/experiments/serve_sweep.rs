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
//! deterministic, and per-cell `DIGEST` lines print the logical
//! fingerprint for CI to diff. With `--out DIR`, wall-clock throughput
//! (engine logical events per second) goes to `DIR/BENCH_serve.json`.
//! Cells run one at a time, each timed as the median of three runs, so a
//! row's `wall_ms` is one cell on an otherwise idle harness.
//!
//! The figure to look for: every discipline holds the e2e tail near the
//! bare service time until the capacity knee (~6-8 jobs/s here), then the
//! curves separate — past the knee the uncoordinated baseline's tail
//! blows up to several times the coordinated disciplines' because
//! communicating peers stop running together exactly when the cluster is
//! busiest, while gang and dynamic coscheduling degrade gracefully.
//!
//! ```text
//! cargo run --release -p bench-harness -- serve_sweep \
//!     [--max-rate R] [--out DIR] [--csv DIR] [--seed N]
//! ```

use crate::snapshot::{median_wall_ms, Row, Snapshot};
use crate::HarnessOpts;
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
    let (wall_ms, cell) = median_wall_ms(
        || {
            Measurement::serve(8, 2, mode)
                .arrival_rate(rate)
                .horizon(Cycles::from_secs(4))
                .size_range(200, 800)
                .slo(Cycles::from_secs(1))
                .seed(opts.seed)
        },
        |m| m.run(),
    );
    CellOut {
        mode: name,
        rate,
        cell,
        wall_ms,
    }
}

/// Run the sweep up to `--max-rate` and emit its table and snapshot.
pub fn run(opts: &HarnessOpts) {
    let mut cells = Vec::new();
    for &rate in RATES.iter().filter(|&&r| r <= opts.max_rate) {
        for (mode, name) in MODES {
            cells.push(run_cell(mode, name, rate, opts));
        }
    }

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
            Cell::Float(Cycles(s.wait_p50).as_ms(), 3),
            Cell::Float(Cycles(s.wait_p99).as_ms(), 3),
            Cell::Float(Cycles(s.service_p50).as_ms(), 3),
            Cell::Float(Cycles(s.service_p99).as_ms(), 3),
            Cell::Float(Cycles(s.e2e_p50).as_ms(), 3),
            Cell::Float(Cycles(s.e2e_p99).as_ms(), 3),
            Cell::Float(Cycles(s.e2e_p999).as_ms(), 3),
            Cell::Float(s.slo_attainment * 100.0, 2),
            Cell::Float(s.queue_depth_mean, 2),
            Cell::Float(s.queue_depth_max, 1),
        ]);
    }
    opts.emit("serve_sweep", &t);

    let rows = cells
        .iter()
        .map(|c| Row {
            scenario: format!("{}_r{}", c.mode, c.rate),
            wall_ms: c.wall_ms,
            logical_events: c.cell.logical_events,
            digest: c.cell.fingerprint,
        })
        .collect();
    opts.emit_snapshot(
        "BENCH_serve.json",
        &Snapshot::new("serve_sweep", opts.seed, rows),
    );
}
