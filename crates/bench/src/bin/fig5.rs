//! Regenerates **paper Fig. 5**: point-to-point bandwidth as a function of
//! message size and the number of contexts, using the original FM buffer
//! division.
//!
//! ```text
//! cargo run --release -p bench-harness --bin fig5 [--full] [--csv DIR]
//! ```

use bench_harness::{fig5_count, par_sweep, HarnessOpts, FIG5_SIZES};
use cluster::measure::Measurement;
use sim_core::report::{Cell, Table};

fn main() {
    let opts = HarnessOpts::from_args();
    let contexts: Vec<usize> = (1..=8).collect();
    let mut params = Vec::new();
    for &n in &contexts {
        for &sz in &FIG5_SIZES {
            params.push((n, sz));
        }
    }
    let seed = opts.seed;
    let full = opts.full;
    let batch = opts.batch;
    let results = par_sweep(params.clone(), |&(n, sz)| {
        Measurement::fig5(n, sz, fig5_count(sz, full))
            .seed(seed)
            .batch(batch)
            .run()
    });

    let mut headers: Vec<String> = vec!["contexts".into(), "C0".into()];
    headers.extend(FIG5_SIZES.iter().map(|s| format!("{s}B MB/s")));
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig. 5 — bandwidth vs message size and #contexts (original FM static division)",
        &hdr_refs,
    );
    for (i, &n) in contexts.iter().enumerate() {
        let row_cells = &results[i * FIG5_SIZES.len()..(i + 1) * FIG5_SIZES.len()];
        let mut row: Vec<Cell> = vec![n.into(), row_cells[0].credits.into()];
        row.extend(row_cells.iter().map(|c| Cell::Float(c.mbps, 2)));
        table.row(row);
    }
    opts.emit("fig5", &table);
    println!(
        "Paper shape: sharp collapse with context count (C0 = Br/(n²p));\n\
         communication impossible once C0 floors to zero (n=7 here, n=8 in\n\
         the paper — rounding discrepancy documented in EXPERIMENTS.md)."
    );
}
