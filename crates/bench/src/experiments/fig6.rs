//! Regenerates **paper Fig. 6**: total bandwidth as a function of message
//! size and the number of jobs, using the buffer-switching scheme.
//!
//! Quick mode uses a 100 ms quantum and a 400 ms measurement window; the
//! paper used a 3 s quantum (`--full`), and the result is
//! quantum-invariant (verified in `tests/switch_overhead.rs`).
//!
//! ```text
//! cargo run --release -p bench-harness -- fig6 [--full] [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts, FIG6_SIZES};
use cluster::measure::Measurement;
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// Regenerate Fig. 6 and emit `fig6`.
pub fn run(opts: &HarnessOpts) {
    let (quantum, window) = if opts.full {
        (Cycles::from_secs(3), Cycles::from_secs(12))
    } else {
        (Cycles::from_ms(100), Cycles::from_ms(400))
    };
    let jobs: Vec<usize> = (1..=8).collect();
    let mut params = Vec::new();
    for &k in &jobs {
        for &sz in &FIG6_SIZES {
            params.push((k, sz));
        }
    }
    let seed = opts.seed;
    let results = par_sweep(params, |&(k, sz)| {
        Measurement::fig6(k, sz, quantum, window).seed(seed).run()
    });

    let mut headers: Vec<String> = vec!["jobs".into(), "C0".into(), "switches".into()];
    headers.extend(FIG6_SIZES.iter().map(|s| format!("{s}B MB/s")));
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Fig. 6 — total bandwidth vs message size and #jobs (buffer switching)",
        &hdr_refs,
    );
    for (i, &k) in jobs.iter().enumerate() {
        let cells = &results[i * FIG6_SIZES.len()..(i + 1) * FIG6_SIZES.len()];
        let mut row: Vec<Cell> = vec![
            k.into(),
            cells[0].credits.into(),
            cells.iter().map(|c| c.switches).max().unwrap().into(),
        ];
        row.extend(cells.iter().map(|c| Cell::Float(c.total_mbps, 2)));
        table.row(row);
    }
    opts.emit("fig6", &table);
    println!(
        "Paper shape: total bandwidth is independent of the number of jobs\n\
         (C0 = Br/p for every job, full buffers switched at each quantum)."
    );
}
