//! Regenerates **paper Fig. 7**: per-stage context-switch times (halt /
//! buffer switch / release), in cycles, versus the number of nodes, with
//! the **full-copy** buffer switch, under an all-to-all stress load.
//!
//! ```text
//! cargo run --release -p bench-harness -- fig7 [--full] [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts, FIG7_NODES};
use cluster::measure::Measurement;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::report::Table;

/// Regenerate Fig. 7 and emit `fig7`.
pub fn run(opts: &HarnessOpts) {
    let switches = if opts.full { 12 } else { 5 };
    let seed = opts.seed;
    let results = par_sweep(FIG7_NODES.to_vec(), |&nodes| {
        Measurement::switch_overhead(
            nodes,
            CopyStrategy::Full,
            SwitchStrategy::GangFlush,
            switches,
        )
        .seed(seed)
        .run()
    });
    let mut table = Table::new(
        "Fig. 7 — switch stage times in cycles, full buffer copy",
        &[
            "nodes",
            "halt",
            "buffer switch",
            "release",
            "total",
            "samples",
        ],
    );
    for (&nodes, r) in FIG7_NODES.iter().zip(&results) {
        let (h, b, rel) = r.ledger.mean_stages();
        table.row(vec![
            nodes.into(),
            (h as u64).into(),
            (b as u64).into(),
            (rel as u64).into(),
            (r.ledger.mean_total() as u64).into(),
            r.ledger.samples().into(),
        ]);
    }
    opts.emit("fig7", &table);
    println!(
        "Paper shape: the buffer switch (~16 M cycles, < the 17 M bound) is\n\
         local and flat in node count; halt and release grow with nodes —\n\
         \"a global protocol between unsynchronized computers\"."
    );
}
