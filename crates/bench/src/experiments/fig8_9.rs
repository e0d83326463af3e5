//! Regenerates **paper Figs. 8 and 9** from one sweep: the all-to-all
//! stress load switched with the improved (valid-packets-only) buffer
//! switch, versus the number of nodes.
//!
//! * `fig8` — the valid packets found in the send and receive queues at
//!   buffer-switch time;
//! * `fig9` — the per-stage context-switch times.
//!
//! ```text
//! cargo run --release -p bench-harness -- fig8_9 [--full] [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts, FIG7_NODES};
use cluster::measure::Measurement;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// Run the sweep once and emit `fig8` and `fig9`.
pub fn run(opts: &HarnessOpts) {
    let switches = if opts.full { 12 } else { 5 };
    let seed = opts.seed;
    let results = par_sweep(FIG7_NODES.to_vec(), |&nodes| {
        Measurement::switch_overhead(
            nodes,
            CopyStrategy::ValidOnly,
            SwitchStrategy::GangFlush,
            switches,
        )
        .seed(seed)
        .run()
    });

    let mut fig8 = Table::new(
        "Fig. 8 — valid packets in the queues at switch time (all-to-all)",
        &[
            "nodes",
            "send valid (mean)",
            "recv valid (mean)",
            "recv valid (max)",
            "samples",
        ],
    );
    for (&nodes, r) in FIG7_NODES.iter().zip(&results) {
        let max_recv = r
            .queue_samples
            .iter()
            .map(|q| q.recv_valid)
            .max()
            .unwrap_or(0);
        fig8.row(vec![
            nodes.into(),
            Cell::Float(r.mean_send_valid, 1),
            Cell::Float(r.mean_recv_valid, 1),
            max_recv.into(),
            r.queue_samples.len().into(),
        ]);
    }
    opts.emit("fig8", &fig8);
    println!(
        "Paper shape: queues are \"generally quite empty\" — the receive\n\
         queue grows roughly linearly with node count (all-to-all bursts\n\
         outpace the host), the send queue stays small because \"the LANai\n\
         processor's only job is to empty it\"."
    );

    let mut fig9 = Table::new(
        "Fig. 9 — switch stage times in cycles, improved (valid-only) copy",
        &[
            "nodes",
            "halt",
            "buffer switch",
            "release",
            "total",
            "overhead % of 1s quantum",
        ],
    );
    for (&nodes, r) in FIG7_NODES.iter().zip(&results) {
        let (h, b, rel) = r.ledger.mean_stages();
        fig9.row(vec![
            nodes.into(),
            (h as u64).into(),
            (b as u64).into(),
            (rel as u64).into(),
            (r.ledger.mean_total() as u64).into(),
            Cell::Float(r.ledger.overhead_pct(Cycles::from_secs(1)), 3),
        ]);
    }
    opts.emit("fig9", &fig9);
    println!(
        "Paper shape: copying only the valid packets cuts the buffer switch\n\
         from ~16 M to well under 2.5 M cycles (< 12.5 ms), and the copy\n\
         time now tracks the queue occupancy of Fig. 8 — \"less than 1.25%\"\n\
         of a 1-second quantum."
    );
}
