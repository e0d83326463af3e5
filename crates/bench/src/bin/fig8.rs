//! Regenerates **paper Fig. 8**: the number of valid packets found in the
//! send and receive queues at buffer-switch time, versus the number of
//! nodes, under the all-to-all stress load.
//!
//! ```text
//! cargo run --release -p bench-harness --bin fig8 [--full] [--csv DIR]
//! ```

use bench_harness::{par_sweep, HarnessOpts, FIG7_NODES};
use cluster::measure::Measurement;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::report::{Cell, Table};

fn main() {
    let opts = HarnessOpts::from_args();
    let switches = if opts.full { 12 } else { 5 };
    let seed = opts.seed;
    let batch = opts.batch;
    let results = par_sweep(FIG7_NODES.to_vec(), |&nodes| {
        Measurement::switch_overhead(
            nodes,
            CopyStrategy::ValidOnly,
            SwitchStrategy::GangFlush,
            switches,
        )
        .seed(seed)
        .batch(batch)
        .run()
    });
    let mut table = Table::new(
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
        table.row(vec![
            nodes.into(),
            Cell::Float(r.mean_send_valid, 1),
            Cell::Float(r.mean_recv_valid, 1),
            max_recv.into(),
            r.queue_samples.len().into(),
        ]);
    }
    opts.emit("fig8", &table);
    println!(
        "Paper shape: queues are \"generally quite empty\" — the receive\n\
         queue grows roughly linearly with node count (all-to-all bursts\n\
         outpace the host), the send queue stays small because \"the LANai\n\
         processor's only job is to empty it\"."
    );
}
