//! Counterfactual sweep: point-to-point bandwidth versus wire loss rate,
//! stock FM (no retransmission, as the paper ships it) side by side with
//! the opt-in go-back-N reliability layer.
//!
//! The paper's §2.2 assumes "an insignificant error rate on a SAN" and
//! omits retransmission entirely; this sweep quantifies that bet. Stock FM
//! wedges at the first loss that corrupts the credit counters (bandwidth
//! reads 0.00, done reads no); the reliability layer pays retransmissions
//! instead and keeps completing.
//!
//! ```text
//! cargo run --release -p bench-harness -- loss_sweep [--full] [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts};
use cluster::measure::{BandwidthCell, Measurement};
use sim_core::report::{Cell, Table};

/// Loss rates swept, in dropped frames per million.
const LOSS_PPM: [u32; 7] = [0, 50, 100, 200, 500, 1000, 2000];

/// Fixed Fig.-5-style cell: two contexts so the credit window is tight
/// enough for a lost refill to matter.
const CONTEXTS: usize = 2;

/// Run the loss sweep and emit `loss_sweep_off` and `loss_sweep_on`.
pub fn run(opts: &HarnessOpts) {
    let (msg_bytes, count) = if opts.full {
        (4096, 20_000)
    } else {
        (1536, 2_000)
    };
    let seed = opts.seed;
    let mut params = Vec::new();
    for &ppm in &LOSS_PPM {
        for reliability in [false, true] {
            params.push((ppm, reliability));
        }
    }
    let results = par_sweep(params, |&(ppm, reliability)| {
        Measurement::fig5(CONTEXTS, msg_bytes, count)
            .seed(seed)
            .wire_loss_ppm(ppm)
            .reliability(reliability)
            .run()
    });

    let row = |t: &mut Table, ppm: u32, c: &BandwidthCell| {
        t.row(vec![
            (ppm as u64).into(),
            Cell::Float(c.mbps, 2),
            if c.completed {
                "yes".into()
            } else {
                "no".into()
            },
            c.wire_losses.into(),
            c.retransmits.into(),
        ]);
    };
    let headers = ["loss ppm", "MB/s", "done", "losses", "retransmits"];

    let mut off = Table::new(
        "Loss sweep — stock FM, no retransmission (paper §2.2)",
        &headers,
    );
    let mut on = Table::new("Loss sweep — go-back-N reliability layer enabled", &headers);
    for (i, &ppm) in LOSS_PPM.iter().enumerate() {
        row(&mut off, ppm, &results[2 * i]);
        row(&mut on, ppm, &results[2 * i + 1]);
    }
    opts.emit("loss_sweep_off", &off);
    opts.emit("loss_sweep_on", &on);
    println!(
        "Counterfactual shape: stock FM completes only while the loss dice\n\
         spare it, then wedges (0.00 MB/s); the reliability layer trades a\n\
         modest bandwidth tax (retransmits + timeouts) for completion at\n\
         every loss rate."
    );
}
