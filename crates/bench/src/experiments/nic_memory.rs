//! Extension bench for the §4.1 in-text observation: "The results also
//! indicate that about 256 KB of memory on the NIC suffices for adequate
//! performance; hence as the available memory grows, more contexts can
//! be supported."
//!
//! Sweeps the NIC buffer budget (0.5x–4x the ParPar 400 KB/1 MB pair)
//! against the context count under stock static division, reporting
//! where the credit formula keeps communication usable.
//!
//! ```text
//! cargo run --release -p bench-harness -- nic_memory [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts};
use cluster::measure::Measurement;
use sim_core::report::{Cell, Table};

/// Run the NIC-memory sweep and emit `nic_memory`.
pub fn run(opts: &HarnessOpts) {
    let seed = opts.seed;
    let scales = [0.5f64, 1.0, 2.0, 4.0];
    let contexts: Vec<usize> = (1..=12).collect();
    let mut params = Vec::new();
    for &n in &contexts {
        for &m in &scales {
            params.push((n, m));
        }
    }
    let results = par_sweep(params, |&(n, m)| {
        Measurement::fig5(n, 16384, 200)
            .mem_scale(m)
            .seed(seed)
            .run()
    });

    let mut headers: Vec<String> = vec!["contexts".into()];
    for &m in &scales {
        headers.push(format!("{m}x C0"));
        headers.push(format!("{m}x MB/s"));
    }
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "§4.1 — NIC memory vs supportable contexts (static division, 16 KB msgs)",
        &hdr_refs,
    );
    for (i, &n) in contexts.iter().enumerate() {
        let mut row: Vec<Cell> = vec![n.into()];
        for (j, _) in scales.iter().enumerate() {
            let c = &results[i * scales.len() + j];
            row.push(c.credits.into());
            row.push(Cell::Float(c.mbps, 2));
        }
        t.row(row);
    }
    opts.emit("nic_memory", &t);
    println!(
        "Doubling the NIC buffers doubles every context's credit window,\n\
         pushing the communication-death cliff out roughly linearly — the\n\
         paper's point that the problem is NIC memory scarcity, and that\n\
         the buffer switch extracts full value from whatever memory exists."
    );
}
