//! Regenerates the **§4.2 in-text measurements**: the memory-region
//! bandwidths behind the copy-cost model, the full vs improved switch
//! bounds (85 ms / 12.5 ms), and the overhead-vs-quantum amortization
//! argument.
//!
//! ```text
//! cargo run --release -p bench-harness -- overheads [--csv DIR]
//! ```

use crate::HarnessOpts;
use cluster::measure::switch_overhead_run;
use fastmsg::config::FmConfig;
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::{switch_cost, CopyStrategy, SwitchCosts};
use sim_core::mem::CopyCostModel;
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// Regenerate the §4.2 numbers and emit `overheads_{memory,switch,quantum}`.
pub fn run(opts: &HarnessOpts) {
    // -- memory-region bandwidths (§4.2 text) ---------------------------
    let mem = CopyCostModel::parpar();
    let mut t1 = Table::new(
        "§4.2 — memory access bandwidths (model constants = paper measurements)",
        &["access", "MB/s"],
    );
    t1.row(vec![
        "regular memory copy".into(),
        Cell::Float(mem.host_bw as f64 / 1e6, 0),
    ]);
    t1.row(vec![
        "write-combining read".into(),
        Cell::Float(mem.wc_read_bw as f64 / 1e6, 0),
    ]);
    t1.row(vec![
        "write-combining write".into(),
        Cell::Float(mem.wc_write_bw as f64 / 1e6, 0),
    ]);
    opts.emit("overheads_memory", &t1);

    // -- analytic switch bounds -----------------------------------------
    let cfg = FmConfig::parpar(16, 2, BufferPolicy::FullBuffer);
    let costs = SwitchCosts::default();
    let full = switch_cost(CopyStrategy::Full, &cfg, &mem, &costs, 252, 668, 252, 668);
    let improved = switch_cost(
        CopyStrategy::ValidOnly,
        &cfg,
        &mem,
        &costs,
        20,
        110,
        20,
        110,
    );
    let mut t2 = Table::new(
        "§4.2 — buffer switch cost (model) vs the paper's bounds",
        &["algorithm", "cycles", "ms @200MHz", "paper bound"],
    );
    t2.row(vec![
        "full copy".into(),
        full.raw().into(),
        Cell::Float(full.as_ms(), 1),
        "< 17,000,000 cyc (85 ms)".into(),
    ]);
    t2.row(vec![
        "valid-only (Fig. 8 occupancy)".into(),
        improved.raw().into(),
        Cell::Float(improved.as_ms(), 1),
        "< 2,500,000 cyc (12.5 ms)".into(),
    ]);
    opts.emit("overheads_switch", &t2);

    // -- measured overhead vs quantum ------------------------------------
    let measured_full = switch_overhead_run(
        16,
        CopyStrategy::Full,
        SwitchStrategy::GangFlush,
        5,
        opts.seed,
    );
    let measured_valid = switch_overhead_run(
        16,
        CopyStrategy::ValidOnly,
        SwitchStrategy::GangFlush,
        5,
        opts.seed,
    );
    let mut t3 = Table::new(
        "§4.2 — measured switch total vs gang quantum (16 nodes, all-to-all)",
        &["quantum", "full-copy overhead %", "valid-only overhead %"],
    );
    for q_ms in [100u64, 300, 1000, 3000, 10_000] {
        let q = Cycles::from_ms(q_ms);
        t3.row(vec![
            format!("{} ms", q_ms).into(),
            Cell::Float(measured_full.ledger.overhead_pct(q), 3),
            Cell::Float(measured_valid.ledger.overhead_pct(q), 3),
        ]);
    }
    opts.emit("overheads_quantum", &t3);
    println!(
        "Paper: with a 1 s quantum the improved switch costs < 1.25%; even\n\
         the full copy is \"tolerable\". Gang quanta of seconds-to-minutes\n\
         amortize the switch to noise."
    );
}
