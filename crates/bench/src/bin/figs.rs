//! Regenerate the paper's figures, the extension tables and the
//! wall-clock snapshots: `figs [NAME…] [--full] [--csv DIR] [--seed N]
//! [--out DIR]`. With no name, every experiment in
//! [`bench_harness::experiments::REGISTRY`] runs in order.

use bench_harness::{experiments, HarnessOpts};

fn main() {
    let opts = HarnessOpts::from_args();
    for name in &opts.experiments {
        let (_, run) = experiments::lookup(name).expect("parse checked the name");
        run(&opts);
    }
}
