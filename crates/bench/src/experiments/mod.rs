//! The experiment registry: every table, figure and snapshot the `figs`
//! binary can regenerate, by name. Each experiment prints its tables and
//! writes them through [`HarnessOpts::emit`] (and its snapshot, if it
//! measures wall time, through [`HarnessOpts::emit_snapshot`]).

use crate::HarnessOpts;

pub mod ablation;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8_9;
pub mod gang_premise;
pub mod latency;
pub mod loss_sweep;
pub mod nic_memory;
pub mod overheads;
pub mod perf_snapshot;
pub mod policy_sweep;
pub mod scale_sweep;
pub mod serve_sweep;
pub mod vn_cache;

/// One experiment's entry point.
pub type Experiment = fn(&HarnessOpts);

/// Every experiment, in the order a bare `figs` runs them: the paper's
/// figures and §4.2 numbers, the extension tables and sweeps (the last
/// two also measure wall time), then the engine snapshot.
pub const REGISTRY: [(&str, Experiment); 15] = [
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("fig8_9", fig8_9::run),
    ("overheads", overheads::run),
    ("ablation", ablation::run),
    ("latency", latency::run),
    ("gang_premise", gang_premise::run),
    ("vn_cache", vn_cache::run),
    ("nic_memory", nic_memory::run),
    ("loss_sweep", loss_sweep::run),
    ("policy_sweep", policy_sweep::run),
    ("scale_sweep", scale_sweep::run),
    ("serve_sweep", serve_sweep::run),
    ("perf_snapshot", perf_snapshot::run),
];

/// Every registered name, in registry order.
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|&(name, _)| name).collect()
}

/// The experiment registered as `name`, with its registered name.
pub fn lookup(name: &str) -> Option<(&'static str, Experiment)> {
    REGISTRY.iter().copied().find(|&(n, _)| n == name)
}
