//! Extension bench: the paper's proactive buffer switch vs
//! virtual-networks endpoint caching (paper §5, ref. \[2\]) under the Fig. 6
//! multiprogrammed load.
//!
//! Both schemes move the same queue bytes between NIC and backing store;
//! the difference is *when*: the gang switch pays between quanta, VN pays
//! reactively on the first message after rotation — and divides the NIC
//! among its cache slots, shrinking the credit window.
//!
//! ```text
//! cargo run --release -p bench-harness -- vn_cache [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts};
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::report::{Cell, Table};
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

struct Row {
    total_mbps: f64,
    faults: u64,
    switches: u64,
    credits: usize,
}

fn run_cell(jobs: usize, policy: BufferPolicy, cache_slots: usize, seed: u64) -> Row {
    let mut cfg = ClusterConfig::parpar(16, jobs.max(2), policy);
    if policy == BufferPolicy::CachedEndpoints {
        cfg.fm.max_contexts = cache_slots;
    }
    cfg.quantum = Cycles::from_ms(100);
    cfg.seed = seed;
    let credits = cfg.fm.geometry().credits;
    let mut sim = Sim::new(cfg);
    let bench = P2pBandwidth::with_count(24576, u64::MAX / 4);
    let mut ids = Vec::new();
    for _ in 0..jobs {
        ids.push(sim.submit(&bench, Some(vec![0, 1])).unwrap());
    }
    let window = Cycles::from_ms(100 * jobs as u64 + 400);
    sim.run_until(SimTime::ZERO + window);
    let w = sim.world();
    let secs = window.as_secs();
    let total: u64 = ids
        .iter()
        .filter_map(|j| w.stats.job_bw.get(j).map(|m| m.bytes()))
        .sum();
    Row {
        total_mbps: total as f64 / 1e6 / secs,
        faults: w.nodes.iter().map(|n| n.faults).sum(),
        switches: w.stats.switches,
        credits,
    }
}

/// Run the gang-switch vs VN-cache comparison and emit `vn_cache`.
pub fn run(opts: &HarnessOpts) {
    let seed = opts.seed;
    let jobs: Vec<usize> = vec![1, 2, 4, 6, 8];
    let rows = par_sweep(jobs.clone(), |&k| {
        (
            run_cell(k, BufferPolicy::FullBuffer, 0, seed),
            run_cell(k, BufferPolicy::CachedEndpoints, 2, seed),
        )
    });
    let mut t = Table::new(
        "gang buffer switch vs VN endpoint cache (k=2 slots), 24 KB p2p jobs",
        &[
            "jobs",
            "gang MB/s",
            "gang C0",
            "vn MB/s",
            "vn C0",
            "vn faults",
            "switches",
        ],
    );
    for (&k, (g, v)) in jobs.iter().zip(&rows) {
        t.row(vec![
            k.into(),
            Cell::Float(g.total_mbps, 2),
            g.credits.into(),
            Cell::Float(v.total_mbps, 2),
            v.credits.into(),
            v.faults.into(),
            g.switches.max(v.switches).into(),
        ]);
    }
    opts.emit("vn_cache", &t);
    println!(
        "The VN cache divides the NIC among its slots (smaller C0) and pays\n\
         its copies on the critical path of the first message after every\n\
         rotation once jobs exceed the cache; the paper's scheme keeps the\n\
         whole buffer and hides the copy between quanta. Decoupling from\n\
         the scheduler costs exactly where the paper says it does."
    );
}
