//! Extension bench: the premise experiment (paper §1).
//!
//! Gang scheduling is what makes the buffer switch possible; it exists
//! because bulk-synchronous applications crawl when their ranks are
//! time-sliced without coordination. This harness quantifies that: the
//! same BSP job, next to a CPU-bound competitor, under coordinated gang
//! scheduling vs uncoordinated per-node time slicing (identical static
//! buffer division in both — only *coordination* differs).
//!
//! ```text
//! cargo run --release -p bench-harness -- gang_premise [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts};
use cluster::measure::{bsp_completion, SchedulingMode};
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// Run the scheduling-discipline comparison and emit `gang_premise`.
pub fn run(opts: &HarnessOpts) {
    let seed = opts.seed;
    let params: Vec<(usize, u64)> = vec![(4, 50), (8, 50), (12, 50), (8, 20), (8, 100)];
    let rows = par_sweep(params.clone(), |&(nodes, q_ms)| {
        let q = Cycles::from_ms(q_ms);
        let c = Cycles::from_ms(2);
        (
            bsp_completion(nodes, 150, c, q, seed, SchedulingMode::Gang),
            bsp_completion(nodes, 150, c, q, seed, SchedulingMode::Uncoordinated),
            bsp_completion(nodes, 150, c, q, seed, SchedulingMode::DynamicCosched),
        )
    });
    let mut t = Table::new(
        "BSP (150 supersteps, 2 ms compute) + CPU competitor: scheduling disciplines",
        &[
            "nodes",
            "quantum ms",
            "gang s",
            "uncoordinated s",
            "dyn-cosched s",
            "uncoord slowdown",
        ],
    );
    for (&(nodes, q), (g, u, d)) in params.iter().zip(&rows) {
        t.row(vec![
            nodes.into(),
            q.into(),
            Cell::Float(g.as_secs(), 3),
            Cell::Float(u.as_secs(), 3),
            Cell::Float(d.as_secs(), 3),
            Cell::Float(u.raw() as f64 / g.raw().max(1) as f64, 2),
        ]);
    }
    opts.emit("gang_premise", &t);
    println!(
        "Without coordination a superstep only completes when the BSP ranks'\n\
         local quanta happen to overlap; gang scheduling removes the wait —\n\
         the premise the paper builds on (§1). Dynamic coscheduling (§5,\n\
         [12]) recovers the communication performance by preempting on\n\
         message arrival, but finishes in near-*dedicated* time: it starves\n\
         the compute-bound competitor — the fairness trade-off that kept\n\
         gang scheduling attractive."
    );
}
