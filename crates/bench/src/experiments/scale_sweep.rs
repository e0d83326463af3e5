//! The ROADMAP scalability figure: switch latency and aggregate fabric
//! bandwidth vs cluster size, N = 16 … 4096, on the fat-tree fabric.
//!
//! Each cell builds `FatTreeShape::for_hosts(N)` with deterministic host
//! costs and two gang slots: every 16-host block carries two pair jobs
//! pinned to the same cross-edge pair, so the gang matrix packs one job
//! per block into each slot and every quantum rotates the whole machine.
//! The first and last blocks swap destinations to push two pairs through
//! the spine tier. Per row the sweep reports:
//!
//! * `lat_us` — mean order-to-completion gang-switch latency. This is
//!   where the control planes separate: `serial` pays an O(N) unicast
//!   loop on the master link per switch; `tree` descends a fanout-8
//!   combining tree and aggregates acks back up, O(log N) deep.
//! * `agg_mbps` — summed per-job bandwidth, which scales with N because
//!   intra-pod pairs are link-disjoint on the fat-tree.
//! * `edge/agg/spine_pkts` — per-tier data-packet counts from
//!   [`cluster::TierTraffic`].
//!
//! Rows ascend in N. All table values come from deterministic simulation
//! stats, so CI compares the CSV with the committed
//! `results/scale_sweep.csv` byte for byte, and per-cell `DIGEST` lines
//! pin each cell's event stream. With `--out DIR`,
//! wall-clock throughput of each cell (the median of three runs) is
//! written to `DIR/BENCH_scale.json` via [`crate::snapshot`].
//!
//! ```text
//! cargo run --release -p bench-harness -- scale_sweep \
//!     [--out DIR] [--full] [--csv DIR] [--seed N]
//! ```

use crate::snapshot::{median_wall_ms, Row, Snapshot};
use crate::HarnessOpts;
use cluster::{ClusterConfig, ControlPlane, FatTreeShape, Sim, TopologyKind};
use fastmsg::division::{BufferPolicy, CreditRounding};
use sim_core::report::{Cell, Table};
use sim_core::time::{Cycles, SimTime};

/// The scalability-figure x-axis.
const SCALE_NODES: [usize; 5] = [16, 64, 256, 1024, 4096];

/// One measured sweep cell.
struct CellOut {
    control: &'static str,
    nodes: usize,
    depth: usize,
    switches: u64,
    lat_us: f64,
    agg_mbps: f64,
    tier_pkts: [u64; 3],
    wall_ms: f64,
    logical_events: u64,
    digest: u64,
}

/// The pair-job placements for an `nodes`-host cell: one disjoint pair
/// per 16-host block, cross-edge within its pod, with the first and last
/// blocks' destinations swapped so two pairs cross the spine (N > 16).
fn placements(nodes: usize) -> Vec<(usize, usize)> {
    let blocks = nodes / 16;
    let mut pairs: Vec<(usize, usize)> = (0..blocks).map(|g| (g * 16, g * 16 + 15)).collect();
    if blocks > 1 {
        let last = blocks - 1;
        pairs[0].1 = last * 16 + 15;
        pairs[last].1 = 15;
    }
    pairs
}

fn run_cell(
    nodes: usize,
    control: ControlPlane,
    name: &'static str,
    opts: &HarnessOpts,
) -> CellOut {
    let msg_bytes = 65_536u64;
    let count = if opts.full { 400 } else { 100 };
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::StaticDivision);
    cfg.topology = TopologyKind::FatTree {
        shape: FatTreeShape::for_hosts(nodes),
    };
    cfg.control = control;
    // Stock floor rounding starves static division at scale: beyond
    // N = 64 the per-peer credit share of the paper's 1 MB receive buffer
    // rounds to zero and no process can ever send. The sweep keeps the
    // paper's buffer constants but rounds credits up, so every peer
    // retains the minimum one-packet window — the figure isolates
    // control-plane scaling, not buffer starvation (that collapse is
    // policy_sweep's story).
    cfg.fm.rounding = CreditRounding::Ceil;
    // Zero daemon jitter: the latency column isolates the control-plane
    // fan-out/reduction cost instead of averaging a 4 ms noise floor.
    cfg.daemon_jitter_max = Cycles::ZERO;
    cfg.quantum = Cycles::from_ms(20);
    cfg.seed = opts.seed;
    // The registry's `p2p` entry pins the 64 KB message size this cell's
    // bandwidth column assumes.
    let bench = workloads::registry::build("p2p", 2, opts.seed, count).expect("registry has p2p");
    let build = || {
        let mut sim = Sim::new(cfg.clone());
        let mut jobs = Vec::new();
        for (a, b) in placements(nodes) {
            // Two jobs on the same pair: they must occupy both slots, so
            // every quantum performs a whole-machine gang switch.
            jobs.push(sim.submit(&*bench, Some(vec![a, b])).unwrap());
            jobs.push(sim.submit(&*bench, Some(vec![a, b])).unwrap());
        }
        (sim, jobs)
    };
    let (wall_ms, (sim, jobs)) = median_wall_ms(build, |(mut sim, jobs)| {
        assert!(
            sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(600)),
            "{name} N={nodes} did not finish"
        );
        (sim, jobs)
    });
    let logical_events = sim.engine.logical_events();
    let digest = sim.engine.stream_digest();
    let w = sim.world();
    assert_eq!(w.stats.drops, 0, "{name} N={nodes} dropped packets");
    let agg_mbps: f64 = jobs
        .iter()
        .map(|j| {
            w.stats
                .job_bandwidth_mbps(*j, msg_bytes * count)
                .expect("finished job has a bandwidth")
        })
        .sum();
    let lat_us = w
        .stats
        .mean_switch_latency()
        .expect("cell performed switches")
        / Cycles::from_us(1).raw() as f64;
    let tiers = w.tier_traffic();
    CellOut {
        control: name,
        nodes,
        depth: w.stats.tree_depth,
        switches: w.stats.switches,
        lat_us,
        agg_mbps,
        tier_pkts: tiers.packets,
        wall_ms,
        logical_events,
        digest,
    }
}

/// Run the sweep and emit its table and snapshot.
pub fn run(opts: &HarnessOpts) {
    let controls = [
        (ControlPlane::Serial, "serial"),
        (ControlPlane::Tree { fanout: 8 }, "tree8"),
    ];
    let mut cells = Vec::new();
    for n in SCALE_NODES {
        for (control, name) in controls {
            cells.push(run_cell(n, control, name, opts));
        }
    }

    let mut t = Table::new(
        "scale_sweep — gang-switch latency and aggregate bandwidth vs N",
        &[
            "control",
            "nodes",
            "depth",
            "switches",
            "lat_us",
            "agg_mbps",
            "edge_pkts",
            "agg_pkts",
            "spine_pkts",
        ],
    );
    for c in &cells {
        t.row(vec![
            c.control.into(),
            c.nodes.into(),
            c.depth.into(),
            c.switches.into(),
            Cell::Float(c.lat_us, 2),
            Cell::Float(c.agg_mbps, 2),
            c.tier_pkts[0].into(),
            c.tier_pkts[1].into(),
            c.tier_pkts[2].into(),
        ]);
    }
    opts.emit("scale_sweep", &t);

    let rows = cells
        .iter()
        .map(|c| Row {
            scenario: format!("{}_n{}", c.control, c.nodes),
            wall_ms: c.wall_ms,
            logical_events: c.logical_events,
            digest: c.digest,
        })
        .collect();
    opts.emit_snapshot(
        "BENCH_scale.json",
        &Snapshot::new("scale_sweep", opts.seed, rows),
    );
}
