//! Four-way buffer-policy comparison: the paper's two schemes
//! (static division, buffer switching) next to the two post-paper
//! alternatives this repo adds (virtual-networks endpoint caching,
//! demand-driven credit windows).
//!
//! Two tables:
//!
//! * `policy_sweep` — Fig.-6-style time-sliced bandwidth per policy and
//!   job count. Static division decays with the context count (its
//!   credits shrink as `n²`); Demand starts from the same queue split but
//!   migrates credit windows toward observed traffic, so it tracks the
//!   switching scheme instead of static division's collapse.
//! * `policy_sweep_loss` — the same cell at 2 jobs under injected wire
//!   loss, stock and with the go-back-N reliability layer.
//! * `policy_sweep_serving` — the serving-cluster view: the same four
//!   policies under an open-loop Poisson job stream near the capacity
//!   knee (gang scheduling, registry `p2p` jobs), reporting the e2e tail,
//!   SLO attainment, and admission-queue depth per policy.
//!
//! ```text
//! cargo run --release -p bench-harness -- policy_sweep [--full] [--csv DIR]
//! ```

use crate::{par_sweep, HarnessOpts};
use cluster::measure::{Measurement, MultiJobCell, SchedulingMode};
use fastmsg::division::BufferPolicy;
use sim_core::report::{Cell, Table};
use sim_core::time::Cycles;

/// The four policies, in the order the tables print them.
const POLICIES: [(BufferPolicy, &str); 4] = [
    (BufferPolicy::StaticDivision, "static"),
    (BufferPolicy::FullBuffer, "full"),
    (BufferPolicy::CachedEndpoints, "cached"),
    (BufferPolicy::Demand, "demand"),
];

/// Job counts of the main sweep (the Fig. 6 x-axis truncated to the
/// range where static division still has any credits to lose).
const JOBS: [usize; 4] = [1, 2, 4, 8];

/// Loss rates of the loss section, dropped frames per million.
const LOSS_PPM: [u32; 2] = [0, 1000];

/// Run the policy sweep and emit `policy_sweep`, `policy_sweep_loss` and
/// `policy_sweep_serving`.
pub fn run(opts: &HarnessOpts) {
    let (msg_bytes, quantum, duration) = if opts.full {
        (6144, Cycles::from_ms(100), Cycles::from_ms(500))
    } else {
        (6144, Cycles::from_ms(50), Cycles::from_ms(100))
    };

    let cell = |policy: BufferPolicy, jobs: usize, ppm: u32, rel: bool| {
        Measurement::fig6(jobs, msg_bytes, quantum, duration)
            .buffer_policy(policy)
            .seed(opts.seed)
            .wire_loss_ppm(ppm)
            .reliability(rel)
            .run()
    };

    // Main sweep: policy x jobs, lossless.
    let mut params = Vec::new();
    for &(policy, name) in &POLICIES {
        for &jobs in &JOBS {
            params.push((policy, name, jobs));
        }
    }
    let results = par_sweep(params.clone(), |&(policy, _, jobs)| {
        cell(policy, jobs, 0, false)
    });

    let mut main_t = Table::new(
        "Policy sweep — time-sliced p2p bandwidth by buffer policy (Fig. 6 cell)",
        &[
            "policy", "jobs", "C0", "switches", "MB/s", "realloc", "migrated",
        ],
    );
    for ((_, name, jobs), c) in params.iter().zip(&results) {
        row_main(&mut main_t, name, *jobs, c);
    }
    opts.emit("policy_sweep", &main_t);

    // Loss section: 2 jobs, every policy, stock and reliable.
    let mut loss_params = Vec::new();
    for &(policy, name) in &POLICIES {
        for &ppm in &LOSS_PPM {
            for rel in [false, true] {
                loss_params.push((policy, name, ppm, rel));
            }
        }
    }
    let loss_results = par_sweep(loss_params.clone(), |&(policy, _, ppm, rel)| {
        cell(policy, 2, ppm, rel)
    });
    let mut loss_t = Table::new(
        "Policy sweep — 2 jobs under injected wire loss",
        &["policy", "loss ppm", "rel", "MB/s", "losses", "retransmits"],
    );
    for ((_, name, ppm, rel), c) in loss_params.iter().zip(&loss_results) {
        loss_t.row(vec![
            (*name).into(),
            (*ppm as u64).into(),
            if *rel { "on".into() } else { "off".into() },
            Cell::Float(c.total_mbps, 2),
            c.wire_losses.into(),
            c.retransmits.into(),
        ]);
    }
    opts.emit("policy_sweep_loss", &loss_t);

    // Serving section: open-loop job stream near the knee, per policy.
    let serve_horizon = if opts.full {
        Cycles::from_secs(4)
    } else {
        Cycles::from_secs(2)
    };
    let serve_results = par_sweep(POLICIES.to_vec(), |&(policy, _)| {
        Measurement::serve(8, 2, SchedulingMode::Gang)
            .arrival_rate(10.0)
            .horizon(serve_horizon)
            .size_range(200, 800)
            .slo(Cycles::from_secs(1))
            .buffer_policy(policy)
            .seed(opts.seed)
            .run()
    });
    let mut serve_t = Table::new(
        "Policy sweep — open-loop serving near the knee (10 jobs/s, registry p2p)",
        &[
            "policy",
            "admitted",
            "completed",
            "drained",
            "wait_p99_ms",
            "e2e_p99_ms",
            "slo_pct",
            "qdepth_mean",
            "qdepth_max",
        ],
    );
    for ((_, name), c) in POLICIES.iter().zip(&serve_results) {
        serve_t.row(vec![
            (*name).into(),
            c.admitted.into(),
            c.completed.into(),
            u64::from(c.drained).into(),
            Cell::Float(Cycles(c.wait_p99).as_ms(), 3),
            Cell::Float(Cycles(c.e2e_p99).as_ms(), 3),
            Cell::Float(c.slo_attainment * 100.0, 2),
            Cell::Float(c.queue_depth_mean, 2),
            Cell::Float(c.queue_depth_max, 1),
        ]);
    }
    opts.emit("policy_sweep_serving", &serve_t);

    println!(
        "Shape: static division pays its n² credit collapse as jobs grow;\n\
         the demand allocator starts from the same split, migrates credit\n\
         windows toward the live channels, and holds near the switching\n\
         scheme's bandwidth without ever exceeding its memory."
    );
}

fn row_main(t: &mut Table, name: &str, jobs: usize, c: &MultiJobCell) {
    t.row(vec![
        name.into(),
        (jobs as u64).into(),
        (c.credits as u64).into(),
        c.switches.into(),
        Cell::Float(c.total_mbps, 2),
        c.realloc_events.into(),
        c.credits_migrated.into(),
    ]);
}
