//! `gang-sim` — command-line scenario runner for the simulated ParPar
//! cluster.
//!
//! ```text
//! cargo run --release --bin gang-sim -- \
//!     --nodes 16 --jobs 3 --workload alltoall --msg-bytes 1536 \
//!     --quantum-ms 100 --policy full --copy valid --duration-ms 500
//! ```
//!
//! Prints per-job bandwidth, switch-stage statistics, queue occupancy and
//! loss counters for any combination of the knobs the paper explores.

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::CopyStrategy;
use sim_core::report::{Cell, Table};
use sim_core::time::{Cycles, SimTime};
use workloads::alltoall::AllToAll;
use workloads::collectives::{AllReduce, Barrier};
use workloads::p2p::P2pBandwidth;
use workloads::program::Workload;
use workloads::ring::Ring;

struct Args {
    nodes: usize,
    jobs: usize,
    workload: String,
    msg_bytes: u64,
    quantum_ms: u64,
    duration_ms: u64,
    policy: BufferPolicy,
    copy: CopyStrategy,
    strategy: SwitchStrategy,
    seed: u64,
}

/// Parse a numeric flag value, failing with a one-line message that names
/// the flag and the bad value.
fn num<T: std::str::FromStr>(flag: &str, v: String) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .unwrap_or_else(|e| panic!("{flag} takes a non-negative integer, got {v:?} ({e})"))
}

fn parse_args() -> Args {
    let mut a = Args {
        nodes: 16,
        jobs: 2,
        workload: "p2p".into(),
        msg_bytes: 16384,
        quantum_ms: 100,
        duration_ms: 500,
        policy: BufferPolicy::FullBuffer,
        copy: CopyStrategy::ValidOnly,
        strategy: SwitchStrategy::GangFlush,
        seed: 42,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match flag.as_str() {
            "--nodes" => a.nodes = num(&flag, val()),
            "--jobs" => a.jobs = num(&flag, val()),
            "--workload" => {
                a.workload = val();
                let known = ["p2p", "alltoall", "barrier", "allreduce", "ring"];
                if !known.contains(&a.workload.as_str()) {
                    panic!("unknown workload {} ({})", a.workload, known.join("|"));
                }
            }
            "--msg-bytes" => a.msg_bytes = num(&flag, val()),
            "--quantum-ms" => a.quantum_ms = num(&flag, val()),
            "--duration-ms" => a.duration_ms = num(&flag, val()),
            "--seed" => a.seed = num(&flag, val()),
            "--policy" => {
                a.policy = match val().as_str() {
                    "full" => BufferPolicy::FullBuffer,
                    "static" => BufferPolicy::StaticDivision,
                    "cached" => BufferPolicy::CachedEndpoints,
                    "demand" => BufferPolicy::Demand,
                    other => panic!("unknown policy {other} (full|static|cached|demand)"),
                }
            }
            "--copy" => {
                a.copy = match val().as_str() {
                    "valid" => CopyStrategy::ValidOnly,
                    "full" => CopyStrategy::Full,
                    other => panic!("unknown copy {other} (valid|full)"),
                }
            }
            "--strategy" => {
                a.strategy = match val().as_str() {
                    "flush" => SwitchStrategy::GangFlush,
                    "share" => SwitchStrategy::ShareDiscard,
                    "ack" => SwitchStrategy::AckDrain,
                    other => panic!("unknown strategy {other} (flush|share|ack)"),
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --nodes N --jobs K --workload p2p|alltoall|barrier|allreduce|ring \
                     --msg-bytes B --quantum-ms Q --duration-ms D \
                     --policy full|static|cached|demand \
                     --copy valid|full --strategy flush|share|ack --seed S"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    if a.nodes < 2 {
        panic!("--nodes must be at least 2, got {}", a.nodes);
    }
    if a.quantum_ms == 0 {
        panic!("--quantum-ms must be positive, got 0");
    }
    a
}

fn build_workload(a: &Args) -> Box<dyn Workload> {
    match a.workload.as_str() {
        "p2p" => Box::new(P2pBandwidth::with_count(a.msg_bytes, u64::MAX / 4)),
        "alltoall" => Box::new(AllToAll {
            nprocs: a.nodes,
            msg_bytes: a.msg_bytes,
            burst: 8,
            rounds: None,
        }),
        "barrier" => Box::new(Barrier {
            nprocs: a.nodes,
            msg_bytes: a.msg_bytes.min(1536),
            repetitions: u64::MAX / 4,
        }),
        "allreduce" => {
            // Recursive doubling needs a power-of-two process count.
            let np = if a.nodes.is_power_of_two() {
                a.nodes
            } else {
                (a.nodes.next_power_of_two() / 2).max(2)
            };
            Box::new(AllReduce {
                nprocs: np,
                msg_bytes: a.msg_bytes,
                repetitions: u64::MAX / 4,
            })
        }
        "ring" => Box::new(Ring {
            nprocs: a.nodes,
            msg_bytes: a.msg_bytes,
            laps: u64::MAX / 4,
        }),
        other => unreachable!("parse_args accepted workload {other}"),
    }
}

fn main() {
    let a = parse_args();
    let mut cfg = ClusterConfig::parpar(a.nodes, a.jobs.max(2), a.policy);
    cfg.quantum = Cycles::from_ms(a.quantum_ms);
    cfg.copy = a.copy;
    cfg.strategy = a.strategy;
    cfg.seed = a.seed;
    if matches!(
        a.policy,
        BufferPolicy::StaticDivision | BufferPolicy::Demand
    ) {
        cfg.fm.max_contexts = a.jobs.max(1);
    }
    let geo = cfg.fm.geometry();
    println!(
        "gang-sim: {} nodes, {} jobs of '{}', {} B messages, {} ms quantum",
        a.nodes, a.jobs, a.workload, a.msg_bytes, a.quantum_ms
    );
    println!(
        "policy {:?}, copy {:?}, strategy {}, C0 = {} credits, queues {}/{} pkts",
        a.policy,
        a.copy,
        a.strategy.name(),
        geo.credits,
        geo.send_slots,
        geo.recv_slots
    );

    let mut sim = Sim::new(cfg);
    let w = build_workload(&a);
    let nodes: Vec<usize> = (0..w.nprocs()).collect();
    let mut jobs = Vec::new();
    for _ in 0..a.jobs {
        match sim.submit(w.as_ref(), Some(nodes.clone())) {
            Ok(j) => jobs.push(j),
            Err(e) => {
                eprintln!("submission failed: {e:?} (matrix full?)");
                std::process::exit(1);
            }
        }
    }
    sim.run_until(SimTime::ZERO + Cycles::from_ms(a.duration_ms));
    let world = sim.world();

    let mut t = Table::new("per-job receive bandwidth", &["job", "MB/s", "bytes"]);
    for j in &jobs {
        if let Some(&bytes) = world.stats.job_bytes.get(j) {
            let secs = (a.duration_ms as f64) / 1e3;
            t.row(vec![
                format!("{j}").into(),
                Cell::Float(bytes as f64 / 1e6 / secs, 2),
                bytes.into(),
            ]);
        }
    }
    println!("\n{}", t.render());

    if world.stats.ledger.samples() > 0 {
        let (h, b, r) = world.stats.ledger.mean_stages();
        println!(
            "switches: {} cluster-wide; mean stages halt {:.0} / copy {:.0} / release {:.0} cycles",
            world.stats.switches, h, b, r
        );
        println!(
            "switch overhead at this quantum: {:.3}%",
            world
                .stats
                .ledger
                .overhead_pct(Cycles::from_ms(a.quantum_ms))
        );
    } else if world.stats.switches > 0 {
        println!(
            "switches: {} cluster-wide (signal-only: static division needs no buffer switch)",
            world.stats.switches
        );
    } else {
        println!("no context switches occurred");
    }
    if !world.stats.queue_samples.is_empty() {
        let n = world.stats.queue_samples.len() as f64;
        let (s, r) = world
            .stats
            .queue_samples
            .iter()
            .fold((0.0, 0.0), |(s, r), q| {
                (s + q.send_valid as f64, r + q.recv_valid as f64)
            });
        println!(
            "mean queue occupancy at switch: {:.1} send / {:.1} recv valid packets",
            s / n,
            r / n
        );
    }
    println!(
        "drops: {}, wire losses: {}, network packets: {}",
        world.stats.drops,
        world.stats.wire_losses,
        world.net.total_packets()
    );
}
