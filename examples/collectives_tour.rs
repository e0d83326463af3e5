//! MPI-style collectives on the gang-scheduled cluster: barrier,
//! broadcast, allreduce and gather running across buffer switches — the
//! "higher level communication system" usage the FM/ParPar integration
//! was built for (paper §3.2).
//!
//! ```text
//! cargo run --release --example collectives_tour
//! ```

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::collectives::{AllReduce, Barrier, Broadcast, Gather};
use workloads::program::Workload;

fn run(name: &str, w: &dyn Workload, per_op_msgs: f64) {
    let nodes = w.nprocs();
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..nodes).collect();
    let job = sim.submit(w, Some(all.clone())).expect("submit");
    // A second copy in the other slot forces real gang rotation.
    sim.submit(w, Some(all)).expect("submit");
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(120)),
        "{name} did not finish"
    );
    let world = sim.world();
    let t0 = world.stats.job_all_up[&job];
    let t1 = world.stats.job_finished[&job];
    let wall = t1.since(t0);
    let msgs: u64 = world
        .nodes
        .iter()
        .flat_map(|n| &n.exited)
        .filter(|e| e.job == job)
        .map(|e| e.stats.msgs_sent)
        .sum();
    println!(
        "{name:<10} {nodes:>2} ranks  {msgs:>6} msgs  wall {:>9}  ~{:.1} µs/op (time-shared 2 ways, {} switches)",
        wall,
        wall.as_us() / (msgs as f64 / per_op_msgs),
        world.stats.switches,
    );
}

fn main() {
    println!("collective    ranks   msgs       wall        per-op");
    let n = 8;
    run(
        "barrier",
        &Barrier {
            nprocs: n,
            msg_bytes: 64,
            repetitions: 400,
        },
        3.0 * n as f64, // 3 rounds x 8 ranks per barrier
    );
    run(
        "broadcast",
        &Broadcast {
            nprocs: n,
            root: 0,
            msg_bytes: 32 * 1024,
            repetitions: 200,
        },
        (n - 1) as f64, // n-1 messages per broadcast
    );
    run(
        "allreduce",
        &AllReduce {
            nprocs: n,
            msg_bytes: 16 * 1024,
            repetitions: 200,
        },
        3.0 * n as f64, // log2(8) rounds x 8 ranks
    );
    run(
        "gather",
        &Gather {
            nprocs: n,
            root: 0,
            msg_bytes: 1536,
            repetitions: 400,
        },
        (n - 1) as f64,
    );
    println!(
        "\nEvery collective runs to completion across gang switches with\n\
         zero packet loss — the property §3.2's integration had to provide\n\
         before MPI could run on top."
    );
}
