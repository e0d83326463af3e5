//! MPI-style collectives running on the simulated cluster, across gang
//! context switches — the "higher level communication system" usage the
//! paper's integration targets (§3.2).

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::collectives::{AllReduce, Barrier, Broadcast, Gather};

fn run_two_jobs<W: workloads::program::Workload>(nodes: usize, w: &W) -> Sim {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(10); // many switches mid-collective
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..nodes).collect();
    sim.submit(w, Some(all.clone())).unwrap();
    sim.submit(w, Some(all)).unwrap();
    assert!(
        sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)),
        "collectives did not finish"
    );
    sim
}

#[test]
fn barrier_completes_across_switches() {
    let w = Barrier {
        nprocs: 8,
        msg_bytes: 64,
        repetitions: 600,
    };
    let sim = run_two_jobs(8, &w);
    let world = sim.world();
    assert!(world.stats.switches > 3);
    assert_eq!(world.stats.drops, 0);
    for n in &world.nodes {
        for e in &n.exited {
            // ceil(log2(8)) = 3 rounds per episode.
            assert_eq!(e.stats.msgs_sent, 1800);
            assert_eq!(e.stats.msgs_received, 1800);
        }
    }
}

#[test]
fn broadcast_tree_delivers_once_per_episode() {
    let w = Broadcast {
        nprocs: 6,
        root: 1,
        msg_bytes: 32 * 1024,
        repetitions: 30,
    };
    let sim = run_two_jobs(6, &w);
    let world = sim.world();
    assert_eq!(world.stats.drops, 0);
    for n in &world.nodes {
        for e in &n.exited {
            if e.rank == 1 {
                assert_eq!(e.stats.msgs_received, 0);
            } else {
                assert_eq!(e.stats.msgs_received, 30);
                assert_eq!(e.stats.bytes_received, 30 * 32 * 1024);
            }
        }
    }
}

#[test]
fn allreduce_recursive_doubling_is_symmetric() {
    let w = AllReduce {
        nprocs: 8,
        msg_bytes: 16 * 1024,
        repetitions: 40,
    };
    let sim = run_two_jobs(8, &w);
    let world = sim.world();
    assert_eq!(world.stats.drops, 0);
    for n in &world.nodes {
        for e in &n.exited {
            assert_eq!(e.stats.msgs_sent, 40 * 3);
            assert_eq!(e.stats.msgs_received, 40 * 3);
        }
    }
}

#[test]
fn gather_funnels_into_the_root() {
    let w = Gather {
        nprocs: 8,
        root: 0,
        msg_bytes: 1536,
        repetitions: 100,
    };
    let sim = run_two_jobs(8, &w);
    let world = sim.world();
    assert_eq!(world.stats.drops, 0);
    for n in &world.nodes {
        for e in &n.exited {
            if e.rank == 0 {
                assert_eq!(e.stats.msgs_received, 700);
            } else {
                assert_eq!(e.stats.msgs_sent, 100);
            }
        }
    }
}

#[test]
fn mixed_collective_jobs_share_the_machine() {
    // A barrier-heavy job and a broadcast-heavy job gang-scheduled
    // together: different traffic shapes through the same switch path.
    let mut cfg = ClusterConfig::parpar(8, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(15);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..8).collect();
    sim.submit(
        &Barrier {
            nprocs: 8,
            msg_bytes: 64,
            repetitions: 800,
        },
        Some(all.clone()),
    )
    .unwrap();
    sim.submit(
        &Broadcast {
            nprocs: 8,
            root: 0,
            msg_bytes: 64 * 1024,
            repetitions: 120,
        },
        Some(all),
    )
    .unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60)));
    assert_eq!(sim.world().stats.drops, 0);
    assert!(sim.world().stats.switches > 2);
}
