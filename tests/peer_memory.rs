//! Per-peer FM state costs memory only where it is used: a process's
//! credit, sequence and go-back-N tables are as wide as its job and are
//! allocated at its first send or receive. A counting global allocator
//! tracks live heap bytes; the footprint of a process is what its
//! teardown frees. It counts per thread, and each test runs on its own
//! thread, so tests running side by side do not add to each other's
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

use cluster::{ClusterConfig, ControlPlane, FatTreeShape, Sim, TopologyKind};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};

/// The system allocator, tracking live bytes.
struct Counting;

thread_local! {
    /// Live heap bytes allocated on this thread. Const-initialized with
    /// no destructor, so reading it never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Live heap bytes the calling thread holds.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

fn add(bytes: i64) {
    // `try_with` fails only while the thread is being torn down.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract passes straight through to it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `sim` until every job finishes and count, by size, the heap bytes
/// freed by each event that evicts one process. Such an event frees the
/// process's whole state (program, pipe, FM library with every per-peer
/// table it ever allocated); a node's first eviction also grows its exit
/// log, and a job's last one frees the job's shared placement.
fn teardowns(sim: &mut Sim) -> BTreeMap<i64, u32> {
    let procs = |w: &cluster::World| w.nodes.iter().map(|n| n.apps.len()).sum::<usize>();
    let mut freed: BTreeMap<i64, u32> = BTreeMap::new();
    let (mut before, mut running) = (live(), 0);
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(30), |w| {
            let (after, now) = (live(), procs(w));
            if now + 1 == running {
                *freed.entry(before - after).or_default() += 1;
            }
            running = now;
            // Read last, so the map's own growth is not charged to the
            // next event.
            before = live();
            false
        });
    assert!(sim.world().all_jobs_finished(), "jobs did not finish");
    eprintln!("bytes freed per teardown: {freed:?}");
    freed
}

/// A whole-machine gang rotation over `hosts` hosts of a fat-tree: two
/// `compute` jobs in two slots that send nothing, finishing after a few
/// 10 ms quanta.
fn compute_rotation(hosts: usize) -> Sim {
    let mut cfg = ClusterConfig::parpar(hosts, 2, BufferPolicy::FullBuffer);
    cfg.topology = TopologyKind::FatTree {
        shape: FatTreeShape::for_hosts(hosts),
    };
    cfg.control = ControlPlane::Serial;
    cfg.quantum = Cycles::from_ms(10);
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..hosts).collect();
    for _ in 0..2 {
        let job = workloads::registry::build("compute", hosts, 1, 25).unwrap();
        sim.submit(&*job, Some(all.clone())).unwrap();
    }
    sim
}

/// A process that never talks allocates no per-peer table, so its
/// footprint does not grow with the job: on 64 hosts and on 128, every
/// whole-machine `compute` rank frees the same bytes, except a job's last,
/// which also frees the job's placement (the largest teardown).
#[test]
fn a_silent_whole_machine_rank_holds_no_per_peer_table() {
    let sizes = |hosts| {
        let mut freed = teardowns(&mut compute_rotation(hosts));
        freed.pop_last();
        freed.into_keys().collect::<Vec<_>>()
    };
    assert_eq!(sizes(64), sizes(128), "footprint grows with the job width");
}

/// `nodes` (a multiple of 64) nodes, one two-rank `p2p` job on nodes 0
/// and 1. The receive queue grows with the cluster so that every size
/// gets the 64-node window `C0 = Br/p = 10`: the traffic, and with it the
/// NIC rings a teardown frees, is the same at every size.
fn p2p_pair(nodes: usize) -> Sim {
    let mut cfg = ClusterConfig::parpar(nodes, 2, BufferPolicy::FullBuffer);
    let scale = nodes / 64;
    cfg.fm.recv_slots_total *= scale;
    cfg.fm.recv_region_bytes *= scale as u64;
    assert_eq!(cfg.fm.geometry().credits, 10);
    let mut sim = Sim::new(cfg);
    let job = workloads::registry::build("p2p", 2, 1, 20).unwrap();
    sim.submit(&*job, Some(vec![0, 1])).unwrap();
    sim
}

/// A talking process's tables are as wide as its job, not the cluster:
/// each `p2p` rank frees the same bytes on 64 nodes as on 1,024.
#[test]
fn a_pair_ranks_footprint_does_not_grow_with_the_cluster() {
    let small = teardowns(&mut p2p_pair(64));
    let big = teardowns(&mut p2p_pair(1024));
    assert_eq!(small.values().sum::<u32>(), 2);
    assert_eq!(small, big, "footprint grows with the cluster");
}
