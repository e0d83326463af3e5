//! What one job submission costs the simulator: a whole-machine submit
//! keeps one pending event for its LoadJob commands, and allocates a
//! fixed number of times beyond its programs, however many ranks it has.
//! A counting global allocator measures the allocations. It counts per
//! thread, and each test runs on its own thread, so tests running side
//! by side do not add to each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{ClusterConfig, ControlPlane, Sim};
use fastmsg::division::BufferPolicy;
use workloads::program::Workload;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

thread_local! {
    /// Allocations so far on this thread. Const-initialized with no
    /// destructor, so reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn count() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract passes straight through to it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A `hosts`-node, 4-slot `FullBuffer` cluster on the serial control
/// plane.
fn cluster(hosts: usize) -> Sim {
    let mut cfg = ClusterConfig::parpar(hosts, 4, BufferPolicy::FullBuffer);
    cfg.control = ControlPlane::Serial;
    Sim::new(cfg)
}

fn compute(hosts: usize) -> Box<dyn Workload> {
    workloads::registry::build("compute", hosts, 1, 1_000).unwrap()
}

/// Allocations a whole-machine `compute` submission on `hosts` nodes
/// makes beyond building its programs, measured on the second of two
/// submissions so that first-use growth (the event queue's arena, the
/// masterd's job table) is not counted.
fn allocations_beyond_programs(hosts: usize) -> u64 {
    let mut sim = cluster(hosts);
    let job = compute(hosts);
    sim.submit(&*job, Some((0..hosts).collect())).unwrap();
    let before = allocs();
    let programs: Vec<_> = (0..hosts).map(|r| job.program(r)).collect();
    let for_programs = allocs() - before;
    drop(programs);
    let pinned: Vec<usize> = (0..hosts).collect();
    let before = allocs();
    sim.submit(&*job, Some(pinned)).unwrap();
    let for_submit = allocs() - before;
    assert!(
        for_programs > hosts as u64,
        "{for_programs} for {hosts} programs"
    );
    for_submit - for_programs
}

#[test]
fn a_submission_keeps_one_pending_event() {
    let mut sim = cluster(256);
    let before = sim.engine.pending();
    sim.submit(&*compute(256), Some((0..256).collect()))
        .unwrap();
    assert_eq!(sim.engine.pending(), before + 1);
}

#[test]
fn a_submission_allocates_no_more_per_rank_than_its_programs() {
    let small = allocations_beyond_programs(64);
    let big = allocations_beyond_programs(256);
    eprintln!("beyond the programs: {small} allocations at 64 ranks, {big} at 256");
    assert_eq!(
        small, big,
        "submission allocations grow with the rank count"
    );
    assert!(big <= 16, "{big} allocations beyond the programs");
}
