//! Steady-state allocation: once a run is warm, the event handlers reuse
//! pooled buffers instead of allocating per event. A counting global
//! allocator measures allocations per logical event. It counts per
//! thread, and each test runs on its own thread, so tests running side
//! by side do not add to each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::measure::{Measurement, SchedulingMode, ServeCell};
use cluster::{ClusterConfig, ControlPlane, FatTreeShape, Sim, TopologyKind};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};

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

/// The perfbench `serve_gang12` cell at a shorter horizon: 12 jobs/s is
/// past the knee, so jobs queue and residents block on send space.
fn serve_cell() -> ServeCell {
    Measurement::serve(8, 2, SchedulingMode::Gang)
        .arrival_rate(12.0)
        .horizon(Cycles::from_ms(500))
        .size_range(200, 800)
        .seed(3)
        .run()
}

#[test]
fn serving_allocates_almost_nothing_per_event() {
    let warm = serve_cell();
    let before = allocs();
    let cell = serve_cell();
    let allocs = allocs() - before;
    assert_eq!(cell.fingerprint, warm.fingerprint);
    assert!(cell.completed > 0, "{cell:?}");
    let per_event = allocs as f64 / cell.logical_events as f64;
    eprintln!("{allocs} allocations over {} events", cell.logical_events);
    assert!(per_event < 0.01, "{per_event:.4} allocations per event");
}

/// A 64-host fat-tree gang rotation: two whole-machine compute jobs in
/// two slots, serial control, a 10 ms quantum. Every switch runs 128
/// serial broadcasts of 63 frames each. Compute jobs send no data, so
/// the packet rings, which grow with their occupancy's high-water mark,
/// stay empty and the count is the switch path's alone.
fn rotation() -> Sim {
    let hosts = 64;
    let mut cfg = ClusterConfig::parpar(hosts, 2, BufferPolicy::FullBuffer);
    cfg.topology = TopologyKind::FatTree {
        shape: FatTreeShape::for_hosts(hosts),
    };
    cfg.control = ControlPlane::Serial;
    cfg.quantum = Cycles::from_ms(10);
    cfg.seed = 6401;
    let mut sim = Sim::new(cfg);
    let all: Vec<usize> = (0..hosts).collect();
    for _ in 0..2 {
        let job = workloads::registry::build("compute", hosts, 1, 1_000_000).unwrap();
        sim.submit(&*job, Some(all.clone())).unwrap();
    }
    sim
}

/// Run `sim` until it has made `switches` gang switches.
fn run_to_switch(sim: &mut Sim, switches: u64) {
    sim.engine
        .run_until_pred(SimTime::ZERO + Cycles::from_secs(60), |w| {
            w.stats.switches >= switches
        });
    assert_eq!(sim.world().stats.switches, switches);
}

/// The first two switches grow the pools (about 1,300 and 70 allocations:
/// broadcast trains, queue arena, per-node buffers); switches 3–12 reuse
/// them and allocate 1–4 times each.
#[test]
fn gang_rotation_allocates_almost_nothing_per_event_after_warm_up() {
    let mut sim = rotation();
    run_to_switch(&mut sim, 2);
    let (allocs0, events0) = (allocs(), sim.engine.logical_events());
    run_to_switch(&mut sim, 12);
    let allocs = allocs() - allocs0;
    let events = sim.engine.logical_events() - events0;
    let per_event = allocs as f64 / events as f64;
    eprintln!("{allocs} allocations over {events} events in switches 3-12");
    assert!(per_event < 0.001, "{per_event:.5} allocations per event");
}
