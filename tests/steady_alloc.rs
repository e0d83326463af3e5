//! Steady-state allocation: once a serving cell is running, the event
//! handlers reuse pooled buffers instead of allocating per event. A
//! counting global allocator measures allocations per logical event over
//! a whole `Measurement::serve` run, after a warm-up run of the same cell.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cluster::measure::{Measurement, SchedulingMode, ServeCell};
use sim_core::time::Cycles;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

/// Allocations so far. A statistic that publishes no other data, so
/// `Relaxed` suffices.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract passes straight through to it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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
    let before = ALLOCS.load(Ordering::Relaxed);
    let cell = serve_cell();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(cell.fingerprint, warm.fingerprint);
    assert!(cell.completed > 0, "{cell:?}");
    let per_event = allocs as f64 / cell.logical_events as f64;
    eprintln!("{allocs} allocations over {} events", cell.logical_events);
    assert!(per_event < 0.01, "{per_event:.4} allocations per event");
}
