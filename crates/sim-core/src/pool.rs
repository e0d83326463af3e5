//! The workspace's single source of worker-pool sizing, plus a small
//! persistent worker pool for windowed parallel simulation.
//!
//! Two layers of parallelism coexist in this workspace: `par_sweep` in the
//! bench harness fans figure cells out across cells, and the windowed
//! parallel engine fans one simulation out across shards. If each sized
//! itself from `available_parallelism` independently, a sweep of sharded
//! runs would oversubscribe the machine by the product of the two. Both
//! layers therefore draw worker slots from one global [`Budget`]: a layer
//! acquires as many slots as are still free (always keeping at least one so
//! progress is never blocked) and releases them when its [`Grant`] drops.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// The machine-wide worker ceiling: `available_parallelism`, or 1 if the
/// runtime cannot tell.
pub fn max_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker slots currently handed out across the process.
static SLOTS_TAKEN: AtomicUsize = AtomicUsize::new(0);

/// An RAII lease on worker slots from the global budget.
#[derive(Debug)]
pub struct Grant {
    n: usize,
}

impl Grant {
    /// How many worker slots this grant holds (at least 1).
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }
}

impl Drop for Grant {
    fn drop(&mut self) {
        SLOTS_TAKEN.fetch_sub(self.n, Ordering::Relaxed);
    }
}

/// The global worker-slot budget shared by every parallel layer.
pub struct Budget;

impl Budget {
    /// Acquire up to `want` worker slots, bounded by what the machine has
    /// and what other layers already hold. Never returns fewer than one
    /// slot: a layer that arrives when the budget is exhausted still makes
    /// progress on the caller's own thread (it just gains no parallelism).
    pub fn acquire(want: usize) -> Grant {
        let want = want.max(1);
        let cap = max_parallelism();
        loop {
            let taken = SLOTS_TAKEN.load(Ordering::Relaxed);
            let free = cap.saturating_sub(taken);
            let n = want.min(free).max(1);
            if SLOTS_TAKEN
                .compare_exchange(taken, taken + n, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Grant { n };
            }
        }
    }
}

/// A task the pool can run.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads executing boxed closures.
///
/// Workers are spawned once (holding a [`Grant`] from the global budget) and
/// reused across submissions, so a simulation dispatching thousands of
/// windows pays thread-spawn cost only once. Tasks own their data and
/// report results through whatever channel the caller closes over — the
/// pool itself returns nothing.
pub struct WorkerPool {
    tx: Sender<Task>,
    handles: Vec<JoinHandle<()>>,
    grant: Grant,
}

impl WorkerPool {
    /// A pool with up to `want` workers, bounded by the global budget.
    pub fn new(want: usize) -> Self {
        let grant = Budget::acquire(want);
        let (tx, rx) = channel::<Task>();
        let rx = std::sync::Arc::new(Mutex::new(rx));
        let handles = (0..grant.count())
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    let task = {
                        let guard = rx.lock().expect("pool receiver poisoned");
                        guard.recv()
                    };
                    match task {
                        Ok(task) => task(),
                        Err(_) => return, // pool dropped
                    }
                })
            })
            .collect();
        WorkerPool { tx, handles, grant }
    }

    /// Number of worker threads.
    #[inline]
    pub fn workers(&self) -> usize {
        self.grant.count()
    }

    /// Submit a task. Panics if the pool's workers are gone (only possible
    /// after a worker panicked).
    pub fn submit(&self, task: Task) {
        self.tx.send(task).expect("worker pool is gone");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends the worker loops.
        let (dead_tx, _) = channel();
        self.tx = dead_tx;
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Run `tasks` on `pool`, collecting each task's result in submission
/// order. The calling thread blocks until all tasks complete.
pub fn scatter<R: Send + 'static>(
    pool: &WorkerPool,
    tasks: Vec<Box<dyn FnOnce() -> R + Send + 'static>>,
) -> Vec<R> {
    let n = tasks.len();
    let (tx, rx) = channel::<(usize, R)>();
    for (i, task) in tasks.into_iter().enumerate() {
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            let r = task();
            let _ = tx.send((i, r));
        }));
    }
    drop(tx);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, r) = rx.recv().expect("a pool worker died mid-window");
        slots[i] = Some(r);
    }
    slots.into_iter().map(|s| s.expect("task result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that lease from the global [`Budget`]: the
    /// test harness runs them on parallel threads, and each one asserts on
    /// the process-wide `SLOTS_TAKEN` counter the others move.
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    fn budget_lock() -> std::sync::MutexGuard<'static, ()> {
        // A failed sibling poisons the lock; its slots were still released
        // by the unwinding `Grant` drops, so the counter is consistent.
        BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn budget_never_exceeds_machine() {
        let _serial = budget_lock();
        let cap = max_parallelism();
        let a = Budget::acquire(usize::MAX);
        assert!(a.count() >= 1 && a.count() <= cap);
        // With the budget drained, later layers still get one slot.
        let b = Budget::acquire(8);
        assert_eq!(b.count(), 1);
        drop(a);
        let c = Budget::acquire(usize::MAX);
        assert!(c.count() <= cap);
    }

    #[test]
    fn grants_release_on_drop() {
        let _serial = budget_lock();
        let before = SLOTS_TAKEN.load(Ordering::Relaxed);
        {
            let _g = Budget::acquire(1);
            assert!(SLOTS_TAKEN.load(Ordering::Relaxed) > before);
        }
        assert_eq!(SLOTS_TAKEN.load(Ordering::Relaxed), before);
    }

    #[test]
    fn scatter_preserves_order() {
        let _serial = budget_lock();
        let pool = WorkerPool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| Box::new(move || i * 10) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = scatter(&pool, tasks);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_many_rounds() {
        let _serial = budget_lock();
        let pool = WorkerPool::new(2);
        for round in 0..100 {
            let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..4)
                .map(|i| Box::new(move || round + i) as Box<dyn FnOnce() -> usize + Send>)
                .collect();
            let out = scatter(&pool, tasks);
            assert_eq!(out, vec![round, round + 1, round + 2, round + 3]);
        }
    }
}
