//! The workspace's single source of worker-pool sizing.
//!
//! Figure sweeps fan independent cells out across threads (`par_sweep` in
//! the bench harness). Every such fan-out draws its worker slots from one
//! global [`Budget`], so nested or concurrent sweeps never oversubscribe
//! the machine: a caller acquires as many slots as are still free (always
//! at least one, so progress is never blocked) and releases them when its
//! [`Grant`] drops.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The global worker-slot budget shared by every sweep in the process.
pub struct Budget;

impl Budget {
    /// Acquire up to `want` worker slots, bounded by what the machine has
    /// and what other sweeps already hold. Never returns fewer than one
    /// slot: a sweep that arrives when the budget is exhausted still makes
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
        // With the budget drained, later sweeps still get one slot.
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
}
