//! Open-loop job traffic: a deterministic arrival plan feeding the
//! jobrep's admission queue as timed events.
//!
//! The paper only ever runs a fixed batch of jobs; the serving-cluster
//! north star (ROADMAP item 5) needs jobs to *arrive* — as a Poisson
//! process at an offered rate, or as an explicit trace — with per-job
//! sizes drawn from the seeded RNG so every run is exactly reproducible.
//!
//! The plan is materialised up front from a [`DetRng`]: a pure function
//! of `(seed, rate, horizon)`, independent of anything the simulation
//! later does. That is what keeps open-loop traffic open-loop (arrivals
//! do not react to queueing) and what keeps the latency percentiles
//! bit-identical from run to run — the event set is fixed before the
//! first event fires.

use sim_core::rng::DetRng;
use sim_core::time::{Cycles, CPU_HZ};

/// One planned job arrival, relative to the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalSpec {
    /// Arrival instant as an offset from time zero.
    pub at: Cycles,
    /// Processes the job needs (one per node).
    pub nprocs: usize,
    /// Scenario-defined work size (e.g. message count for a p2p job),
    /// drawn from the seeded RNG for Poisson plans.
    pub size: u64,
}

/// A fully materialised, time-sorted arrival plan.
#[derive(Debug, Clone, Default)]
pub struct ArrivalPlan {
    jobs: Vec<ArrivalSpec>,
}

/// RNG stream tags: arrival times and job sizes come from independent
/// forks so changing the offered rate never reshuffles the size draws.
const STREAM_TIMES: u64 = 0x41;
const STREAM_SIZES: u64 = 0x52;

impl ArrivalPlan {
    /// Poisson arrivals at `rate_per_sec` over `[0, horizon)`, every job
    /// `nprocs` wide with its size drawn uniformly from
    /// `[size_lo, size_hi]`. Deterministic in `seed`.
    pub fn poisson(
        seed: u64,
        rate_per_sec: f64,
        horizon: Cycles,
        nprocs: usize,
        size_lo: u64,
        size_hi: u64,
    ) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        assert!(size_lo <= size_hi, "size range is inverted");
        let root = DetRng::new(seed);
        let mut times = root.fork(STREAM_TIMES);
        let mut sizes = root.fork(STREAM_SIZES);
        let mut jobs = Vec::new();
        let mut t = 0.0f64;
        let horizon_secs = horizon.raw() as f64 / CPU_HZ as f64;
        loop {
            // Exponential inter-arrival via inverse CDF; `1 - unit()` is
            // in (0, 1], so the log is finite.
            t += -(1.0 - times.unit()).ln() / rate_per_sec;
            if t >= horizon_secs {
                break;
            }
            let at = Cycles((t * CPU_HZ as f64) as u64);
            let size = sizes.range(size_lo, size_hi + 1);
            jobs.push(ArrivalSpec { at, nprocs, size });
        }
        ArrivalPlan { jobs }
    }

    /// An explicit trace. Entries are stably sorted by arrival time, so
    /// same-instant jobs keep their trace order.
    pub fn trace(mut entries: Vec<ArrivalSpec>) -> Self {
        entries.sort_by_key(|e| e.at);
        ArrivalPlan { jobs: entries }
    }

    /// Planned arrivals, ascending in time.
    pub fn jobs(&self) -> &[ArrivalSpec] {
        &self.jobs
    }

    /// Number of planned arrivals.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when the plan has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = ArrivalPlan::poisson(7, 50.0, Cycles::from_secs(2), 2, 10, 90);
        let b = ArrivalPlan::poisson(7, 50.0, Cycles::from_secs(2), 2, 10, 90);
        assert_eq!(a.jobs(), b.jobs());
        assert!(!a.is_empty());
        for w in a.jobs().windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals out of order");
        }
        for j in a.jobs() {
            assert!(j.at < Cycles::from_secs(2));
            assert!((10..=90).contains(&j.size));
            assert_eq!(j.nprocs, 2);
        }
    }

    #[test]
    fn poisson_rate_scales_count() {
        let slow = ArrivalPlan::poisson(7, 20.0, Cycles::from_secs(4), 2, 1, 1);
        let fast = ArrivalPlan::poisson(7, 200.0, Cycles::from_secs(4), 2, 1, 1);
        // Expect ~80 vs ~800; allow wide stochastic slack.
        assert!(slow.len() > 40 && slow.len() < 160, "{}", slow.len());
        assert!(fast.len() > 8 * slow.len() / 2, "{}", fast.len());
    }

    #[test]
    fn size_draws_survive_rate_changes() {
        // Same seed, different rates: the k-th job's size is the k-th
        // draw of the size stream either way.
        let a = ArrivalPlan::poisson(9, 10.0, Cycles::from_secs(4), 2, 5, 500);
        let b = ArrivalPlan::poisson(9, 40.0, Cycles::from_secs(4), 2, 5, 500);
        let n = a.len().min(b.len());
        assert!(n > 0);
        for i in 0..n {
            assert_eq!(a.jobs()[i].size, b.jobs()[i].size, "draw {i}");
        }
    }

    #[test]
    fn trace_sorts_stably() {
        let mk = |at, size| ArrivalSpec {
            at: Cycles(at),
            nprocs: 2,
            size,
        };
        let plan = ArrivalPlan::trace(vec![mk(30, 1), mk(10, 2), mk(30, 3), mk(10, 4)]);
        let sizes: Vec<u64> = plan.jobs().iter().map(|j| j.size).collect();
        assert_eq!(sizes, vec![2, 4, 1, 3]);
    }
}
