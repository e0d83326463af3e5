//! Property tests for the DES engine and statistics.

use proptest::prelude::*;
use sim_core::engine::{Engine, Model, Scheduler};
use sim_core::stats::Summary;
use sim_core::time::{Cycles, SimTime};

struct Recorder {
    fired: Vec<(u64, u32)>,
}

impl Model for Recorder {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
        self.fired.push((now.raw(), ev));
    }
}

proptest! {
    /// Events fire in nondecreasing time order regardless of insertion
    /// order, with FIFO tie-breaking by insertion sequence.
    #[test]
    fn events_fire_sorted(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut e = Engine::new(Recorder { fired: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime(t), i as u32);
        }
        e.run_to_idle();
        // Time-sorted.
        for w in e.model.fired.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            // Ties broken by insertion order.
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
        prop_assert_eq!(e.model.fired.len(), times.len());
    }

    /// run_until never processes events beyond the horizon and always
    /// leaves the clock exactly at the horizon.
    #[test]
    fn run_until_respects_horizon(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        horizon in 0u64..12_000,
    ) {
        let mut e = Engine::new(Recorder { fired: Vec::new() });
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime(t), i as u32);
        }
        e.run_until(SimTime(horizon));
        prop_assert!(e.model.fired.iter().all(|&(t, _)| t <= horizon));
        prop_assert_eq!(e.now(), SimTime(horizon));
        let expected = times.iter().filter(|&&t| t <= horizon).count();
        prop_assert_eq!(e.model.fired.len(), expected);
    }

    /// Summary min <= mean <= max, stddev nonnegative.
    #[test]
    fn summary_orderings(values in proptest::collection::vec(-1e12f64..1e12, 1..200)) {
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        prop_assert!(s.min() <= s.mean() + 1e-6 * s.mean().abs().max(1.0));
        prop_assert!(s.mean() <= s.max() + 1e-6 * s.max().abs().max(1.0));
        prop_assert!(s.stddev() >= 0.0);
    }

    /// Byte/bandwidth → cycles conversion is monotone in bytes and
    /// antitone in bandwidth.
    #[test]
    fn cycles_for_bytes_monotone(bytes in 1u64..1u64<<30, bw in 1u64..1u64<<32) {
        let c = Cycles::for_bytes_at(bytes, bw);
        prop_assert!(Cycles::for_bytes_at(bytes + 1, bw) >= c);
        prop_assert!(Cycles::for_bytes_at(bytes, bw + 1) <= c);
        prop_assert!(c.raw() >= 1);
    }
}
