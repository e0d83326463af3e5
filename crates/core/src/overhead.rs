//! Switch-overhead aggregation (paper §4.2).
//!
//! The paper's bottom line: with the improved algorithm the buffer switch
//! takes < 12.5 ms — "less than 1.25%" of even a short 1-second quantum.
//! [`OverheadLedger`] accumulates per-stage cycles across switches and
//! nodes and produces those percentages.

use sim_core::stats::Summary;
use sim_core::time::Cycles;

use crate::sequencer::StageBreakdown;

/// Aggregated stage statistics across many (node, switch) samples.
#[derive(Debug, Clone, Default)]
pub struct OverheadLedger {
    halt: Summary,
    buffer_switch: Summary,
    release: Summary,
    total: Summary,
}

impl OverheadLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one node's completed switch.
    pub fn record(&mut self, b: &StageBreakdown) {
        self.halt.record(b.halt.raw() as f64);
        self.buffer_switch.record(b.buffer_switch.raw() as f64);
        self.release.record(b.release.raw() as f64);
        self.total.record(b.total().raw() as f64);
    }

    /// Number of samples.
    pub fn samples(&self) -> u64 {
        self.total.count()
    }

    /// Mean cycles of each stage: (halt, buffer switch, release).
    pub fn mean_stages(&self) -> (f64, f64, f64) {
        (
            self.halt.mean(),
            self.buffer_switch.mean(),
            self.release.mean(),
        )
    }

    /// Mean total switch cycles.
    pub fn mean_total(&self) -> f64 {
        self.total.mean()
    }

    /// Worst-case total switch cycles.
    pub fn max_total(&self) -> f64 {
        self.total.max()
    }

    /// Mean switch overhead as a percentage of `quantum`.
    pub fn overhead_pct(&self, quantum: Cycles) -> f64 {
        if quantum.raw() == 0 {
            return 0.0;
        }
        self.mean_total() / quantum.raw() as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(h: u64, b: u64, r: u64) -> StageBreakdown {
        StageBreakdown {
            halt: Cycles(h),
            buffer_switch: Cycles(b),
            release: Cycles(r),
        }
    }

    #[test]
    fn aggregates_means_and_maxima() {
        let mut l = OverheadLedger::new();
        l.record(&sample(100, 1000, 200));
        l.record(&sample(300, 3000, 400));
        assert_eq!(l.samples(), 2);
        let (h, b, r) = l.mean_stages();
        assert_eq!((h, b, r), (200.0, 2000.0, 300.0));
        assert_eq!(l.mean_total(), 2500.0);
        assert_eq!(l.max_total(), 3700.0);
    }

    #[test]
    fn paper_overhead_percentages() {
        // Improved switch ≈ 2.5 M cycles on a 1 s (200 M cycle) quantum:
        // < 1.25 % (paper §4.2).
        let mut l = OverheadLedger::new();
        l.record(&sample(100_000, 2_200_000, 100_000));
        let pct = l.overhead_pct(Cycles::from_secs(1));
        assert!(pct < 1.25, "{pct}");
        // Full switch ≈ 17 M cycles: ~8.5 % of the same quantum.
        let mut l2 = OverheadLedger::new();
        l2.record(&sample(100_000, 16_800_000, 100_000));
        let pct2 = l2.overhead_pct(Cycles::from_secs(1));
        assert!((8.0..9.0).contains(&pct2), "{pct2}");
    }

    #[test]
    fn zero_quantum_guard() {
        let l = OverheadLedger::new();
        assert_eq!(l.overhead_pct(Cycles::ZERO), 0.0);
    }
}
