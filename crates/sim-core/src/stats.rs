//! Measurement helpers: latency sketches, summaries and time-weighted
//! statistics used by the experiment harnesses.

use crate::time::{Cycles, SimTime};

/// A statistic sampled over time, weighted by how long each value was held
/// (e.g. queue occupancy).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_t: SimTime,
    last_v: f64,
    area: f64,
    total: Cycles,
    max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        TimeWeighted {
            last_t: SimTime::ZERO,
            last_v: 0.0,
            area: 0.0,
            total: Cycles::ZERO,
            max: 0.0,
            started: false,
        }
    }
}

impl TimeWeighted {
    /// Fresh statistic.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the tracked value changed to `v` at instant `t`.
    pub fn set(&mut self, t: SimTime, v: f64) {
        if self.started {
            let dt = t.since(self.last_t);
            self.area += self.last_v * dt.raw() as f64;
            self.total += dt;
        }
        self.started = true;
        self.last_t = t;
        self.last_v = v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Time-weighted mean of the value so far.
    pub fn mean(&self) -> f64 {
        if self.total.raw() == 0 {
            return self.last_v;
        }
        self.area / self.total.raw() as f64
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Streaming log-linear quantile sketch over `u64` observations (request
/// latencies in cycles). HDR-histogram shaped: 32 sub-buckets per octave,
/// so any reported quantile is within ~3% of the true value, with exact
/// counts below 32. All bookkeeping is integer arithmetic on a fixed
/// bucket layout — two runs that record the same multiset of values
/// report bit-identical quantiles regardless of arrival order, which is
/// what lets serve-mode percentiles be pinned by golden tests.
#[derive(Debug, Clone, Default)]
pub struct LatencySketch {
    /// Sparse bucket counts, grown on demand. Index layout: values below
    /// 32 map to themselves; a value with highest set bit `e >= 5` maps to
    /// `((e - 4) << 5) | ((v >> (e - 5)) & 31)`.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LatencySketch {
    /// Fresh, empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v < 32 {
            v as usize
        } else {
            let e = 63 - v.leading_zeros() as usize;
            ((e - 4) << 5) | ((v >> (e - 5)) & 31) as usize
        }
    }

    /// Upper bound of the value range bucket `i` covers (the value a
    /// quantile falling in that bucket reports).
    fn bucket_upper(i: usize) -> u64 {
        if i < 32 {
            i as u64
        } else {
            let g = i >> 5; // e - 4, so e = g + 4 >= 5
            let sub = (i & 31) as u64;
            let width = 1u64 << (g - 1);
            ((32 + sub) << (g - 1)) + (width - 1)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let i = Self::bucket_of(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = if self.count == 1 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile in parts-per-thousand (`500` = p50, `990` = p99, `999` =
    /// p999): the upper bound of the bucket holding the rank-th
    /// observation, clamped to the recorded max. Integer rank arithmetic,
    /// so the result is exactly reproducible.
    pub fn quantile_ppk(&self, ppk: u64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * ppk.min(1000)).div_ceil(1000).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fraction of observations at or below `limit` (SLO attainment).
    /// Resolution is the bucket width: the whole bucket containing
    /// `limit` counts as within.
    pub fn fraction_le(&self, limit: u64) -> f64 {
        if self.count == 0 {
            return 1.0;
        }
        let cut = Self::bucket_of(limit);
        let within: u64 = self.buckets.iter().take(cut + 1).sum();
        within as f64 / self.count as f64
    }

    /// Fold the sketch into an FNV-1a style accumulator: the caller
    /// supplies the mixing function; we feed it the count and every
    /// non-empty `(bucket, count)` pair, so two sketches hash equal iff
    /// they hold the same multiset (at bucket resolution).
    pub fn fold_into(&self, mut mix: impl FnMut(u64)) {
        mix(self.count);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                mix(i as u64);
                mix(n);
            }
        }
    }
}

/// Mean/min/max accumulator over `f64` samples.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Summary {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sumsq += v * v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0 if fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let var = (self.sumsq - self.sum * self.sum / n) / n;
        var.max(0.0).sqrt()
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_mean() {
        let mut s = TimeWeighted::new();
        s.set(SimTime(0), 10.0);
        s.set(SimTime(100), 20.0); // 10 held for 100
        s.set(SimTime(300), 0.0); // 20 held for 200
        assert!((s.mean() - (10.0 * 100.0 + 20.0 * 200.0) / 300.0).abs() < 1e-9);
        assert_eq!(s.max(), 20.0);
    }

    #[test]
    fn latency_sketch_quantiles_are_tight_and_deterministic() {
        let mut a = LatencySketch::new();
        let mut b = LatencySketch::new();
        let vals: Vec<u64> = (1..=1000u64).map(|i| i * 37).collect();
        for &v in &vals {
            a.record(v);
        }
        for &v in vals.iter().rev() {
            b.record(v);
        }
        // Order-independent: identical multiset, identical quantiles.
        for ppk in [500u64, 990, 999, 1000] {
            assert_eq!(a.quantile_ppk(ppk), b.quantile_ppk(ppk), "p{ppk}");
        }
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 37);
        assert_eq!(a.max(), 37_000);
        // Within the 1/32 relative-error bound of the true quantile.
        let p50 = a.quantile_ppk(500) as f64;
        assert!((p50 - 500.0 * 37.0).abs() / (500.0 * 37.0) < 0.04, "{p50}");
        let p99 = a.quantile_ppk(990) as f64;
        assert!((p99 - 990.0 * 37.0).abs() / (990.0 * 37.0) < 0.04, "{p99}");
        assert_eq!(a.quantile_ppk(1000), 37_000);
    }

    #[test]
    fn latency_sketch_small_values_exact() {
        let mut s = LatencySketch::new();
        for v in 0..32u64 {
            s.record(v);
        }
        assert_eq!(s.quantile_ppk(500), 15);
        assert_eq!(s.quantile_ppk(1000), 31);
        assert_eq!(s.min(), 0);
        let mut folded = Vec::new();
        s.fold_into(|w| folded.push(w));
        // count + 32 non-empty (bucket, count) pairs.
        assert_eq!(folded.len(), 1 + 64);
    }

    #[test]
    fn latency_sketch_slo_fraction() {
        let mut s = LatencySketch::new();
        for v in [10u64, 20, 30, 1000, 2000] {
            s.record(v);
        }
        assert!((s.fraction_le(30) - 0.6).abs() < 1e-12);
        assert_eq!(s.fraction_le(u64::MAX / 2), 1.0);
        assert_eq!(LatencySketch::new().fraction_le(5), 1.0);
        assert_eq!(LatencySketch::new().quantile_ppk(990), 0);
    }

    #[test]
    fn summary_stats() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
        assert!((s.stddev() - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }
}
