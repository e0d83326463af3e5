//! Cluster-wide measurement collection.

pub use myrinet::network::TierTraffic;

use gang_comm::overhead::OverheadLedger;
use gang_comm::sequencer::StageBreakdown;
use parpar::job::JobId;
use sim_core::stats::{LatencySketch, TimeWeighted};
use sim_core::time::{Cycles, SimTime};

/// A per-job stat column backed by a flat `Vec` indexed by `JobId`.
///
/// JobIds are allocated densely from 1 by the masterd, so direct indexing
/// replaces the `BTreeMap<JobId, _>` lookups that used to sit on the
/// per-extract hot path — at N = 4096 hosts the tree walk (two to three
/// pointer chases into cold nodes, per received fragment) was the largest
/// single contributor to the O(N) per-event scale tax. Iteration order is
/// ascending `JobId`, matching the map it replaces.
#[derive(Debug, Clone)]
pub struct PerJob<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for PerJob<T> {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> PerJob<T> {
    #[inline]
    fn idx(job: JobId) -> usize {
        job.0 as usize
    }

    #[inline]
    /// The value recorded for `job`, if any.
    pub fn get(&self, job: &JobId) -> Option<&T> {
        self.slots.get(Self::idx(*job))?.as_ref()
    }

    #[inline]
    /// Mutable access to the value recorded for `job`, if any.
    pub fn get_mut(&mut self, job: &JobId) -> Option<&mut T> {
        self.slots.get_mut(Self::idx(*job))?.as_mut()
    }

    #[inline]
    /// Is there a value recorded for `job`?
    pub fn contains_key(&self, job: &JobId) -> bool {
        self.get(job).is_some()
    }

    fn slot(&mut self, job: JobId) -> &mut Option<T> {
        let i = Self::idx(job);
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Record `value` for `job`, returning the previous value if any.
    pub fn insert(&mut self, job: JobId, value: T) -> Option<T> {
        let prev = self.slot(job).replace(value);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// Take `job`'s value out of the table, if present.
    pub fn remove(&mut self, job: &JobId) -> Option<T> {
        let taken = self.slots.get_mut(Self::idx(*job))?.take();
        if taken.is_some() {
            self.live -= 1;
        }
        taken
    }

    /// `BTreeMap::entry(job)`-style in-place access; the two `or_*` forms
    /// the handlers use are provided directly.
    #[inline]
    pub fn entry(&mut self, job: JobId) -> PerJobEntry<'_, T> {
        PerJobEntry { table: self, job }
    }

    #[inline]
    /// Number of jobs with a recorded value.
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    /// Is no job recorded at all?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live job ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = JobId> + '_ {
        self.iter().map(|(j, _)| j)
    }

    /// Live `(JobId, &T)` pairs in ascending job order.
    pub fn iter(&self) -> impl Iterator<Item = (JobId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (JobId(i as u32), v)))
    }

    /// Live values in ascending job order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.as_ref())
    }
}

impl<T> IntoIterator for PerJob<T> {
    type Item = (JobId, T);
    type IntoIter = std::iter::FilterMap<
        std::iter::Enumerate<std::vec::IntoIter<Option<T>>>,
        fn((usize, Option<T>)) -> Option<(JobId, T)>,
    >;
    fn into_iter(self) -> Self::IntoIter {
        self.slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|v| (JobId(i as u32), v)))
    }
}

/// In-place slot handle returned by [`PerJob::entry`].
pub struct PerJobEntry<'a, T> {
    table: &'a mut PerJob<T>,
    job: JobId,
}

impl<'a, T> PerJobEntry<'a, T> {
    /// Insert `default` if the slot is vacant; return the value in place.
    pub fn or_insert(self, default: T) -> &'a mut T {
        self.or_insert_with(|| default)
    }

    /// Insert `T::default()` if the slot is vacant; return the value in place.
    pub fn or_default(self) -> &'a mut T
    where
        T: Default,
    {
        self.or_insert_with(T::default)
    }

    /// Insert `make()` if the slot is vacant; return the value in place.
    pub fn or_insert_with(self, make: impl FnOnce() -> T) -> &'a mut T {
        let i = PerJob::<T>::idx(self.job);
        if self.table.slots.len() <= i {
            self.table.slots.resize_with(i + 1, || None);
        }
        if self.table.slots[i].is_none() {
            self.table.live += 1;
            self.table.slots[i] = Some(make());
        }
        self.table.slots[i].as_mut().unwrap()
    }
}

impl<T> std::ops::Index<&JobId> for PerJob<T> {
    type Output = T;
    fn index(&self, job: &JobId) -> &T {
        self.get(job)
            .unwrap_or_else(|| panic!("no entry for job {}", job.0))
    }
}

/// One Fig. 8 sample: valid packets found in the outgoing context's queues
/// when the buffer switch ran.
#[derive(Debug, Clone, Copy)]
pub struct QueueSample {
    /// Sampling node.
    pub node: usize,
    /// Switch epoch.
    pub epoch: u64,
    /// Valid packets in the send queue.
    pub send_valid: usize,
    /// Valid packets in the receive queue.
    pub recv_valid: usize,
}

/// Everything the experiment harnesses read after a run.
#[derive(Debug, Default)]
pub struct WorldStats {
    /// Per-stage switch-cycle aggregation (Figs. 7/9).
    pub ledger: OverheadLedger,
    /// Raw per-node stage samples.
    pub stage_samples: Vec<(usize, u64, StageBreakdown)>,
    /// Queue-occupancy samples at switch time (Fig. 8).
    pub queue_samples: Vec<QueueSample>,
    /// Payload bytes delivered to each job's receivers. The entry opens at
    /// AllUp, so every started job has one.
    pub job_bytes: PerJob<u64>,
    /// When each job's processes all reported up (AllUp broadcast).
    pub job_all_up: PerJob<SimTime>,
    /// When each job's first data send was issued.
    pub job_first_send: PerJob<SimTime>,
    /// When each job fully finished.
    pub job_finished: PerJob<SimTime>,
    /// When each job was submitted to the jobrep (serving mode only —
    /// direct [`crate::Sim::submit`] bypasses the admission queue and
    /// records nothing here).
    pub job_submitted: PerJob<SimTime>,
    /// When each jobrep-submitted job was admitted into the gang matrix
    /// and dispatched.
    pub job_dispatched: PerJob<SimTime>,
    /// Request-latency sketch: submit → dispatch wait, cycles.
    pub wait_latency: LatencySketch,
    /// Request-latency sketch: dispatch → finish service time, cycles.
    pub service_latency: LatencySketch,
    /// Request-latency sketch: submit → finish end-to-end, cycles.
    pub e2e_latency: LatencySketch,
    /// Jobrep admission-queue depth over time (jobs waiting for space).
    pub queue_depth: TimeWeighted,
    /// Data packets dropped (possible only under ShareDiscard).
    pub drops: u64,
    /// Packets lost to injected wire faults.
    pub wire_losses: u64,
    /// Completed cluster-wide switches.
    pub switches: u64,
    /// Per completed switch: `(epoch, order-issue → masterd-completion)` —
    /// the scalability sweep's switch-latency sample, covering command
    /// fan-out, the slowest node's three phases, and ack fan-in.
    pub switch_latency: Vec<(u64, Cycles)>,
    /// Combining-tree depth of the control plane (`0` under the flat
    /// multicast or the serial unicast loop).
    pub tree_depth: usize,
    /// Reliability layer: packets re-injected by go-back-N timeouts.
    pub retransmits: u64,
    /// Reliability layer: halt/ready broadcasts repeated after a
    /// ResendProtocol command.
    pub rebroadcasts: u64,
    /// Reliability layer: masterd switch-watchdog firings that found the
    /// switch still in flight and multicast a ResendProtocol.
    pub switch_retries: u64,
    /// Demand allocator: rebalance passes that scheduled at least one
    /// credit-window move.
    pub realloc_events: u64,
    /// Demand allocator: credits granted to under-served channels from
    /// reclaimed pool space.
    pub credits_migrated: u64,
}

impl WorldStats {
    /// Record one node's completed switch.
    pub fn record_switch(&mut self, node: usize, epoch: u64, b: StageBreakdown) {
        self.ledger.record(&b);
        self.stage_samples.push((node, epoch, b));
    }

    /// Mean cluster-wide switch latency over all recorded completions, in
    /// cycles; `None` before the first completed switch.
    pub fn mean_switch_latency(&self) -> Option<f64> {
        if self.switch_latency.is_empty() {
            return None;
        }
        let sum: f64 = self
            .switch_latency
            .iter()
            .map(|(_, c)| c.raw() as f64)
            .sum();
        Some(sum / self.switch_latency.len() as f64)
    }

    /// The paper's Fig. 5/6 bandwidth for a finished job: payload bytes
    /// over the send-start → finish interval, in MB/s.
    pub fn job_bandwidth_mbps(&self, job: JobId, payload_bytes: u64) -> Option<f64> {
        let start = *self.job_first_send.get(&job)?;
        let end = *self.job_finished.get(&job)?;
        let secs = end.since(start).as_secs();
        if secs <= 0.0 {
            return None;
        }
        Some(payload_bytes as f64 / 1e6 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gang_comm::sequencer::StageBreakdown;
    use sim_core::time::Cycles;

    #[test]
    fn job_bandwidth_uses_send_to_finish_interval() {
        let mut s = WorldStats::default();
        let job = JobId(1);
        s.job_first_send.insert(job, SimTime(0));
        // 200 M cycles = 1 s; 50 MB over it = 50 MB/s.
        s.job_finished.insert(job, SimTime(200_000_000));
        let bw = s.job_bandwidth_mbps(job, 50_000_000).unwrap();
        assert!((bw - 50.0).abs() < 1e-9);
        // Unknown job: None.
        assert!(s.job_bandwidth_mbps(JobId(9), 1).is_none());
        // Zero-length interval: None.
        s.job_first_send.insert(JobId(2), SimTime(5));
        s.job_finished.insert(JobId(2), SimTime(5));
        assert!(s.job_bandwidth_mbps(JobId(2), 1).is_none());
    }

    #[test]
    fn record_switch_feeds_ledger_and_samples() {
        let mut s = WorldStats::default();
        let b = StageBreakdown {
            halt: Cycles(100),
            buffer_switch: Cycles(1000),
            release: Cycles(200),
        };
        s.record_switch(3, 7, b);
        assert_eq!(s.ledger.samples(), 1);
        assert_eq!(s.stage_samples.len(), 1);
        assert_eq!(s.stage_samples[0].0, 3);
        assert_eq!(s.stage_samples[0].1, 7);
        assert_eq!(s.ledger.mean_total(), 1300.0);
    }
}
