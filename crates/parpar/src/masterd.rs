//! The master daemon: job admission, the gang matrix, and round-robin slot
//! rotation (paper §2.1).
//!
//! Pure state machine: methods return the commands to deliver over the
//! control network; the cluster simulator times their delivery.

use std::collections::{BTreeMap, BTreeSet};

use crate::job::{JobId, JobSpec, JobState};
use crate::matrix::{GangMatrix, PlaceError, Placement};
use crate::protocol::NodedCmd;

/// A job's record inside the masterd.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submitted spec.
    pub spec: JobSpec,
    /// Where the matrix put it.
    pub placement: Placement,
    /// Lifecycle state.
    pub state: JobState,
    nodes_up: BTreeSet<usize>,
    nodes_finished: BTreeSet<usize>,
    /// Exited processes reported via aggregated tree counts (the tree
    /// control plane reports subtotals, not node ids).
    finished_agg: usize,
}

/// A slot-switch order produced when the quantum expires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchOrder {
    /// Monotone epoch.
    pub epoch: u64,
    /// Slot being descheduled.
    pub from: usize,
    /// Slot being scheduled.
    pub to: usize,
}

/// The masterd.
#[derive(Debug, Clone)]
pub struct Masterd {
    matrix: GangMatrix,
    jobs: BTreeMap<JobId, JobRecord>,
    next_job: u32,
    nodes: usize,
    current_slot: usize,
    epoch: u64,
    switch_done: BTreeSet<usize>,
    /// Switch acks received as aggregated tree counts this epoch.
    switch_agg: usize,
    switch_in_flight: bool,
    /// Completed switches (for reports).
    pub switches_completed: u64,
    /// Jobs submitted but not yet Finished. Kept incrementally so the
    /// engine's per-event "all jobs done?" predicate is O(1) instead of a
    /// scan over every job record ever admitted.
    unfinished: usize,
}

/// Result of a successful submission.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// Allocated job id.
    pub job: JobId,
    /// Matrix placement.
    pub placement: Placement,
    /// LoadJob command per (node, cmd).
    pub cmds: Vec<(usize, NodedCmd)>,
}

impl Masterd {
    /// A masterd for `nodes` compute nodes and a matrix of `slots` rows.
    pub fn new(nodes: usize, slots: usize) -> Self {
        Masterd {
            matrix: GangMatrix::new(nodes, slots),
            jobs: BTreeMap::new(),
            next_job: 1,
            nodes,
            current_slot: 0,
            epoch: 0,
            switch_done: BTreeSet::new(),
            switch_agg: 0,
            switch_in_flight: false,
            switches_completed: 0,
            unfinished: 0,
        }
    }

    /// The matrix (read-only; for reports and invariant checks).
    pub fn matrix(&self) -> &GangMatrix {
        &self.matrix
    }

    /// The slot whose jobs currently run.
    pub fn current_slot(&self) -> usize {
        self.current_slot
    }

    /// Current switch epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch of the switch currently in flight, if any (the reliability
    /// layer's watchdog re-arms while this returns `Some`).
    pub fn pending_switch(&self) -> Option<u64> {
        self.switch_in_flight.then_some(self.epoch)
    }

    /// Record of a job.
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// All jobs currently known.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobRecord)> {
        self.jobs.iter().map(|(k, v)| (*k, v))
    }

    /// Have all submitted jobs reached `Finished`? O(1): maintained as a
    /// counter at submit/finish instead of scanning the job table (which
    /// the engine would otherwise do after every event).
    pub fn all_jobs_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Admit a job: place it in the matrix and emit LoadJob commands
    /// (the jobrep → masterd negotiation of Fig. 2).
    pub fn submit(&mut self, spec: JobSpec) -> Result<Submitted, PlaceError> {
        let job = JobId(self.next_job);
        let placement = match &spec.pinned_nodes {
            Some(nodes) => self.matrix.place_pinned(job, nodes)?,
            None => self.matrix.place(job, spec.nprocs)?,
        };
        self.next_job += 1;
        let cmds = placement
            .nodes
            .iter()
            .enumerate()
            .map(|(rank, &node)| {
                (
                    node,
                    NodedCmd::LoadJob {
                        job,
                        rank,
                        placement: placement.nodes.clone(),
                        slot: placement.slot,
                    },
                )
            })
            .collect();
        self.jobs.insert(
            job,
            JobRecord {
                spec,
                placement: placement.clone(),
                state: JobState::Loading,
                nodes_up: BTreeSet::new(),
                nodes_finished: BTreeSet::new(),
                finished_agg: 0,
            },
        );
        self.unfinished += 1;
        Ok(Submitted {
            job,
            placement,
            cmds,
        })
    }

    /// A noded reports its process started. When the last one arrives, the
    /// job becomes Running and AllUp commands are returned for its nodes
    /// (the "collect all notifications" step of Fig. 2).
    pub fn on_proc_started(&mut self, job: JobId, node: usize) -> Option<Vec<(usize, NodedCmd)>> {
        let rec = self.jobs.get_mut(&job).expect("unknown job");
        assert_eq!(
            rec.state,
            JobState::Loading,
            "ProcStarted for non-loading job"
        );
        rec.nodes_up.insert(node);
        if rec.nodes_up.len() == rec.spec.nprocs {
            rec.state = JobState::Running;
            Some(
                rec.placement
                    .nodes
                    .iter()
                    .map(|&n| (n, NodedCmd::AllUp { job }))
                    .collect(),
            )
        } else {
            None
        }
    }

    /// The quantum expired: rotate to the next active slot.
    ///
    /// Returns `None` when no switch is needed (zero or one active slot) or
    /// when the previous switch has not finished (the quantum is far longer
    /// than a switch in practice; this guards pathological configurations).
    pub fn quantum_expired(&mut self) -> Option<SwitchOrder> {
        if self.switch_in_flight {
            return None;
        }
        let active = self.matrix.active_slots();
        if active.len() <= 1 && active.first() == Some(&self.current_slot) {
            return None;
        }
        if active.is_empty() {
            return None;
        }
        // Round-robin: next active slot after the current one.
        let to = active
            .iter()
            .copied()
            .find(|&s| s > self.current_slot)
            .unwrap_or(active[0]);
        if to == self.current_slot {
            return None;
        }
        self.epoch += 1;
        self.switch_in_flight = true;
        self.switch_done.clear();
        self.switch_agg = 0;
        let order = SwitchOrder {
            epoch: self.epoch,
            from: self.current_slot,
            to,
        };
        self.current_slot = to;
        Some(order)
    }

    /// A noded finished all three phases of a switch. Returns `true` when
    /// every node has reported.
    pub fn on_switch_done(&mut self, node: usize, epoch: u64) -> bool {
        assert_eq!(epoch, self.epoch, "stale SwitchDone");
        assert!(self.switch_in_flight, "SwitchDone with no switch in flight");
        self.switch_done.insert(node);
        if self.switch_done.len() == self.nodes {
            self.switch_in_flight = false;
            self.switches_completed += 1;
            true
        } else {
            false
        }
    }

    /// The tree control plane delivered an aggregated count of switch
    /// acks (normally one root message covering every node). Returns
    /// `true` when the whole cluster has reported — the same single
    /// logical completion [`Masterd::on_switch_done`] produces, reached
    /// through counts instead of node ids.
    pub fn on_switch_done_agg(&mut self, epoch: u64, count: usize) -> bool {
        assert_eq!(epoch, self.epoch, "stale SwitchDone");
        assert!(self.switch_in_flight, "SwitchDone with no switch in flight");
        self.switch_agg += count;
        assert!(
            self.switch_agg <= self.nodes,
            "{} aggregated switch acks for {} nodes",
            self.switch_agg,
            self.nodes
        );
        if self.switch_agg == self.nodes {
            self.switch_in_flight = false;
            self.switches_completed += 1;
            true
        } else {
            false
        }
    }

    /// A job's process exited on `node`. When the last one exits the job
    /// leaves the matrix; returns `true` then.
    pub fn on_job_finished(&mut self, job: JobId, node: usize) -> bool {
        let rec = self.jobs.get_mut(&job).expect("unknown job");
        rec.nodes_finished.insert(node);
        if rec.nodes_finished.len() == rec.spec.nprocs {
            rec.state = JobState::Finished;
            self.unfinished -= 1;
            self.matrix.remove(job);
            true
        } else {
            false
        }
    }

    /// The tree control plane delivered an aggregated count of exited
    /// processes for `job`. Returns `true` when the last one exits —
    /// the same completion [`Masterd::on_job_finished`] produces.
    pub fn on_job_finished_agg(&mut self, job: JobId, count: usize) -> bool {
        let rec = self.jobs.get_mut(&job).expect("unknown job");
        rec.finished_agg += count;
        assert!(
            rec.finished_agg <= rec.spec.nprocs,
            "{} aggregated exits for a job of {} procs",
            rec.finished_agg,
            rec.spec.nprocs
        );
        if rec.finished_agg == rec.spec.nprocs {
            rec.state = JobState::Finished;
            self.unfinished -= 1;
            self.matrix.remove(job);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_emits_one_load_per_node() {
        let mut m = Masterd::new(16, 4);
        let s = m.submit(JobSpec::sized("a", 4)).unwrap();
        assert_eq!(s.cmds.len(), 4);
        for (i, (node, cmd)) in s.cmds.iter().enumerate() {
            match cmd {
                NodedCmd::LoadJob {
                    rank, placement, ..
                } => {
                    assert_eq!(*rank, i);
                    assert_eq!(placement[*rank], *node);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(m.job(s.job).unwrap().state, JobState::Loading);
    }

    #[test]
    fn all_up_after_every_proc_started() {
        let mut m = Masterd::new(4, 2);
        let s = m.submit(JobSpec::sized("a", 3)).unwrap();
        assert!(m.on_proc_started(s.job, s.placement.nodes[0]).is_none());
        assert!(m.on_proc_started(s.job, s.placement.nodes[1]).is_none());
        let all_up = m.on_proc_started(s.job, s.placement.nodes[2]).unwrap();
        assert_eq!(all_up.len(), 3);
        assert_eq!(m.job(s.job).unwrap().state, JobState::Running);
    }

    #[test]
    fn rotation_round_robins_active_slots() {
        let mut m = Masterd::new(2, 4);
        m.submit(JobSpec::pinned("a", vec![0, 1])).unwrap(); // slot 0
        m.submit(JobSpec::pinned("b", vec![0, 1])).unwrap(); // slot 1
        m.submit(JobSpec::pinned("c", vec![0, 1])).unwrap(); // slot 2
        let o1 = m.quantum_expired().unwrap();
        assert_eq!((o1.from, o1.to), (0, 1));
        for n in 0..2 {
            m.on_switch_done(n, o1.epoch);
        }
        let o2 = m.quantum_expired().unwrap();
        assert_eq!((o2.from, o2.to), (1, 2));
        for n in 0..2 {
            m.on_switch_done(n, o2.epoch);
        }
        let o3 = m.quantum_expired().unwrap();
        assert_eq!((o3.from, o3.to), (2, 0)); // wraps
    }

    #[test]
    fn single_slot_never_switches() {
        let mut m = Masterd::new(4, 4);
        m.submit(JobSpec::sized("a", 2)).unwrap();
        m.submit(JobSpec::sized("b", 2)).unwrap(); // shares slot 0
        assert_eq!(m.quantum_expired(), None);
    }

    #[test]
    fn switch_blocks_until_all_nodes_report() {
        let mut m = Masterd::new(3, 2);
        m.submit(JobSpec::pinned("a", vec![0, 1, 2])).unwrap();
        m.submit(JobSpec::pinned("b", vec![0, 1, 2])).unwrap();
        let o = m.quantum_expired().unwrap();
        // Second quantum fires before the switch completes: suppressed.
        assert_eq!(m.quantum_expired(), None);
        assert!(!m.on_switch_done(0, o.epoch));
        assert!(!m.on_switch_done(1, o.epoch));
        assert!(m.on_switch_done(2, o.epoch));
        assert_eq!(m.switches_completed, 1);
        assert!(m.quantum_expired().is_some());
    }

    #[test]
    fn job_finish_removes_from_matrix() {
        let mut m = Masterd::new(4, 2);
        let s = m.submit(JobSpec::sized("a", 2)).unwrap();
        assert!(!m.on_job_finished(s.job, s.placement.nodes[0]));
        assert!(m.on_job_finished(s.job, s.placement.nodes[1]));
        assert_eq!(m.job(s.job).unwrap().state, JobState::Finished);
        assert!(m.matrix().active_slots().is_empty());
    }

    #[test]
    #[should_panic(expected = "stale SwitchDone")]
    fn stale_switch_done_panics() {
        let mut m = Masterd::new(2, 2);
        m.submit(JobSpec::pinned("a", vec![0, 1])).unwrap();
        m.submit(JobSpec::pinned("b", vec![0, 1])).unwrap();
        let o = m.quantum_expired().unwrap();
        m.on_switch_done(0, o.epoch - 1);
    }
}
