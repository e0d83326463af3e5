//! The master daemon: job admission, the gang matrix, and round-robin slot
//! rotation (paper §2.1).
//!
//! Pure state machine: methods return the commands to deliver over the
//! control network; the cluster simulator times their delivery.

use std::collections::BTreeMap;
use std::rc::Rc;

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
    /// Processes reported started.
    up: usize,
    /// Processes reported exited.
    finished: usize,
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
    /// Nodes reported done with the switch in flight.
    switch_acks: usize,
    switch_in_flight: bool,
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
            switch_acks: 0,
            switch_in_flight: false,
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

    /// The epoch of the switch currently in flight, if any (the reliability
    /// layer's watchdog re-arms while this returns `Some`).
    pub fn pending_switch(&self) -> Option<u64> {
        self.switch_in_flight.then_some(self.epoch)
    }

    /// Record of a job.
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(&id)
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
        let shared: Rc<[usize]> = placement.nodes.as_slice().into();
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
                        placement: Rc::clone(&shared),
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
                up: 0,
                finished: 0,
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
    /// job becomes Running and the nodes that get its `AllUp` command are
    /// returned, in rank order (the "collect all notifications" step of
    /// Fig. 2).
    pub fn on_proc_started(&mut self, job: JobId) -> Option<&[usize]> {
        let rec = self.jobs.get_mut(&job).expect("unknown job");
        assert_eq!(
            rec.state,
            JobState::Loading,
            "ProcStarted for non-loading job"
        );
        rec.up += 1;
        if rec.up == rec.spec.nprocs {
            rec.state = JobState::Running;
            Some(&rec.placement.nodes)
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
        self.switch_acks = 0;
        let order = SwitchOrder {
            epoch: self.epoch,
            from: self.current_slot,
            to,
        };
        self.current_slot = to;
        Some(order)
    }

    /// `count` nodes finished all three phases of switch `epoch`: one
    /// node's own report, or a combining-tree subtotal. Returns `true`
    /// when every node has reported.
    pub fn on_switch_done(&mut self, epoch: u64, count: usize) -> bool {
        assert_eq!(epoch, self.epoch, "stale SwitchDone");
        assert!(self.switch_in_flight, "SwitchDone with no switch in flight");
        self.switch_acks += count;
        assert!(
            self.switch_acks <= self.nodes,
            "{} switch acks for {} nodes",
            self.switch_acks,
            self.nodes
        );
        if self.switch_acks == self.nodes {
            self.switch_in_flight = false;
            true
        } else {
            false
        }
    }

    /// `count` of the job's processes exited (one node's report, or a
    /// combining-tree subtotal). When the last one exits the job leaves
    /// the matrix; returns `true` then.
    pub fn on_job_finished(&mut self, job: JobId, count: usize) -> bool {
        let rec = self.jobs.get_mut(&job).expect("unknown job");
        rec.finished += count;
        assert!(
            rec.finished <= rec.spec.nprocs,
            "{} exits for a job of {} procs",
            rec.finished,
            rec.spec.nprocs
        );
        if rec.finished == rec.spec.nprocs {
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
    fn every_load_of_a_submit_shares_one_placement() {
        let mut m = Masterd::new(16, 4);
        let s = m.submit(JobSpec::sized("a", 8)).unwrap();
        let placements: Vec<&Rc<[usize]>> = s
            .cmds
            .iter()
            .map(|(_, cmd)| match cmd {
                NodedCmd::LoadJob { placement, .. } => placement,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(placements.len(), 8);
        assert_eq!(&placements[0][..], s.placement.nodes.as_slice());
        assert!(placements.iter().all(|p| Rc::ptr_eq(p, placements[0])));
    }

    #[test]
    fn all_up_after_every_proc_started() {
        let mut m = Masterd::new(4, 2);
        let s = m.submit(JobSpec::sized("a", 3)).unwrap();
        assert!(m.on_proc_started(s.job).is_none());
        assert!(m.on_proc_started(s.job).is_none());
        let all_up = m.on_proc_started(s.job).unwrap();
        assert_eq!(all_up, s.placement.nodes.as_slice());
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
        m.on_switch_done(o1.epoch, 2);
        let o2 = m.quantum_expired().unwrap();
        assert_eq!((o2.from, o2.to), (1, 2));
        m.on_switch_done(o2.epoch, 2);
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
        // Flat and serial planes: one report of 1 per node.
        assert!(!m.on_switch_done(o.epoch, 1));
        assert!(!m.on_switch_done(o.epoch, 1));
        assert!(m.on_switch_done(o.epoch, 1));
        assert_eq!(m.pending_switch(), None);
        // Tree plane: the root's one aggregated report of N.
        let o = m.quantum_expired().unwrap();
        assert_eq!(m.pending_switch(), Some(o.epoch));
        assert!(m.on_switch_done(o.epoch, 3));
        assert!(m.quantum_expired().is_some());
    }

    #[test]
    #[should_panic(expected = "4 switch acks for 3 nodes")]
    fn duplicate_switch_report_panics() {
        let mut m = Masterd::new(3, 2);
        m.submit(JobSpec::pinned("a", vec![0, 1, 2])).unwrap();
        m.submit(JobSpec::pinned("b", vec![0, 1, 2])).unwrap();
        let o = m.quantum_expired().unwrap();
        m.on_switch_done(o.epoch, 1);
        m.on_switch_done(o.epoch, 3);
    }

    #[test]
    fn job_finish_removes_from_matrix() {
        let mut m = Masterd::new(4, 2);
        let s = m.submit(JobSpec::sized("a", 2)).unwrap();
        assert!(!m.on_job_finished(s.job, 1));
        assert!(m.on_job_finished(s.job, 1));
        assert_eq!(m.job(s.job).unwrap().state, JobState::Finished);
        assert!(m.matrix().active_slots().is_empty());
        assert!(m.all_jobs_finished());
        // One aggregated report covering the whole job.
        let t = m.submit(JobSpec::sized("b", 3)).unwrap();
        assert!(!m.all_jobs_finished());
        assert!(m.on_job_finished(t.job, 3));
        assert!(m.all_jobs_finished());
    }

    #[test]
    #[should_panic(expected = "3 exits for a job of 2 procs")]
    fn duplicate_exit_report_panics() {
        let mut m = Masterd::new(4, 2);
        let s = m.submit(JobSpec::sized("a", 2)).unwrap();
        m.on_job_finished(s.job, 2);
        m.on_job_finished(s.job, 1);
    }

    #[test]
    #[should_panic(expected = "stale SwitchDone")]
    fn stale_switch_done_panics() {
        let mut m = Masterd::new(2, 2);
        m.submit(JobSpec::pinned("a", vec![0, 1])).unwrap();
        m.submit(JobSpec::pinned("b", vec![0, 1])).unwrap();
        let o = m.quantum_expired().unwrap();
        m.on_switch_done(o.epoch - 1, 1);
    }
}
