//! The job representative (paper §2.1): "when a user wishes to run a
//! parallel application he contacts the masterd using a third program
//! called the job representative, jobrep, which negotiates the loading of
//! the application with the masterd."
//!
//! This module provides the negotiation queue: submissions that do not fit
//! the gang matrix wait per priority class — higher classes are served
//! first, FIFO within a class — and are admitted as earlier jobs finish
//! and free their slots. Every queued submission gets a monotonically
//! increasing *ticket* so the caller can associate side state (programs,
//! submit timestamps) without depending on queue positions.

use std::collections::{BTreeMap, VecDeque};

use crate::job::JobSpec;
use crate::masterd::{Masterd, Submitted};
use crate::matrix::PlaceError;

/// Running counters for the submission queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobRepStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs admitted into the matrix.
    pub admitted: u64,
    /// Jobs rejected outright (would never fit).
    pub rejected: u64,
}

/// Outcome of a successful [`JobRep::submit`].
#[derive(Debug, Clone)]
pub enum Admission {
    /// The matrix had room: the job is placed now.
    Admitted(Submitted),
    /// No room (or an equal/higher-class job is already waiting): the job
    /// holds this ticket in its class queue.
    Queued(u64),
}

/// What a [`JobRep::drain`] pass did.
#[derive(Debug, Clone, Default)]
pub struct Drained {
    /// Admissions made, in admission order.
    pub admitted: Vec<(u64, Submitted)>,
    /// Tickets of queued heads that turned out to be invalid and were
    /// dropped (counted as rejected).
    pub dropped: Vec<u64>,
}

/// The jobrep's priority-class negotiation queue.
#[derive(Debug, Clone, Default)]
pub struct JobRep {
    /// Waiting submissions per class; iterated highest class first.
    classes: BTreeMap<u8, VecDeque<(u64, JobSpec)>>,
    next_ticket: u64,
    /// Counters.
    pub stats: JobRepStats,
}

impl JobRep {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jobs waiting for space, across all classes.
    pub fn waiting(&self) -> usize {
        self.classes.values().map(VecDeque::len).sum()
    }

    /// True if some waiter has class `>= priority` (and would therefore
    /// be served before a new submission of that class).
    fn blocked_by_waiter(&self, priority: u8) -> bool {
        self.classes.range(priority..).any(|(_, q)| !q.is_empty())
    }

    fn enqueue(&mut self, spec: JobSpec) -> u64 {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.classes
            .entry(spec.priority)
            .or_default()
            .push_back((ticket, spec));
        ticket
    }

    /// Submit a job: admitted immediately if the matrix has room and no
    /// equal-or-higher-class job is waiting, queued otherwise. `Err` if
    /// the job can never fit.
    pub fn submit(&mut self, master: &mut Masterd, spec: JobSpec) -> Result<Admission, PlaceError> {
        self.stats.submitted += 1;
        if spec.nprocs == 0 || spec.nprocs > master.matrix().nodes() {
            self.stats.rejected += 1;
            return Err(PlaceError::TooLarge);
        }
        // Fairness: earlier waiters of my class or above go first.
        if self.blocked_by_waiter(spec.priority) {
            return Ok(Admission::Queued(self.enqueue(spec)));
        }
        match master.submit(spec.clone()) {
            Ok(sub) => {
                self.stats.admitted += 1;
                Ok(Admission::Admitted(sub))
            }
            Err(PlaceError::NoSlot) | Err(PlaceError::PinnedBusy) => {
                Ok(Admission::Queued(self.enqueue(spec)))
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Try to admit queued jobs (call when a job finishes and frees
    /// matrix space). Serves classes highest first, FIFO within a class,
    /// admitting the head repeatedly until it no longer fits; a head that
    /// does not fit stops the pass (no backfill from lower classes —
    /// strict priority, no starvation of wide jobs by narrow ones).
    pub fn drain(&mut self, master: &mut Masterd) -> Drained {
        let mut out = Drained::default();
        'pass: while let Some((&class, _)) = self.classes.iter().rev().find(|(_, q)| !q.is_empty())
        {
            let queue = self.classes.get_mut(&class).expect("class exists");
            while let Some((ticket, spec)) = queue.front() {
                let (ticket, spec) = (*ticket, spec.clone());
                match master.submit(spec) {
                    Ok(sub) => {
                        queue.pop_front();
                        self.stats.admitted += 1;
                        out.admitted.push((ticket, sub));
                    }
                    Err(PlaceError::NoSlot) | Err(PlaceError::PinnedBusy) => break 'pass,
                    Err(_) => {
                        // Head became invalid (e.g. duplicate): drop it.
                        queue.pop_front();
                        self.stats.rejected += 1;
                        out.dropped.push(ticket);
                    }
                }
            }
            if self.classes.get(&class).is_none_or(VecDeque::is_empty) {
                self.classes.remove(&class);
            } else {
                break;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn finish(m: &mut Masterd, sub: &Submitted) {
        m.on_job_finished(sub.job, sub.placement.nodes.len());
    }

    fn admitted(a: Result<Admission, PlaceError>) -> Submitted {
        match a.unwrap() {
            Admission::Admitted(sub) => sub,
            Admission::Queued(t) => panic!("queued (ticket {t}), expected admission"),
        }
    }

    fn queued(a: Result<Admission, PlaceError>) -> u64 {
        match a.unwrap() {
            Admission::Queued(t) => t,
            Admission::Admitted(sub) => panic!("admitted {:?}, expected queued", sub.job),
        }
    }

    #[test]
    fn immediate_admission_when_space() {
        let mut m = Masterd::new(4, 1);
        let mut jr = JobRep::new();
        admitted(jr.submit(&mut m, JobSpec::sized("a", 4)));
        assert_eq!(jr.waiting(), 0);
        assert_eq!(jr.stats.admitted, 1);
    }

    #[test]
    fn queueing_when_matrix_full_then_admission_on_finish() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let first = admitted(jr.submit(&mut m, JobSpec::sized("a", 2)));
        // Matrix full: second waits.
        let t = queued(jr.submit(&mut m, JobSpec::sized("b", 2)));
        assert_eq!(jr.waiting(), 1);
        assert!(jr.drain(&mut m).admitted.is_empty());
        // First job finishes → space frees → b admitted.
        finish(&mut m, &first);
        let d = jr.drain(&mut m);
        assert_eq!(d.admitted.len(), 1);
        assert_eq!(d.admitted[0].0, t);
        assert_eq!(d.admitted[0].1.job, JobId(2));
        assert_eq!(jr.waiting(), 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let a = admitted(jr.submit(&mut m, JobSpec::sized("a", 2)));
        queued(jr.submit(&mut m, JobSpec::sized("b", 2)));
        // c submits while b waits: it must queue behind b even though it
        // also wouldn't fit.
        queued(jr.submit(&mut m, JobSpec::sized("c", 1)));
        assert_eq!(jr.waiting(), 2);
        finish(&mut m, &a);
        let d = jr.drain(&mut m);
        // Both fit now (b takes the slot's two nodes? no: 2-node matrix,
        // 1 slot — b takes both nodes, c must wait again).
        assert_eq!(d.admitted.len(), 1);
        assert_eq!(d.admitted[0].1.placement.nodes.len(), 2);
        assert_eq!(jr.waiting(), 1);
    }

    #[test]
    fn oversized_jobs_are_rejected_not_queued() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let res = jr.submit(&mut m, JobSpec::sized("huge", 5));
        assert!(matches!(res, Err(PlaceError::TooLarge)));
        assert_eq!(jr.waiting(), 0);
        assert_eq!(jr.stats.rejected, 1);
    }

    #[test]
    fn higher_class_served_first_fifo_within_class() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let a = admitted(jr.submit(&mut m, JobSpec::sized("a", 2)));
        let lo1 = queued(jr.submit(&mut m, JobSpec::sized("lo1", 2)));
        let hi1 = queued(jr.submit(&mut m, JobSpec::sized("hi1", 2).with_priority(2)));
        let hi2 = queued(jr.submit(&mut m, JobSpec::sized("hi2", 2).with_priority(2)));
        let lo2 = queued(jr.submit(&mut m, JobSpec::sized("lo2", 2)));
        let mut order = Vec::new();
        let mut running = a;
        while jr.waiting() > 0 {
            finish(&mut m, &running);
            let d = jr.drain(&mut m);
            assert_eq!(d.admitted.len(), 1, "one 2-wide job fits at a time");
            order.push(d.admitted[0].0);
            running = d.admitted[0].1.clone();
        }
        assert_eq!(order, vec![hi1, hi2, lo1, lo2]);
    }

    #[test]
    fn high_priority_submit_bypasses_lower_class_waiters() {
        let mut m = Masterd::new(4, 1);
        let mut jr = JobRep::new();
        // Fill 2 of 4 nodes; a 4-wide job queues; 2 nodes stay free.
        admitted(jr.submit(&mut m, JobSpec::sized("a", 2)));
        queued(jr.submit(&mut m, JobSpec::sized("wide", 4)));
        // A same-class 2-wide job must wait behind the wide one...
        queued(jr.submit(&mut m, JobSpec::sized("b", 2)));
        // ...but a higher-class job may take the free nodes now.
        admitted(jr.submit(&mut m, JobSpec::sized("urgent", 2).with_priority(1)));
        assert_eq!(jr.waiting(), 2);
    }
}
