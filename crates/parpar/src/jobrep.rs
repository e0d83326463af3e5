//! The job representative (paper §2.1): "when a user wishes to run a
//! parallel application he contacts the masterd using a third program
//! called the job representative, jobrep, which negotiates the loading of
//! the application with the masterd."
//!
//! This module provides the negotiation queue: submissions that do not fit
//! the gang matrix wait in one FIFO and are admitted, in submission order,
//! as earlier jobs finish and free their slots. Each submission carries a
//! caller-defined payload `P` (the programs to dispatch, the submit time)
//! that comes back with its admission.

use std::collections::VecDeque;

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
pub enum Admission<P> {
    /// The matrix had room: the job is placed now, and its payload comes
    /// straight back.
    Admitted(Submitted, P),
    /// No room (or an earlier job is already waiting): the job and its
    /// payload wait at the back of the queue.
    Queued,
}

/// The jobrep's FIFO negotiation queue, each waiting job paired with its
/// payload.
#[derive(Debug, Clone)]
pub struct JobRep<P> {
    queue: VecDeque<(JobSpec, P)>,
    /// Counters.
    pub stats: JobRepStats,
}

impl<P> Default for JobRep<P> {
    fn default() -> Self {
        JobRep {
            queue: VecDeque::new(),
            stats: JobRepStats::default(),
        }
    }
}

impl<P> JobRep<P> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Jobs waiting for space.
    pub fn waiting(&self) -> usize {
        self.queue.len()
    }

    /// Submit a job: admitted immediately if the matrix has room and no
    /// job is waiting, queued with `payload` otherwise. `Err` if the job
    /// can never fit.
    pub fn submit(
        &mut self,
        master: &mut Masterd,
        spec: JobSpec,
        payload: P,
    ) -> Result<Admission<P>, PlaceError> {
        self.stats.submitted += 1;
        if spec.nprocs == 0 || spec.nprocs > master.matrix().nodes() {
            self.stats.rejected += 1;
            return Err(PlaceError::TooLarge);
        }
        // Fairness: earlier waiters go first.
        if !self.queue.is_empty() {
            self.queue.push_back((spec, payload));
            return Ok(Admission::Queued);
        }
        match master.submit(spec.clone()) {
            Ok(sub) => {
                self.stats.admitted += 1;
                Ok(Admission::Admitted(sub, payload))
            }
            Err(PlaceError::NoSlot) | Err(PlaceError::PinnedBusy) => {
                self.queue.push_back((spec, payload));
                Ok(Admission::Queued)
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Try to admit queued jobs (call when a job finishes and frees
    /// matrix space), each with its payload, in submission order. The
    /// head is admitted repeatedly until it no longer fits; a head that
    /// does not fit stops the pass (no backfill: a wide job is never
    /// starved by narrow ones behind it).
    pub fn drain(&mut self, master: &mut Masterd) -> Vec<(Submitted, P)> {
        let mut out = Vec::new();
        while let Some((spec, _)) = self.queue.front() {
            match master.submit(spec.clone()) {
                Ok(sub) => {
                    let (_, payload) = self.queue.pop_front().expect("head exists");
                    self.stats.admitted += 1;
                    out.push((sub, payload));
                }
                Err(PlaceError::NoSlot) | Err(PlaceError::PinnedBusy) => break,
                // Job ids are fresh and `submit` already checked the size,
                // so nothing else can fail.
                Err(e) => panic!("queued job {:?} failed admission: {e:?}", spec.name),
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

    fn admitted<P>(a: Result<Admission<P>, PlaceError>) -> Submitted {
        match a.unwrap() {
            Admission::Admitted(sub, _) => sub,
            Admission::Queued => panic!("queued, expected admission"),
        }
    }

    fn queued<P>(a: Result<Admission<P>, PlaceError>) {
        if let Admission::Admitted(sub, _) = a.unwrap() {
            panic!("admitted {:?}, expected queued", sub.job);
        }
    }

    #[test]
    fn immediate_admission_when_space() {
        let mut m = Masterd::new(4, 1);
        let mut jr = JobRep::new();
        match jr.submit(&mut m, JobSpec::sized("a", 4), 'a').unwrap() {
            Admission::Admitted(_, payload) => assert_eq!(payload, 'a'),
            Admission::Queued => panic!("queued, expected admission"),
        }
        assert_eq!(jr.waiting(), 0);
        assert_eq!(jr.stats.admitted, 1);
    }

    #[test]
    fn queueing_when_matrix_full_then_admission_on_finish() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let first = admitted(jr.submit(&mut m, JobSpec::sized("a", 2), "a"));
        // Matrix full: second waits.
        queued(jr.submit(&mut m, JobSpec::sized("b", 2), "b"));
        assert_eq!(jr.waiting(), 1);
        assert!(jr.drain(&mut m).is_empty());
        // First job finishes → space frees → b admitted.
        finish(&mut m, &first);
        let d = jr.drain(&mut m);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.job, JobId(2));
        assert_eq!(d[0].1, "b");
        assert_eq!(jr.waiting(), 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let a = admitted(jr.submit(&mut m, JobSpec::sized("a", 2), ()));
        queued(jr.submit(&mut m, JobSpec::sized("b", 2), ()));
        // c submits while b waits: it must queue behind b even though it
        // also wouldn't fit.
        queued(jr.submit(&mut m, JobSpec::sized("c", 1), ()));
        assert_eq!(jr.waiting(), 2);
        finish(&mut m, &a);
        let d = jr.drain(&mut m);
        // 2-node matrix, 1 slot: b takes both nodes, c must wait again.
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0.placement.nodes.len(), 2);
        assert_eq!(jr.waiting(), 1);
    }

    #[test]
    fn payloads_come_back_with_their_specs_in_submission_order() {
        // 4 nodes, 1 slot: a 4-wide job fills the matrix; four 1-wide
        // jobs queue behind it, then a 4-wide one that cannot fit beside
        // them.
        let mut m = Masterd::new(4, 1);
        let mut jr = JobRep::new();
        let wide = admitted(jr.submit(&mut m, JobSpec::sized("wide", 4), 0));
        for p in 1..=4 {
            queued(jr.submit(&mut m, JobSpec::sized("narrow", 1), p));
        }
        queued(jr.submit(&mut m, JobSpec::sized("wide2", 4), 5));
        finish(&mut m, &wide);
        let d = jr.drain(&mut m);
        let payloads: Vec<i32> = d.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![1, 2, 3, 4]);
        let ids: Vec<JobId> = d.iter().map(|(sub, _)| sub.job).collect();
        assert_eq!(ids, vec![JobId(2), JobId(3), JobId(4), JobId(5)]);
        assert!(d.iter().all(|(sub, _)| sub.placement.nodes.len() == 1));
        assert_eq!(jr.waiting(), 1, "wide2 waits for the narrow jobs");
        for (sub, _) in &d {
            finish(&mut m, sub);
        }
        let d = jr.drain(&mut m);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].0.job, d[0].1), (JobId(6), 5));
    }

    #[test]
    fn oversized_jobs_are_rejected_not_queued() {
        let mut m = Masterd::new(2, 1);
        let mut jr = JobRep::new();
        let res = jr.submit(&mut m, JobSpec::sized("huge", 5), ());
        assert!(matches!(res, Err(PlaceError::TooLarge)));
        assert_eq!(jr.waiting(), 0);
        assert_eq!(jr.stats.rejected, 1);
    }
}
