//! The application programming model.
//!
//! A [`Program`] is the behavior of one process of a parallel application:
//! a deterministic state machine that, whenever its previous operation
//! completes, is asked for the next [`Op`]. The cluster simulator executes
//! ops with FM-library timing: `Send` walks the credit/fragment path,
//! `WaitRecvMsgs` blocks until the cumulative received-message count
//! reaches a target (extraction happens while waiting), `Compute` charges
//! host CPU time.

use sim_core::time::{Cycles, SimTime};

/// One application-level operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Send a `bytes`-byte message to rank `dst` (FM_send).
    Send {
        /// Destination rank within the job.
        dst: usize,
        /// Message payload bytes.
        bytes: u64,
    },
    /// Block until the cumulative count of *fully received* messages
    /// reaches `target` (the program tracks its own arithmetic).
    WaitRecvMsgs {
        /// Cumulative message-count target.
        target: u64,
    },
    /// Compute for this long without communicating.
    Compute(Cycles),
    /// The process exits.
    Done,
}

/// What a program can observe when choosing its next op.
#[derive(Debug, Clone, Copy)]
pub struct ProcView {
    /// Current simulated time.
    pub now: SimTime,
    /// This process's rank.
    pub rank: usize,
    /// Processes in the job.
    pub nprocs: usize,
    /// Messages fully received so far.
    pub msgs_received: u64,
    /// Messages fully sent so far.
    pub msgs_sent: u64,
}

/// The behavior of one process.
pub trait Program {
    /// The next operation. Called once at start and again after each op
    /// completes. Must eventually return [`Op::Done`] unless the program is
    /// deliberately endless (stress workloads stopped by the harness).
    fn next_op(&mut self, view: &ProcView) -> Op;

    /// Workload name for traces and reports.
    fn name(&self) -> &'static str {
        "program"
    }
}

/// A parallel application: a program factory per rank.
pub trait Workload {
    /// Number of processes.
    fn nprocs(&self) -> usize;

    /// Build the program run by `rank`.
    fn program(&self, rank: usize) -> Box<dyn Program>;

    /// Workload name.
    fn name(&self) -> &'static str {
        "workload"
    }
}

/// A program that computes forever in fixed-size chunks, never
/// communicating — a CPU-bound slot filler for switch-overhead runs.
#[derive(Debug, Clone, Copy)]
pub struct SpinProgram {
    /// Chunk size per Compute op.
    pub chunk: Cycles,
}

impl Default for SpinProgram {
    fn default() -> Self {
        SpinProgram {
            chunk: Cycles::from_ms(1),
        }
    }
}

impl Program for SpinProgram {
    fn next_op(&mut self, _view: &ProcView) -> Op {
        Op::Compute(self.chunk)
    }
    fn name(&self) -> &'static str {
        "spin"
    }
}

/// Workload wrapper for a uniform program type.
pub struct Uniform<F> {
    nprocs: usize,
    name: &'static str,
    factory: F,
}

impl<F: Fn(usize) -> Box<dyn Program>> Uniform<F> {
    /// A workload whose rank `r` runs `factory(r)`.
    pub fn new(nprocs: usize, name: &'static str, factory: F) -> Self {
        Uniform {
            nprocs,
            name,
            factory,
        }
    }
}

impl<F: Fn(usize) -> Box<dyn Program>> Workload for Uniform<F> {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        (self.factory)(rank)
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> ProcView {
        ProcView {
            now: SimTime::ZERO,
            rank: 0,
            nprocs: 2,
            msgs_received: 0,
            msgs_sent: 0,
        }
    }

    #[test]
    fn spin_never_exits() {
        let mut s = SpinProgram::default();
        for _ in 0..10 {
            assert!(matches!(s.next_op(&view()), Op::Compute(_)));
        }
    }

    #[test]
    fn uniform_builds_per_rank() {
        let w = Uniform::new(4, "spins", |_r| {
            Box::new(SpinProgram::default()) as Box<dyn Program>
        });
        assert_eq!(w.nprocs(), 4);
        assert_eq!(w.name(), "spins");
        let mut p = w.program(3);
        assert!(matches!(p.next_op(&view()), Op::Compute(_)));
    }
}
