//! Control-plane messages between the ParPar daemons (paper §2.1, Fig. 2).

use std::rc::Rc;

use crate::job::JobId;

/// Commands the masterd sends to nodeds over the control network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodedCmd {
    /// Load one process of a job: allocate its communication context
    /// (COMM_init_job), set up the environment, fork.
    LoadJob {
        /// The job.
        job: JobId,
        /// Rank of the process this node hosts.
        rank: usize,
        /// Full rank → node placement (becomes FM environment data). One
        /// allocation per submit, shared by every node's command.
        placement: Rc<[usize]>,
        /// Row of the gang matrix the job lives in.
        slot: usize,
    },
    /// Every process of the job is up: write the sync byte on the pipe.
    AllUp {
        /// The job.
        job: JobId,
    },
    /// Rotate to another time slot (the three-phase context switch).
    SwitchSlot {
        /// Monotone switch epoch, for cross-checking protocol messages.
        epoch: u64,
        /// Slot being descheduled.
        from: usize,
        /// Slot being scheduled.
        to: usize,
    },
    /// Reliability layer: the masterd's switch watchdog suspects a lost
    /// halt/ready packet — re-send whatever protocol messages this node
    /// already emitted for the epoch (idempotent at every receiver).
    ResendProtocol {
        /// The switch epoch still in flight.
        epoch: u64,
    },
}

/// Control messages the tree control plane passes between *nodes*
/// (parent ↔ child in the combining tree); the master only ever talks to
/// the tree root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeMsg {
    /// Downward: deliver this command locally and forward it to the
    /// subtree, each hop serializing on its own control link.
    Bcast(NodedCmd),
    /// Upward: a child's subtree reports completions, as a count.
    Ack(MasterMsg),
}

/// Reports the nodeds send back to the masterd. Completions travel as
/// counts: on the flat and serial planes each node reports a count of 1;
/// on the tree plane the root reports one subtotal for the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MasterMsg {
    /// The forked process exists and its context is ready to receive.
    ProcStarted {
        /// The job.
        job: JobId,
    },
    /// `count` nodes completed all three phases of switch `epoch`.
    SwitchDone {
        /// The switch epoch.
        epoch: u64,
        /// Nodes covered.
        count: usize,
    },
    /// `count` of the job's processes exited.
    JobFinished {
        /// The job.
        job: JobId,
        /// Exited processes covered.
        count: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_comparable() {
        let a = MasterMsg::SwitchDone { epoch: 1, count: 2 };
        assert_eq!(a, MasterMsg::SwitchDone { epoch: 1, count: 2 });
        assert_ne!(a, MasterMsg::SwitchDone { epoch: 1, count: 1 });
        let c = NodedCmd::AllUp { job: JobId(1) };
        assert_ne!(c, NodedCmd::AllUp { job: JobId(2) });
    }
}
