//! Per-process simulation state: the program, the FM library instance, and
//! the operation currently in flight.

use std::collections::BTreeMap;

use fastmsg::init::InitMachine;
use fastmsg::packet::Packet;
use fastmsg::proc::FmProcess;
use gang_comm::state::SavedCommState;
use hostsim::pipe::Pipe;
use hostsim::process::Pid;
use parpar::job::JobId;
use sim_core::time::SimTime;
use workloads::program::{Op, Program};

/// Why a process cannot currently make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockReason {
    /// FM_send is spinning for credits toward this peer rank.
    Credits {
        /// The peer rank we need credits for.
        peer: usize,
    },
    /// The NIC send queue is full.
    SendSpace,
    /// Waiting for the cumulative received-message count to reach a target.
    RecvWait {
        /// The target count.
        target: u64,
    },
    /// FM_initialize is blocked reading the sync byte from the pipe.
    PipeRead,
    /// The process's NIC endpoint is being faulted in (CachedEndpoints).
    ContextFault,
}

/// Progress of a multi-fragment FM_send.
#[derive(Debug, Clone, Copy)]
pub struct SendProgress {
    /// Destination rank.
    pub dst_rank: usize,
    /// Total message bytes.
    pub bytes: u64,
    /// Next fragment index to inject.
    pub next_frag: u64,
    /// Total fragments.
    pub nfrags: u64,
}

/// Lifecycle of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcPhase {
    /// Inside FM_initialize.
    Initializing,
    /// Executing its program.
    Running,
    /// Program returned Done; `COMM_end_job` waits for the send queue to
    /// drain (and, under reliability, for every packet to be acked), then
    /// evicts the process from its node, leaving only its
    /// [`ExitRecord`](crate::node::ExitRecord).
    Finished,
}

/// One simulated application process.
pub struct ProcSim {
    /// Host-local pid.
    pub pid: Pid,
    /// Owning job.
    pub job: JobId,
    /// Rank within the job.
    pub rank: usize,
    /// Gang-matrix slot the job occupies.
    pub slot: usize,
    /// FM library state (lives in process memory; never buffer-switched).
    pub fm: FmProcess,
    /// The context's queue contents while the process is swapped out,
    /// kept in its own pageable memory (paper §1). `Some` means swapped
    /// out: the NIC holds no context for the process.
    pub saved: Option<SavedCommState<Packet>>,
    /// The application behavior.
    pub program: Box<dyn Program>,
    /// FM_initialize progress.
    pub init: InitMachine,
    /// Lifecycle phase.
    pub phase: ProcPhase,
    /// SIGSTOPped by the gang scheduler: the process starts no host work
    /// until SIGCONT clears this.
    pub stopped: bool,
    /// The in-progress message send, if any.
    pub sending: Option<SendProgress>,
    /// Why the process is blocked, if it is.
    pub blocked: Option<BlockReason>,
    /// True while a HostOpDone event is outstanding for this process.
    pub busy: bool,
    /// The noded↔process sync pipe (Fig. 2).
    pub pipe: Pipe,
    /// Refill credits owed per peer when the send queue was full at
    /// refill time, keyed by the peer's `(host, rank)` so they drain in
    /// host order; drained opportunistically.
    pub pending_refills: BTreeMap<(usize, usize), usize>,
    /// A fragment built while the endpoint was being evicted; injected as
    /// soon as the endpoint faults back in (CachedEndpoints only).
    pub deferred_pkt: Option<Packet>,
    /// Reliability layer: a RetransTimeout event is outstanding.
    pub rel_timer_armed: bool,
    /// Reliability layer: consecutive timer firings without ack progress
    /// (exponential backoff shift, capped by
    /// [`fastmsg::config::BACKOFF_CAP`]).
    pub rel_backoff: u32,
    /// Reliability layer: `rel_acked_total()` at the last timer firing —
    /// progress since then resets the backoff instead of retransmitting.
    pub rel_progress_mark: u64,
}

impl std::fmt::Debug for ProcSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcSim")
            .field("pid", &self.pid)
            .field("job", &self.job)
            .field("rank", &self.rank)
            .field("slot", &self.slot)
            .field("phase", &self.phase)
            .field("stopped", &self.stopped)
            .field("blocked", &self.blocked)
            .field("busy", &self.busy)
            .finish_non_exhaustive()
    }
}

impl ProcSim {
    /// A freshly forked process about to run FM_initialize: not stopped,
    /// blocked or busy, and holding no saved queues.
    pub fn new(
        pid: Pid,
        job: JobId,
        rank: usize,
        slot: usize,
        fm: FmProcess,
        program: Box<dyn Program>,
        init: InitMachine,
    ) -> Self {
        ProcSim {
            pid,
            job,
            rank,
            slot,
            fm,
            saved: None,
            program,
            init,
            phase: ProcPhase::Initializing,
            stopped: false,
            sending: None,
            blocked: None,
            busy: false,
            pipe: Pipe::new(),
            pending_refills: BTreeMap::new(),
            deferred_pkt: None,
            rel_timer_armed: false,
            rel_backoff: 0,
            rel_progress_mark: 0,
        }
    }

    /// Observable state handed to the program when choosing its next op.
    pub fn view(&self, now: SimTime) -> workloads::program::ProcView {
        workloads::program::ProcView {
            now,
            rank: self.rank,
            nprocs: self.fm.nprocs(),
            msgs_received: self.fm.stats.msgs_received,
            msgs_sent: self.fm.stats.msgs_sent,
        }
    }

    /// Ask the program for its next op.
    pub fn next_op(&mut self, now: SimTime) -> Op {
        let view = self.view(now);
        self.program.next_op(&view)
    }
}
