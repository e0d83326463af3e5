//! The cluster simulation's event alphabet and auxiliary event payloads.
//!
//! [`Event`] is one flat enum. Its variants are grouped by the
//! `handlers/*` module that owns them (daemon, nic, app, switch, fm), and
//! one `match` in [`crate::handlers`] routes each to its entry method.
//! Handlers schedule follow-up events straight on the engine's
//! [`Scheduler`] ([`Sched`]).

use fastmsg::packet::Packet;
use hostsim::process::Pid;
use parpar::protocol::{MasterMsg, NodedCmd, TreeMsg};
use sim_core::engine::Scheduler;

/// A frame on the Myrinet data network. (The halt and ready control
/// packets of the serial broadcasts arrive as
/// [`Event::BroadcastArrive`] instead.)
#[derive(Debug, Clone)]
pub enum Frame {
    /// An FM data or refill packet.
    Data(Packet),
    /// A per-packet acknowledgement to the packet's sender (AckDrain
    /// strategy only).
    Ack,
    /// A packet for a non-resident context was discarded; the sender's
    /// NIC returns the credit so the higher-layer retransmission the
    /// SHARE/PM baselines assume does not wedge flow control.
    DropNotify {
        /// Job whose packet was dropped.
        job: u32,
        /// Rank whose context dropped it (the packet's destination).
        drop_rank: usize,
    },
}

/// Host-CPU work item completions.
#[derive(Debug, Clone)]
pub enum HostOp {
    /// One fragment of the in-progress message was written into the NIC
    /// send queue.
    SendFragment,
    /// One packet was extracted from the receive queue.
    Extract(Packet),
    /// A Compute op finished.
    ComputeDone,
    /// An FM_initialize step finished.
    InitStep,
}

/// The discrete events driving the world, one flat alphabet routed by a
/// single `match` in [`crate::handlers`]. The variants are grouped by
/// the `handlers/*` module that owns them.
#[derive(Debug, Clone)]
pub enum Event {
    // Control plane (`handlers::daemon`): the masterd, the nodeds and their
    // timers.
    /// The masterd's quantum timer fired.
    QuantumExpired,
    /// A node's *local* scheduler timer fired (uncoordinated mode only).
    NodeTick {
        /// The node.
        node: usize,
    },
    /// The masterd's switch-protocol watchdog fired (reliability layer
    /// only): if the epoch's switch is still in flight, every node is told
    /// to re-send its protocol messages.
    SwitchRetryCheck {
        /// The epoch the watchdog was armed for.
        epoch: u64,
    },
    /// The earliest still-undelivered command of a masterd fan-out reached
    /// its noded. Its destination and contents live in the world's
    /// fan-out [train](crate::train) slab, so a fan-out keeps one pending
    /// event instead of one per node.
    CtrlToNode {
        /// Slab index of the fan-out train.
        train: u32,
    },
    /// A noded report reached the masterd.
    CtrlToMaster {
        /// The report.
        msg: MasterMsg,
    },
    /// The noded finished dispatching a command (after daemon scheduling
    /// jitter and CPU queueing).
    NodedAct {
        /// Acting node.
        node: usize,
        /// The command being executed.
        cmd: NodedCmd,
    },
    /// A combining-tree message reached a peer node (tree control plane
    /// only; never emitted under the default flat multicast).
    CtrlToPeer {
        /// Destination node.
        node: usize,
        /// The tree message.
        msg: TreeMsg,
    },
    /// A planned open-loop job arrival fired (serving mode only): the
    /// world submits arrival `index` of its installed [`parpar::ArrivalPlan`]
    /// through the jobrep.
    JobArrival {
        /// Index into the installed arrival plan.
        index: usize,
    },
    // Data plane (`handlers::nic`): the LANai send/receive engines and the
    // wire.
    /// A frame fully arrived at its destination NIC.
    FrameArrive {
        /// Destination node.
        node: usize,
        /// The frame.
        frame: Frame,
    },
    /// The NIC send engine finished injecting one data packet.
    SendEngineDone {
        /// The node.
        node: usize,
    },
    /// The NIC receive engine finished landing one data packet into the
    /// receive queue.
    RecvEngineDone {
        /// The node.
        node: usize,
        /// The landed packet.
        pkt: Packet,
    },
    /// The NIC finished its serial halt broadcast.
    HaltBroadcastDone {
        /// The node.
        node: usize,
    },
    /// The NIC finished its serial ready broadcast.
    ReadyBroadcastDone {
        /// The node.
        node: usize,
    },
    /// The earliest still-undelivered halt or ready packet of a serial
    /// broadcast arrived. Its destination and contents live in the world's
    /// broadcast [train](crate::train) slab, so a broadcast keeps one
    /// pending event instead of one per peer.
    BroadcastArrive {
        /// Slab index of the broadcast train.
        train: u32,
    },
    // Processes (`handlers::app`): scheduling and host-CPU work items.
    /// Try to advance a process's program (it was unblocked or resumed).
    ProcKick {
        /// The node.
        node: usize,
        /// The process.
        pid: Pid,
    },
    /// A host-CPU work item for a process completed.
    HostOpDone {
        /// The node.
        node: usize,
        /// The process.
        pid: Pid,
        /// What completed.
        op: HostOp,
    },
    // Gang switch (`handlers::switch`): the three-phase buffer switch.
    /// The buffer-switch copy completed on a node.
    CopyDone {
        /// The node.
        node: usize,
    },
    // FM library (`handlers::fm`): endpoint residency, go-back-N timers and
    // demand windows.
    /// An endpoint fault (save victim + restore faulted endpoint)
    /// completed on a node.
    FaultDone {
        /// The node.
        node: usize,
        /// The job whose endpoint was faulted in.
        job: u32,
    },
    /// A process's go-back-N retransmit timer fired (reliability layer
    /// only).
    RetransTimeout {
        /// The node.
        node: usize,
        /// The process whose timer fired.
        pid: Pid,
    },
    /// Periodic demand-window rebalance on a node (`BufferPolicy::Demand`
    /// only): every resident process folds its observed traffic into the
    /// EWMA and reschedules credit-window moves.
    DemandRebalance {
        /// The node.
        node: usize,
    },
}

/// The engine's pending-event queue, on which handlers schedule their
/// follow-up events directly.
pub type Sched = Scheduler<Event>;

/// Stable event-kind names for the engine's dispatch counters and run
/// digest, indexed by [`Event::kind_index`].
///
/// The indices are part of the run-digest contract: reordering them (or the
/// match below) silently changes every digest, so determinism tests can no
/// longer compare against recorded values. Append, don't reorder.
pub const KIND_NAMES: &[&str] = &[
    "quantum_expired",
    "node_tick",
    "ctrl_to_node",
    "ctrl_to_master",
    "noded_act",
    "frame_arrive",
    "send_engine_done",
    "recv_engine_done",
    "halt_bcast_done",
    "ready_bcast_done",
    "proc_kick",
    "host_op_done",
    "copy_done",
    "fault_done",
    "retrans_timeout",
    "switch_retry_check",
    "demand_rebalance",
    "ctrl_to_peer",
    "job_arrival",
];

impl Event {
    /// The event's stable kind index into [`KIND_NAMES`].
    pub fn kind_index(&self) -> usize {
        match self {
            Event::QuantumExpired => 0,
            Event::NodeTick { .. } => 1,
            Event::CtrlToNode { .. } => 2,
            Event::CtrlToMaster { .. } => 3,
            Event::NodedAct { .. } => 4,
            // A train entry is one frame arrival, so it counts (and
            // digests) as one.
            Event::FrameArrive { .. } | Event::BroadcastArrive { .. } => 5,
            Event::SendEngineDone { .. } => 6,
            Event::RecvEngineDone { .. } => 7,
            Event::HaltBroadcastDone { .. } => 8,
            Event::ReadyBroadcastDone { .. } => 9,
            Event::ProcKick { .. } => 10,
            Event::HostOpDone { .. } => 11,
            Event::CopyDone { .. } => 12,
            Event::FaultDone { .. } => 13,
            Event::RetransTimeout { .. } => 14,
            Event::SwitchRetryCheck { .. } => 15,
            Event::DemandRebalance { .. } => 16,
            Event::CtrlToPeer { .. } => 17,
            Event::JobArrival { .. } => 18,
        }
    }
}
