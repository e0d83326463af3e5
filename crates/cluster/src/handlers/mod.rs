//! Subsystem event handlers behind the typed event bus.
//!
//! The [`crate::world::World`] dispatcher does no work of its own: each
//! [`crate::event::Event`] group routes to one handler trait —
//!
//! | sub-enum                      | trait             | module     |
//! |-------------------------------|-------------------|------------|
//! | [`crate::event::DaemonEvent`] | [`DaemonHandler`] | [`daemon`] |
//! | [`crate::event::NicEvent`]    | [`NicHandler`]    | [`nic`]    |
//! | [`crate::event::AppEvent`]    | [`AppHandler`]    | [`app`]    |
//! | [`crate::event::SwitchEvent`] | [`SwitchHandler`] | [`switch`] |
//! | [`crate::event::FmEvent`]     | [`FmHandler`]     | [`fm`]     |
//!
//! Each module is a self-contained state machine: it owns its event
//! group's handling plus the entry points other subsystems may call,
//! which are exactly the methods on its trait. Cross-subsystem calls go
//! through these traits, and shared state is reached through the
//! [`WorldState`] accessors, so a handler's dependencies are visible in
//! its `use` list instead of being implicit in a shared `impl World`.

pub mod app;
pub mod daemon;
pub mod fm;
pub mod nic;
pub mod switch;

use fastmsg::division::BufferPolicy;
use fastmsg::packet::Packet;
use hostsim::process::Pid;
use parpar::job::JobId;
use sim_core::time::{Cycles, SimTime};

use crate::bus::Bus;
use crate::config::ClusterConfig;
use crate::event::{AppEvent, DaemonEvent, FmEvent, NicEvent, SwitchEvent};
use crate::node::NodeSim;

/// Accessor view of the shared world state, implemented by
/// [`crate::world::World`]. Handler traits build their default methods on
/// these accessors instead of on `World`'s concrete layout.
pub trait WorldState {
    /// The immutable run configuration.
    fn cfg(&self) -> &ClusterConfig;
    /// A node, immutably.
    fn node(&self, id: usize) -> &NodeSim;
    /// A node, mutably.
    fn node_mut(&mut self, id: usize) -> &mut NodeSim;
}

/// Control plane: quantum rotation, daemon message delivery, job loading
/// (paper Fig. 2), and the switch kickoff.
pub trait DaemonHandler {
    /// Dispatch one control-plane event.
    fn on_daemon(&mut self, now: SimTime, ev: DaemonEvent, bus: &mut Bus);

    /// Dynamic coscheduling: deschedule whoever runs and schedule the
    /// process an incoming message is destined to (related work \[12\]).
    /// Called by the NIC handler on message arrival.
    fn dynamic_cosched_preempt(&mut self, now: SimTime, node: usize, pid: Pid, bus: &mut Bus);
}

/// Host-side process execution: FM_initialize, FM_send fragmentation,
/// FM_extract, compute, and program completion.
pub trait AppHandler: WorldState {
    /// Dispatch one application event.
    fn on_app(&mut self, now: SimTime, ev: AppEvent, bus: &mut Bus);

    /// Advance a process as far as it can go right now. Called by every
    /// other handler when it may have unblocked a process.
    fn proc_kick(&mut self, now: SimTime, node: usize, pid: Pid, bus: &mut Bus);

    /// Complete `COMM_end_job` once the context's send queue is empty.
    /// Called by the NIC handler as the send engine drains.
    fn try_end_job(&mut self, now: SimTime, node: usize, pid: Pid, bus: &mut Bus);

    /// Retry deferred refills once send-queue space frees up. Called by
    /// the NIC and FM handlers.
    fn drain_pending_refills(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Find the pid of the process of `job` on `node`, if any.
    fn find_proc_by_job(&self, node: usize, job: u32) -> Option<Pid> {
        self.node(node)
            .apps
            .iter()
            .find(|(_, p)| p.fm.job == job)
            .map(|(pid, _)| *pid)
    }
}

/// The data plane: the LANai send/receive engines, frame arrival, and the
/// halt/ready serial broadcasts.
pub trait NicHandler {
    /// Dispatch one data-plane event.
    fn on_nic(&mut self, now: SimTime, ev: NicEvent, bus: &mut Bus);

    /// Let the send engine pick up work if it is idle. Called whenever a
    /// handler enqueues into a send queue or clears the halt bit.
    fn kick_send_engine(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Start the serial halt broadcast (`COMM_halt_network` reached a
    /// packet boundary with the halt bit set).
    fn begin_halt_broadcast(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Start the serial ready broadcast (release phase).
    fn begin_ready_broadcast(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Land one packet (receive-engine completion). Also the re-entry
    /// point for parked packets the FM handler delivers after a fault.
    fn land_packet(&mut self, now: SimTime, node: usize, pkt: Packet, bus: &mut Bus);
}

/// The three-phase gang context switch (paper §3.2) and the §5 baseline
/// strategies.
pub trait SwitchHandler {
    /// Dispatch one switch event.
    fn on_switch(&mut self, now: SimTime, ev: SwitchEvent, bus: &mut Bus);

    /// The noded received SwitchSlot: run the strategy's switch sequence.
    #[allow(clippy::too_many_arguments)]
    fn start_switch(
        &mut self,
        now: SimTime,
        node: usize,
        epoch: u64,
        from: usize,
        to: usize,
        bus: &mut Bus,
    );

    /// AckDrain: if the send engine is quiet and nothing is outstanding,
    /// the drain phase is over. Called by the NIC handler per ack.
    fn alt_drain_maybe_done(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// The flush completed on this node: begin the buffer switch. Called
    /// by the NIC handler when the last halt message is counted.
    fn finish_flush(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Release protocol complete: restart communication and resume the
    /// incoming process. Called by the NIC handler when the last ready
    /// message is counted.
    fn finish_release(&mut self, now: SimTime, node: usize, bus: &mut Bus);

    /// Occupancy-dependent buffer-switch cost; also records the Fig. 8
    /// queue sample for the outgoing context. Used by `COMM_context_switch`.
    fn copy_cost_for(&mut self, node: usize, from: usize, to: usize) -> Cycles;
}

/// Virtual-networks endpoint residency (paper §5): faults, eviction, and
/// the parking area.
pub trait FmHandler: WorldState + AppHandler {
    /// Dispatch one endpoint-residency event.
    fn on_fm(&mut self, now: SimTime, ev: FmEvent, bus: &mut Bus);

    /// Is the virtual-networks residency policy active?
    fn vn_active(&self) -> bool {
        self.cfg().fm.policy == BufferPolicy::CachedEndpoints
    }

    /// Note activity on `job`'s endpoint (for LRU eviction).
    fn vn_touch(&mut self, now: SimTime, node: usize, job: u32) {
        if self.vn_active() {
            self.node_mut(node).lru.insert(job, now);
        }
    }

    /// Request that `job`'s endpoint become resident on `node`.
    /// Idempotent; queues behind an in-progress fault.
    fn begin_fault(&mut self, now: SimTime, node: usize, job: u32, bus: &mut Bus);

    /// An arrival found no resident endpoint under VN caching: park it
    /// and raise a fault, or overflow into a drop-notify.
    fn vn_park_arrival(&mut self, now: SimTime, node: usize, pkt: Packet, bus: &mut Bus);
}

/// Slot/job lookups every handler needs, on top of [`WorldState`].
pub trait SlotView: WorldState {
    /// The pid of the process occupying `slot` on `node`, if any.
    fn app_in_slot(&self, node: usize, slot: usize) -> Option<Pid> {
        self.node(node).app_in_slot(slot)
    }

    /// The (slot, pid) of `job` on `node`, if loaded.
    fn noded_lookup(&self, node: usize, job: JobId) -> Option<(usize, Pid)> {
        let n = self.node(node);
        let slot = n.noded.slot_of(job)?;
        let (_, pid) = n.noded.in_slot(slot)?;
        Some((slot, pid))
    }
}

impl<T: WorldState> SlotView for T {}
