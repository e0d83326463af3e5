//! Subsystem event handlers and the one `match` that routes every event.
//!
//! The [`crate::world::World`] does no work of its own in dispatch: the
//! `impl Model for World` below sends each [`Event`] variant to the entry
//! method of the module that owns its group, and each module is a plain
//! `impl World` block —
//!
//! | event group                    | module     |
//! |--------------------------------|------------|
//! | control plane (masterd, noded) | [`daemon`] |
//! | data plane (LANai, wire)       | [`nic`]    |
//! | processes, host-CPU work       | [`app`]    |
//! | gang switch                    | [`switch`] |
//! | FM endpoints and timers        | [`fm`]     |
//!
//! Entry methods are `pub(super)`, the methods other modules call are
//! `pub(crate)`, and the rest are a module's own state machine. Every
//! handler schedules its follow-up events directly on the engine's
//! [`Sched`].

use sim_core::engine::Model;
use sim_core::time::SimTime;

use crate::event::{Event, Sched};
use crate::world::World;

pub mod app;
pub mod daemon;
pub mod fm;
pub mod nic;
pub mod switch;

impl Model for World {
    type Event = Event;

    /// Route one event to its handler's entry method.
    fn handle(&mut self, now: SimTime, event: Event, sched: &mut Sched) {
        match event {
            Event::QuantumExpired => self.on_quantum_expired(now, sched),
            Event::NodeTick { node } => self.on_node_tick(now, node, sched),
            Event::SwitchRetryCheck { epoch } => self.on_switch_retry_check(now, epoch, sched),
            Event::CtrlToNode { train } => self.on_ctrl_to_node(now, train, sched),
            Event::CtrlToMaster { msg } => self.on_ctrl_to_master(now, msg, sched),
            Event::NodedAct { node, cmd } => self.on_noded_act(now, node, cmd, sched),
            Event::CtrlToPeer { node, msg } => self.on_ctrl_to_peer(now, node, msg, sched),
            Event::JobArrival { index } => self.on_job_arrival(now, index, sched),
            Event::FrameArrive { node, frame } => self.on_frame_arrive(now, node, frame, sched),
            Event::SendEngineDone { node } => self.on_send_engine_done(now, node, sched),
            Event::RecvEngineDone { node, pkt } => self.land_packet(now, node, pkt, sched),
            Event::HaltBroadcastDone { node } => self.on_halt_broadcast_done(now, node, sched),
            Event::ReadyBroadcastDone { node } => self.on_ready_broadcast_done(now, node, sched),
            Event::BroadcastArrive { train } => self.on_broadcast_arrive(now, train, sched),
            Event::ProcKick { node, pid } => self.proc_kick(now, node, pid, sched),
            Event::HostOpDone { node, pid, op } => self.on_host_op_done(now, node, pid, op, sched),
            Event::CopyDone { node } => self.on_copy_done(now, node, sched),
            Event::FaultDone { node, job } => self.on_fault_done(now, node, job, sched),
            Event::RetransTimeout { node, pid } => self.on_retrans_timeout(now, node, pid, sched),
            Event::DemandRebalance { node } => self.on_demand_rebalance(now, node, sched),
        }
    }
}
