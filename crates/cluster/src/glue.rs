//! glueFM — the implementation of the paper's Table-1 network-management
//! API for the simulated ParPar/FM stack.
//!
//! "A new library which we call 'glueFM' that is linked with the noded …
//! provides the functionality that was originally contained in the CM,
//! and the new functions that we have defined (e.g. for context
//! switching)" (paper §3.2).
//!
//! The `comm_*` methods on [`World`] are the real implementation — the
//! noded event handlers call them at exactly the protocol points the
//! paper specifies. [`GlueFm`] packages them per node as an object
//! implementing the abstract [`CommManager`] trait, so external drivers
//! (tests, examples, a different cluster manager) can speak the Table-1
//! interface directly.

use fastmsg::division::BufferPolicy;
use gang_comm::api::{CommError, CommJob, CommManager};
use gang_comm::sequencer::SwitchPhase;
use sim_core::time::SimTime;

use crate::event::{Event, Sched};
use crate::world::World;

impl World {
    /// `COMM_init_node` — load the control program into the LANai and
    /// initialize contexts and routing. Called for every node during
    /// construction; calling it again is idempotent.
    pub fn comm_init_node(&mut self, _now: SimTime, node: usize) -> Result<(), CommError> {
        let n = self.nodes.get_mut(node).ok_or(CommError::UnknownNode)?;
        n.nic_initialized = true;
        Ok(())
    }

    /// `COMM_add_node` — bring a node (back) into service. Membership
    /// bookkeeping: jobs can only be placed on in-service nodes.
    pub fn comm_add_node(&mut self, _now: SimTime, node: usize) -> Result<(), CommError> {
        let n = self.nodes.get_mut(node).ok_or(CommError::UnknownNode)?;
        if n.in_service {
            return Err(CommError::BadPhase);
        }
        n.in_service = true;
        Ok(())
    }

    /// `COMM_remove_node` — take a node out of service. Refused while the
    /// node still hosts communication contexts or processes.
    pub fn comm_remove_node(&mut self, _now: SimTime, node: usize) -> Result<(), CommError> {
        let n = self.nodes.get_mut(node).ok_or(CommError::UnknownNode)?;
        if !n.in_service {
            return Err(CommError::BadPhase);
        }
        if n.nic.resident_contexts().next().is_some() || !n.apps.is_empty() {
            return Err(CommError::NoResources);
        }
        n.in_service = false;
        Ok(())
    }

    /// `COMM_init_job` — allocate a communication context for (job, rank)
    /// so the LANai can already receive, *before* the process is forked
    /// (paper §3.2 / Fig. 2). Under the buffer-switching scheme a job
    /// loaded into an inactive slot starts life swapped out instead;
    /// returns whether the context is NIC-resident.
    pub fn comm_init_job(
        &mut self,
        _now: SimTime,
        node: usize,
        job: u32,
        rank: usize,
        slot: usize,
    ) -> Result<bool, CommError> {
        let geo = self.cfg.fm.geometry();
        let n = self.nodes.get_mut(node).ok_or(CommError::UnknownNode)?;
        assert!(n.nic_initialized, "COMM_init_job before COMM_init_node");
        let resident = match self.cfg.fm.policy {
            // Both always-resident splits: static gets the paper's n²
            // division, Demand the same queue split with movable credit
            // windows on top.
            BufferPolicy::StaticDivision | BufferPolicy::Demand => true,
            BufferPolicy::FullBuffer => slot == n.current_slot,
            // VN caching: resident while cache slots remain; later jobs
            // start swapped out and fault in on first use.
            BufferPolicy::CachedEndpoints => n
                .nic
                .alloc_context(job, rank, geo.send_slots, geo.recv_slots)
                .is_ok(),
        };
        if resident && self.cfg.fm.policy != BufferPolicy::CachedEndpoints {
            n.nic
                .alloc_context(job, rank, geo.send_slots, geo.recv_slots)
                .map_err(|_| CommError::NoResources)?;
        }
        Ok(resident)
    }

    /// `COMM_end_job` — release the job's context (or, if the process is
    /// swapped out, its saved queues) and clean up.
    pub fn comm_end_job(
        &mut self,
        _now: SimTime,
        node: usize,
        job: u32,
        pid: hostsim::process::Pid,
    ) -> Result<(), CommError> {
        let n = self.nodes.get_mut(node).ok_or(CommError::UnknownNode)?;
        if let Some(ctx_id) = n.nic.find_context(job) {
            n.nic.free_context(ctx_id);
            Ok(())
        } else if n.apps.get_mut(&pid).and_then(|p| p.saved.take()).is_some() {
            Ok(())
        } else {
            Err(CommError::UnknownJob)
        }
    }

    /// `COMM_halt_network` — "stop sending and perform global network
    /// flush protocol". Sets the halt bit; the LANai broadcasts its halt
    /// message at the next packet boundary (immediately if idle).
    pub fn comm_halt_network(
        &mut self,
        now: SimTime,
        node: usize,
        sched: &mut Sched,
    ) -> Result<(), CommError> {
        let n = &mut self.nodes[node];
        if n.seq.phase() != SwitchPhase::Halting {
            return Err(CommError::BadPhase);
        }
        n.halt_requested = true;
        n.halt_broadcast_started = false;
        n.nic.set_halt_bit(true);
        if !n.send_engine_busy {
            self.begin_halt_broadcast(now, node, sched);
        }
        Ok(())
    }

    /// `COMM_context_switch` — "swap buffers": schedule the copy of the
    /// outgoing context's queues into its process's pageable memory and
    /// the incoming context's back (Fig. 4), with strategy-dependent cost.
    ///
    /// `from_job` / `to_job`, when given, name the jobs the caller believes
    /// occupy the outgoing and incoming slots; a mismatch against the
    /// node's live processes is refused with [`CommError::UnknownJob`] before
    /// any copy is scheduled. `None` skips the check (the internal switch
    /// sequencer already knows its slots).
    pub fn comm_context_switch(
        &mut self,
        now: SimTime,
        node: usize,
        from_job: Option<CommJob>,
        to_job: Option<CommJob>,
        sched: &mut Sched,
    ) -> Result<(), CommError> {
        if self.nodes[node].seq.phase() != SwitchPhase::Copying {
            return Err(CommError::BadPhase);
        }
        let (from, to) = {
            let s = &self.nodes[node].seq;
            (s.from_slot, s.to_slot)
        };
        for (claimed, slot) in [(from_job, from), (to_job, to)] {
            if let Some(job) = claimed {
                let occupant = self.nodes[node].apps.in_slot(slot).map(|p| p.job.0);
                if occupant != Some(job) {
                    return Err(CommError::UnknownJob);
                }
            }
        }
        let cost = self.copy_cost_for(node, from, to);
        let r = self.nodes[node].cpu.reserve(now, cost);
        sched.at(r.end, Event::CopyDone { node });
        Ok(())
    }

    /// `COMM_release_network` — "synchronize and restart sending": the
    /// ready-broadcast protocol; communication resumes when every node's
    /// ready has been counted.
    pub fn comm_release_network(
        &mut self,
        now: SimTime,
        node: usize,
        sched: &mut Sched,
    ) -> Result<(), CommError> {
        if self.nodes[node].seq.phase() != SwitchPhase::Releasing {
            return Err(CommError::BadPhase);
        }
        self.begin_ready_broadcast(now, node, sched);
        Ok(())
    }
}

/// A per-node handle implementing the abstract [`CommManager`] interface
/// on top of the simulated world — what a different cluster-management
/// system would program against. Its Table-1 calls schedule their
/// follow-up events on the borrowed engine scheduler.
pub struct GlueFm<'a> {
    world: &'a mut World,
    sched: &'a mut Sched,
    node: usize,
}

impl<'a> GlueFm<'a> {
    /// A handle for `node`.
    pub fn new(world: &'a mut World, sched: &'a mut Sched, node: usize) -> Self {
        GlueFm { world, sched, node }
    }
}

impl CommManager for GlueFm<'_> {
    fn init_node(&mut self, now: SimTime) -> Result<(), CommError> {
        self.world.comm_init_node(now, self.node)
    }

    fn add_node(&mut self, now: SimTime, node: usize) -> Result<(), CommError> {
        self.world.comm_add_node(now, node)
    }

    fn remove_node(&mut self, now: SimTime, node: usize) -> Result<(), CommError> {
        self.world.comm_remove_node(now, node)
    }

    fn init_job(&mut self, now: SimTime, job: CommJob, rank: usize) -> Result<bool, CommError> {
        // Through the abstract interface the slot is not known yet; the
        // context is made resident (active-slot semantics).
        let slot = self.world.nodes[self.node].current_slot;
        self.world.comm_init_job(now, self.node, job, rank, slot)
    }

    fn end_job(&mut self, now: SimTime, job: CommJob) -> Result<(), CommError> {
        let pid = self.world.nodes[self.node]
            .find_proc_by_job(job)
            .ok_or(CommError::UnknownJob)?;
        self.world.comm_end_job(now, self.node, job, pid)
    }

    fn halt_network(&mut self, now: SimTime) -> Result<(), CommError> {
        self.world.comm_halt_network(now, self.node, self.sched)
    }

    fn context_switch(
        &mut self,
        now: SimTime,
        from: Option<CommJob>,
        to: Option<CommJob>,
    ) -> Result<(), CommError> {
        self.world
            .comm_context_switch(now, self.node, from, to, self.sched)
    }

    fn release_network(&mut self, now: SimTime) -> Result<(), CommError> {
        self.world.comm_release_network(now, self.node, self.sched)
    }
}
