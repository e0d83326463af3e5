//! Per-node composite state: host, NIC, daemon, processes.

use std::collections::VecDeque;

use fastmsg::packet::Packet;
use fastmsg::proc::ProcStats;
use gang_comm::sequencer::SwitchSequencer;
use gang_comm::state::SavedCommState;
use hostsim::cpu::HostCpu;
use hostsim::process::Pid;
use lanai::nic::{CtxId, Nic};
use parpar::job::JobId;

use crate::procsim::ProcSim;

/// The node's live processes, flat and sorted by [`ProcSim::pid`].
///
/// A node hosts one process per gang slot, and `COMM_end_job` evicts a
/// process at teardown, so this holds at most `cfg.slots` entries — one or
/// two in every configuration the paper studies. The hot handlers
/// (`proc_kick`, `HostOpDone`, packet landing) do several lookups per
/// event; a short sorted `Vec` keeps them inside one cache line, and
/// iteration is in ascending pid order, so determinism is unaffected.
#[derive(Default)]
pub struct AppMap {
    procs: Vec<ProcSim>,
}

impl AppMap {
    /// The process with id `pid`, if live.
    #[inline]
    pub fn get(&self, pid: &Pid) -> Option<&ProcSim> {
        self.procs.iter().find(|p| p.pid == *pid)
    }

    /// Mutable access to the process with id `pid`, if live.
    #[inline]
    pub fn get_mut(&mut self, pid: &Pid) -> Option<&mut ProcSim> {
        self.procs.iter_mut().find(|p| p.pid == *pid)
    }

    /// Make a freshly forked `proc` live. Pids are forked in ascending
    /// order, so it sorts last. Panics if another live process already
    /// serves `proc.slot` — the masterd's matrix makes that impossible.
    pub fn insert(&mut self, proc: ProcSim) {
        debug_assert!(self.procs.last().is_none_or(|p| p.pid < proc.pid));
        if let Some(p) = self.in_slot(proc.slot) {
            panic!(
                "slot {} double-booked by {} and {}",
                p.slot, p.pid, proc.pid
            );
        }
        self.procs.push(proc);
    }

    /// The live process serving gang slot `slot`, if any.
    #[inline]
    pub fn in_slot(&self, slot: usize) -> Option<&ProcSim> {
        self.procs.iter().find(|p| p.slot == slot)
    }

    /// The occupied slot that follows `cur` in round-robin order: the
    /// first occupied slot above it, else the lowest occupied slot.
    pub fn next_slot(&self, cur: usize) -> Option<usize> {
        let slots = self.procs.iter().map(|p| p.slot);
        slots
            .clone()
            .filter(|&s| s > cur)
            .min()
            .or_else(|| slots.min())
    }

    /// Evict the process with id `pid`, if live.
    pub fn remove(&mut self, pid: &Pid) -> Option<ProcSim> {
        let i = self.procs.iter().position(|p| p.pid == *pid)?;
        Some(self.procs.remove(i))
    }

    /// Live processes in ascending pid order.
    pub fn values(&self) -> impl Iterator<Item = &ProcSim> {
        self.procs.iter()
    }

    /// Mutable iteration in ascending pid order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut ProcSim> {
        self.procs.iter_mut()
    }

    /// Number of live processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Is no process live?
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }
}

impl std::ops::Index<&Pid> for AppMap {
    type Output = ProcSim;
    fn index(&self, pid: &Pid) -> &ProcSim {
        self.get(pid)
            .unwrap_or_else(|| panic!("no process with pid {}", pid.0))
    }
}

/// What a torn-down process leaves on its node: who it was and the FM
/// library's final counters. `COMM_end_job` drops the rest of its
/// [`ProcSim`].
#[derive(Debug, Clone, Copy)]
pub struct ExitRecord {
    /// Host-local pid.
    pub pid: Pid,
    /// Owning job.
    pub job: JobId,
    /// Rank within the job.
    pub rank: usize,
    /// FM library counters at teardown.
    pub stats: ProcStats,
    /// Sequence gaps observed (see [`fastmsg::proc::FmProcess::gaps`]).
    pub gaps: u64,
    /// Send credits held toward all peers at teardown.
    pub held_credits: usize,
}

/// One compute node of the simulated cluster.
pub struct NodeSim {
    /// Node id (= host id on the data network).
    pub id: usize,
    /// The host CPU timeline.
    pub cpu: HostCpu,
    /// The gang slot this node's daemon believes is active; the live
    /// processes in [`NodeSim::apps`] say who serves each slot.
    pub current_slot: usize,
    /// Gang switches this node has completed.
    pub switches_done: u64,
    /// The NIC.
    pub nic: Nic<Packet>,
    /// The three-phase switch sequencer.
    pub seq: SwitchSequencer,
    /// Live application processes by pid. A descheduled process holds
    /// its saved queues in [`ProcSim::saved`].
    pub apps: AppMap,
    /// Torn-down processes, in teardown order.
    pub exited: Vec<ExitRecord>,
    /// True while a SendEngineDone event is outstanding.
    pub send_engine_busy: bool,
    /// The noded asked for a halt; the engine starts the halt broadcast at
    /// the next packet boundary.
    pub halt_requested: bool,
    /// The halt broadcast has been started (at most once per switch).
    pub halt_broadcast_started: bool,
    /// COMM_init_node has run (control program loaded into the LANai).
    pub nic_initialized: bool,
    /// The node is in service (COMM_add_node / COMM_remove_node).
    pub in_service: bool,
    /// Data packets injected but not yet acknowledged (AckDrain strategy).
    pub outstanding: u64,
    /// Endpoint fault in progress (CachedEndpoints policy): the job being
    /// faulted in.
    pub fault_in_progress: Option<u32>,
    /// Jobs waiting for an endpoint fault.
    pub fault_queue: VecDeque<u32>,
    /// Packets that arrived for non-resident endpoints, held until their
    /// endpoint faults in (virtual-networks semantics).
    pub parked: Vec<fastmsg::packet::Packet>,
    /// Endpoint faults served on this node.
    pub faults: u64,
    /// State of a non-flush switch in progress (ShareDiscard / AckDrain).
    pub alt_switch: Option<AltSwitch>,
    /// The pid the next fork gets.
    next_pid: u32,
    /// Recycled [`SavedCommState`] shells. Buffer switches happen every
    /// quantum; draining into a pooled shell and loading back out of it
    /// keeps the switch path allocation-free at steady state.
    state_pool: Vec<SavedCommState<Packet>>,
}

/// Progress of a ShareDiscard or AckDrain switch on one node.
#[derive(Debug, Clone, Copy)]
pub struct AltSwitch {
    /// Switch epoch.
    pub epoch: u64,
    /// Slot being descheduled.
    pub from: usize,
    /// Slot being scheduled.
    pub to: usize,
    /// When the SwitchSlot command was acted on.
    pub started: sim_core::time::SimTime,
    /// When the halt/drain phase completed (copy began).
    pub halt_done: sim_core::time::SimTime,
    /// True once the copy has been scheduled.
    pub copying: bool,
}

impl NodeSim {
    /// A fresh node.
    pub fn new(id: usize, peers: usize, nic: Nic<Packet>) -> Self {
        NodeSim {
            id,
            cpu: HostCpu::new(),
            current_slot: 0,
            switches_done: 0,
            nic,
            seq: SwitchSequencer::new(peers),
            apps: AppMap::default(),
            exited: Vec::new(),
            send_engine_busy: false,
            halt_requested: false,
            halt_broadcast_started: false,
            nic_initialized: false,
            in_service: true,
            outstanding: 0,
            fault_in_progress: None,
            fault_queue: VecDeque::new(),
            parked: Vec::new(),
            faults: 0,
            alt_switch: None,
            next_pid: 100, // leave room for "daemon" pids in traces
            state_pool: Vec::new(),
        }
    }

    /// Fork: a fresh pid for a process the caller makes live in
    /// [`NodeSim::apps`].
    pub fn fork(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// SIGSTOP `pid`: it starts no host work until [`NodeSim::cont`].
    pub fn stop(&mut self, pid: Pid) {
        self.live(pid).stopped = true;
    }

    /// SIGCONT `pid`.
    pub fn cont(&mut self, pid: Pid) {
        self.live(pid).stopped = false;
    }

    /// The live process `pid`. Panics on a pid that is not live (a
    /// simulation bug, not a runtime condition).
    fn live(&mut self, pid: Pid) -> &mut ProcSim {
        self.apps
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no such process {pid}"))
    }

    /// Save the resident context `ctx_id` into the pageable memory of
    /// process `pid`, freeing its NIC slot: the swap out of a gang buffer
    /// switch and of an endpoint eviction alike.
    pub fn save_context(&mut self, ctx_id: CtxId, pid: Pid) {
        let mut ctx = self
            .nic
            .free_context(ctx_id)
            .expect("no resident context to save");
        let mut saved = match self.state_pool.pop() {
            Some(mut s) => {
                s.job = ctx.job;
                s
            }
            None => SavedCommState::empty(ctx.job),
        };
        ctx.send_q.drain_into(&mut saved.send_q);
        ctx.recv_q.drain_into(&mut saved.recv_q);
        let proc = self.live(pid);
        debug_assert!(proc.saved.is_none(), "{pid} saved twice");
        proc.saved = Some(saved);
    }

    /// Load `pid`'s saved queues, if any, into the freshly allocated
    /// context `ctx_id`: the swap back in of a gang buffer switch and of
    /// an endpoint fault alike.
    pub fn restore_context(&mut self, pid: Pid, ctx_id: CtxId) {
        let Some(mut saved) = self.live(pid).saved.take() else {
            return;
        };
        let ctx = self
            .nic
            .context_mut(ctx_id)
            .expect("restore into a context that is not resident");
        assert_eq!(
            saved.job, ctx.job,
            "saved queues restored into another job's context"
        );
        ctx.send_q.load_from(&mut saved.send_q);
        ctx.recv_q.load_from(&mut saved.recv_q);
        // Keep the emptied shell's allocations for the next save.
        debug_assert!(saved.send_q.is_empty() && saved.recv_q.is_empty());
        self.state_pool.push(saved);
    }

    /// The app process (if any) occupying `slot` on this node.
    pub fn app_in_slot(&self, slot: usize) -> Option<Pid> {
        self.apps.in_slot(slot).map(|p| p.pid)
    }

    /// The pid of the process of `job` on this node, if any.
    pub fn find_proc_by_job(&self, job: u32) -> Option<Pid> {
        self.apps.values().find(|p| p.fm.job == job).map(|p| p.pid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmsg::init::{InitMachine, InitMode};
    use fastmsg::proc::FmProcess;
    use workloads::program::SpinProgram;

    fn proc(pid: u32, job: u32, slot: usize) -> ProcSim {
        let fm = FmProcess::new(job, 0, vec![0].into(), 1, 1);
        ProcSim::new(
            Pid(pid),
            JobId(job),
            0,
            slot,
            fm,
            Box::new(SpinProgram::default()),
            InitMachine::new(InitMode::ParPar),
        )
    }

    #[test]
    fn slots_are_read_off_the_live_processes() {
        let mut apps = AppMap::default();
        assert_eq!(apps.next_slot(0), None);
        apps.insert(proc(100, 1, 2));
        apps.insert(proc(101, 5, 0));
        assert_eq!(apps.in_slot(2).map(|p| p.pid), Some(Pid(100)));
        assert_eq!(apps.in_slot(1).map(|p| p.pid), None);
        // Round robin: the next occupied slot above, else the lowest.
        assert_eq!(apps.next_slot(0), Some(2));
        assert_eq!(apps.next_slot(1), Some(2));
        assert_eq!(apps.next_slot(2), Some(0));
        // Eviction frees the slot for a later job.
        apps.remove(&Pid(100));
        assert_eq!(apps.in_slot(2).map(|p| p.pid), None);
        assert_eq!(apps.next_slot(0), Some(0));
        apps.insert(proc(102, 9, 2));
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_booking_panics() {
        let mut apps = AppMap::default();
        apps.insert(proc(100, 1, 0));
        apps.insert(proc(101, 2, 0));
    }
}
