//! Per-node composite state: host, NIC, daemon, processes.

use std::collections::{BTreeMap, VecDeque};

use fastmsg::packet::Packet;
use gang_comm::sequencer::SwitchSequencer;
use gang_comm::state::SavedCommState;
use hostsim::backing::BackingStore;
use hostsim::cpu::HostCpu;
use hostsim::process::Pid;
use lanai::nic::{CtxId, Nic};
use parpar::job::JobId;
use parpar::noded::Noded;

use crate::procsim::ProcSim;

/// Pid → [`ProcSim`] map, flat.
///
/// A node hosts one process per gang slot — one or two in every
/// configuration the paper studies — and the hot handlers (`proc_kick`,
/// `HostOpDone`, packet landing) do several lookups per event. A sorted
/// `Vec` keeps those lookups inside one cache line instead of chasing
/// `BTreeMap` node pointers; iteration order (ascending pid) matches the
/// map it replaces, so determinism is unaffected. Torn-down processes stay
/// resident as `ProcPhase::Exited`.
#[derive(Default)]
pub struct AppMap {
    entries: Vec<(Pid, ProcSim)>,
}

impl AppMap {
    /// An empty map.
    pub fn new() -> Self {
        AppMap {
            entries: Vec::new(),
        }
    }

    /// The process with id `pid`, if resident.
    #[inline]
    pub fn get(&self, pid: &Pid) -> Option<&ProcSim> {
        self.entries
            .iter()
            .find_map(|(k, v)| (k == pid).then_some(v))
    }

    /// Mutable access to the process with id `pid`, if resident.
    #[inline]
    pub fn get_mut(&mut self, pid: &Pid) -> Option<&mut ProcSim> {
        self.entries
            .iter_mut()
            .find_map(|(k, v)| (k == pid).then_some(v))
    }

    /// Insert `proc` under `pid`, returning the displaced process if the
    /// pid was already resident.
    pub fn insert(&mut self, pid: Pid, proc: ProcSim) -> Option<ProcSim> {
        match self.entries.binary_search_by_key(&pid.0, |(k, _)| k.0) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, proc)),
            Err(i) => {
                self.entries.insert(i, (pid, proc));
                None
            }
        }
    }

    /// Resident pids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &Pid> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// `(pid, process)` pairs in ascending pid order.
    pub fn iter(&self) -> impl Iterator<Item = (&Pid, &ProcSim)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Resident processes in ascending pid order.
    pub fn values(&self) -> impl Iterator<Item = &ProcSim> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Mutable iteration in ascending pid order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut ProcSim> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Number of resident processes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is no process resident?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::ops::Index<&Pid> for AppMap {
    type Output = ProcSim;
    fn index(&self, pid: &Pid) -> &ProcSim {
        self.get(pid)
            .unwrap_or_else(|| panic!("no process with pid {}", pid.0))
    }
}

/// One compute node of the simulated cluster.
pub struct NodeSim {
    /// Node id (= host id on the data network).
    pub id: usize,
    /// The host CPU timeline.
    pub cpu: HostCpu,
    /// The node daemon's slot bookkeeping.
    pub noded: Noded,
    /// The NIC.
    pub nic: Nic<Packet>,
    /// The three-phase switch sequencer.
    pub seq: SwitchSequencer,
    /// Pageable backing store for descheduled jobs' queue contents.
    pub backing: BackingStore<SavedCommState<Packet>>,
    /// Application-process simulation state by pid.
    pub apps: AppMap,
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
    /// Last-activity instant per job, for LRU endpoint eviction.
    pub lru: BTreeMap<u32, sim_core::time::SimTime>,
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
            noded: Noded::new(id),
            nic,
            seq: SwitchSequencer::new(peers),
            backing: BackingStore::new(),
            apps: AppMap::new(),
            send_engine_busy: false,
            halt_requested: false,
            halt_broadcast_started: false,
            nic_initialized: false,
            in_service: true,
            outstanding: 0,
            fault_in_progress: None,
            fault_queue: VecDeque::new(),
            parked: Vec::new(),
            lru: BTreeMap::new(),
            faults: 0,
            alt_switch: None,
            next_pid: 100, // leave room for "daemon" pids in traces
            state_pool: Vec::new(),
        }
    }

    /// Fork: a fresh pid for a process the caller makes resident in
    /// [`NodeSim::apps`].
    pub fn fork(&mut self) -> Pid {
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        pid
    }

    /// SIGSTOP `pid`: it starts no host work until [`NodeSim::cont`].
    pub fn stop(&mut self, pid: Pid) {
        self.signalled(pid).stopped = true;
    }

    /// SIGCONT `pid`.
    pub fn cont(&mut self, pid: Pid) {
        self.signalled(pid).stopped = false;
    }

    /// The target of a signal. Panics on a pid that is not resident (a
    /// simulation bug, not a runtime condition).
    fn signalled(&mut self, pid: Pid) -> &mut ProcSim {
        self.apps
            .get_mut(&pid)
            .unwrap_or_else(|| panic!("no such process {pid}"))
    }

    /// Save the resident context `ctx_id` to pageable backing store under
    /// `pid`, freeing its NIC slot: the swap out of a gang buffer switch
    /// and of an endpoint eviction alike.
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
        let bytes = saved.stored_bytes();
        self.backing.save(pid, saved, bytes);
    }

    /// Load `pid`'s saved queues, if any, from backing store into the
    /// freshly allocated context `ctx_id`: the swap back in of a gang
    /// buffer switch and of an endpoint fault alike.
    pub fn restore_context(&mut self, pid: Pid, ctx_id: CtxId) {
        let Some(mut saved) = self.backing.restore(pid) else {
            return;
        };
        let ctx = self
            .nic
            .context_mut(ctx_id)
            .expect("restore into a context that is not resident");
        assert_eq!(saved.job, ctx.job, "backing store mix-up");
        ctx.send_q.load_from(&mut saved.send_q);
        ctx.recv_q.load_from(&mut saved.recv_q);
        // Keep the emptied shell's allocations for the next save.
        debug_assert!(saved.send_q.is_empty() && saved.recv_q.is_empty());
        self.state_pool.push(saved);
    }

    /// The app process (if any) occupying `slot` on this node.
    pub fn app_in_slot(&self, slot: usize) -> Option<Pid> {
        self.noded.in_slot(slot).map(|(_, pid)| pid)
    }

    /// The pid of the process of `job` on this node, if any.
    pub fn find_proc_by_job(&self, job: u32) -> Option<Pid> {
        self.apps
            .iter()
            .find(|(_, p)| p.fm.job == job)
            .map(|(pid, _)| *pid)
    }

    /// The (slot, pid) the noded assigned to `job`, if loaded.
    pub fn noded_lookup(&self, job: JobId) -> Option<(usize, Pid)> {
        let slot = self.noded.slot_of(job)?;
        let (_, pid) = self.noded.in_slot(slot)?;
        Some((slot, pid))
    }
}
