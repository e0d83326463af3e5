//! The LANai network interface card.
//!
//! Holds the per-process communication contexts (paper §2.2): each context
//! couples a job/rank identity with a send queue in NIC RAM and a receive
//! queue in the pinned host DMA buffer. The card exposes the *halt bit*
//! that the modified control program checks before sending each packet
//! (paper §3.2), and serial send/receive engine timelines that the cluster
//! simulator reserves work on.

use sim_core::time::{Cycles, SimTime};

use crate::queue::PacketRing;

/// Index of a context slot on a NIC.
pub type CtxId = usize;

/// Why a context allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicError {
    /// All context slots are in use.
    NoFreeContext,
    /// The requested send-queue space does not fit in NIC RAM.
    MemoryExhausted,
    /// A context for this (job, rank) already exists.
    DuplicateContext,
}

/// One communication context resident on the card.
#[derive(Debug, Clone)]
pub struct NicContext<P> {
    /// Owning job.
    pub job: u32,
    /// Rank of the owning process within the job.
    pub rank: usize,
    /// Send queue (lives in NIC RAM).
    pub send_q: PacketRing<P>,
    /// Receive queue (lives in the pinned host DMA buffer).
    pub recv_q: PacketRing<P>,
    /// When a packet was last queued or landed here: the LRU stamp for
    /// endpoint eviction (read only under endpoint caching). Starts at
    /// [`SimTime::ZERO`] and dies with the context.
    pub last_use: SimTime,
}

/// Running NIC counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NicStats {
    /// Data packets injected into the network.
    pub data_sent: u64,
    /// Data packets landed into a receive queue.
    pub data_received: u64,
    /// Control packets (halt/ready) emitted.
    pub control_sent: u64,
    /// Control packets counted.
    pub control_received: u64,
    /// Arrivals dropped because no resident context matched (only possible
    /// under the no-flush ablation strategies).
    pub dropped_no_context: u64,
    /// Arrivals dropped because the receive ring was full (a flow-control
    /// violation; never happens when credits are honored).
    pub dropped_ring_full: u64,
}

/// A simulated LANai NIC.
#[derive(Debug, Clone)]
pub struct Nic<P> {
    /// Host this NIC is plugged into.
    pub node: usize,
    /// Total NIC RAM reserved for send queues, bytes (400 KB on ParPar).
    pub send_buf_bytes: u64,
    /// Fixed packet slot size, bytes (1560 on ParPar).
    pub packet_bytes: u64,
    contexts: Vec<Option<NicContext<P>>>,
    halt_bit: bool,
    engine_free: SimTime,
    /// Counters.
    pub stats: NicStats,
}

impl<P> Nic<P> {
    /// A NIC with `max_contexts` context slots.
    pub fn new(node: usize, max_contexts: usize, send_buf_bytes: u64, packet_bytes: u64) -> Self {
        assert!(max_contexts >= 1);
        Nic {
            node,
            send_buf_bytes,
            packet_bytes,
            contexts: (0..max_contexts).map(|_| None).collect(),
            halt_bit: false,
            engine_free: SimTime::ZERO,
            stats: NicStats::default(),
        }
    }

    /// NIC RAM currently committed to send queues, bytes.
    pub fn send_ram_used(&self) -> u64 {
        self.contexts
            .iter()
            .flatten()
            .map(|c| c.send_q.capacity() as u64 * self.packet_bytes)
            .sum()
    }

    /// Allocate a context for (job, rank) with the given queue geometries
    /// (in packets). The CM's job in stock FM; COMM_init_job's here.
    pub fn alloc_context(
        &mut self,
        job: u32,
        rank: usize,
        send_cap: usize,
        recv_cap: usize,
    ) -> Result<CtxId, NicError> {
        if self.find_context(job).is_some() {
            return Err(NicError::DuplicateContext);
        }
        let need = send_cap as u64 * self.packet_bytes;
        if self.send_ram_used() + need > self.send_buf_bytes {
            return Err(NicError::MemoryExhausted);
        }
        let slot = self
            .contexts
            .iter()
            .position(Option::is_none)
            .ok_or(NicError::NoFreeContext)?;
        self.contexts[slot] = Some(NicContext {
            job,
            rank,
            send_q: PacketRing::new(send_cap),
            recv_q: PacketRing::new(recv_cap),
            last_use: SimTime::ZERO,
        });
        Ok(slot)
    }

    /// Release a context slot (job teardown, or eviction by the buffer
    /// switcher). Returns the context so its queues can be saved.
    pub fn free_context(&mut self, id: CtxId) -> Option<NicContext<P>> {
        self.contexts.get_mut(id).and_then(Option::take)
    }

    /// Context by slot id.
    pub fn context(&self, id: CtxId) -> Option<&NicContext<P>> {
        self.contexts.get(id).and_then(Option::as_ref)
    }

    /// Context by slot id, mutably.
    pub fn context_mut(&mut self, id: CtxId) -> Option<&mut NicContext<P>> {
        self.contexts.get_mut(id).and_then(Option::as_mut)
    }

    /// Slot id of the context owned by `job`, if resident.
    pub fn find_context(&self, job: u32) -> Option<CtxId> {
        self.contexts
            .iter()
            .position(|c| c.as_ref().is_some_and(|c| c.job == job))
    }

    /// All resident context slot ids.
    pub fn resident_contexts(&self) -> impl Iterator<Item = CtxId> + '_ {
        self.contexts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|_| i))
    }

    /// The halt bit the control program checks before each send.
    pub fn halt_bit(&self) -> bool {
        self.halt_bit
    }

    /// Set/clear the halt bit (COMM_halt_network / COMM_release_network).
    pub fn set_halt_bit(&mut self, v: bool) {
        self.halt_bit = v;
    }

    /// When the LANai processor is next free.
    ///
    /// The LANai is one processor alternating between its send and receive
    /// contexts (paper §2.2); heavy receive traffic therefore steals time
    /// from sending — the mechanism behind the send-queue buildup Fig. 8
    /// observes under all-to-all.
    pub fn engine_free(&self) -> SimTime {
        self.engine_free
    }

    /// Reserve the LANai processor for `work` (send or receive context),
    /// returning the completion time.
    pub fn reserve_engine(&mut self, now: SimTime, work: Cycles) -> SimTime {
        let start = now.max(self.engine_free);
        self.engine_free = start + work;
        self.engine_free
    }

    /// Keep the processor busy through `t` (e.g. while the send DMA
    /// streams a packet onto the wire).
    pub fn engine_extend_to(&mut self, t: SimTime) {
        self.engine_free = self.engine_free.max(t);
    }

    /// Total valid packets in all resident send queues.
    pub fn send_q_occupancy(&self) -> usize {
        self.contexts.iter().flatten().map(|c| c.send_q.len()).sum()
    }

    /// Total valid packets in all resident receive queues.
    pub fn recv_q_occupancy(&self) -> usize {
        self.contexts.iter().flatten().map(|c| c.recv_q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PKT: u64 = 1560;
    const SEND_BUF: u64 = 400 * 1024;

    fn nic() -> Nic<u32> {
        Nic::new(0, 8, SEND_BUF, PKT)
    }

    #[test]
    fn alloc_and_find() {
        let mut n = nic();
        let a = n.alloc_context(1, 0, 252, 668).unwrap();
        assert_eq!(n.find_context(1), Some(a));
        assert_eq!(n.find_context(2), None);
        assert_eq!(n.context(a).unwrap().rank, 0);
        assert_eq!(n.send_ram_used(), 252 * PKT);
    }

    #[test]
    fn duplicate_job_rejected() {
        let mut n = nic();
        n.alloc_context(1, 0, 10, 10).unwrap();
        assert_eq!(
            n.alloc_context(1, 0, 10, 10),
            Err(NicError::DuplicateContext)
        );
    }

    #[test]
    fn memory_budget_enforced() {
        let mut n = nic();
        // Full-size context fits exactly once: 252 * 1560 = 393120 of 409600.
        n.alloc_context(1, 0, 252, 668).unwrap();
        assert_eq!(
            n.alloc_context(2, 0, 252, 668),
            Err(NicError::MemoryExhausted)
        );
        // But two half-size contexts fit (the static-division regime).
        let mut n = nic();
        n.alloc_context(1, 0, 126, 334).unwrap();
        n.alloc_context(2, 0, 126, 334).unwrap();
    }

    #[test]
    fn context_slots_limited() {
        let mut n: Nic<u32> = Nic::new(0, 2, SEND_BUF, PKT);
        n.alloc_context(1, 0, 1, 1).unwrap();
        n.alloc_context(2, 0, 1, 1).unwrap();
        assert_eq!(n.alloc_context(3, 0, 1, 1), Err(NicError::NoFreeContext));
    }

    #[test]
    fn free_returns_the_context_and_its_memory() {
        let mut n = nic();
        let id = n.alloc_context(1, 0, 252, 668).unwrap();
        n.context_mut(id).unwrap().send_q.push(42).unwrap();
        let ctx = n.free_context(id).unwrap();
        assert_eq!(n.send_ram_used(), 0);
        assert_eq!(ctx.send_q.len(), 1);
    }

    #[test]
    fn single_processor_serializes_send_and_receive_work() {
        let mut n = nic();
        let t1 = n.reserve_engine(SimTime(0), Cycles(100));
        let t2 = n.reserve_engine(SimTime(50), Cycles(100));
        assert_eq!(t1, SimTime(100));
        assert_eq!(t2, SimTime(200));
        // Receive work queues behind send work: one LANai processor.
        let r = n.reserve_engine(SimTime(50), Cycles(10));
        assert_eq!(r, SimTime(210));
        n.engine_extend_to(SimTime(500));
        assert_eq!(n.engine_free(), SimTime(500));
        n.engine_extend_to(SimTime(400));
        assert_eq!(n.engine_free(), SimTime(500));
    }

    #[test]
    fn halt_bit_toggles() {
        let mut n = nic();
        assert!(!n.halt_bit());
        n.set_halt_bit(true);
        assert!(n.halt_bit());
        n.set_halt_bit(false);
        assert!(!n.halt_bit());
    }

    #[test]
    fn occupancy_sums_across_contexts() {
        let mut n = nic();
        let a = n.alloc_context(1, 0, 10, 10).unwrap();
        let b = n.alloc_context(2, 0, 10, 10).unwrap();
        n.context_mut(a).unwrap().send_q.push(1).unwrap();
        n.context_mut(b).unwrap().send_q.push(2).unwrap();
        n.context_mut(b).unwrap().recv_q.push(3).unwrap();
        assert_eq!(n.send_q_occupancy(), 2);
        assert_eq!(n.recv_q_occupancy(), 1);
    }
}
