//! Application handler: FM_initialize, FM_send fragmentation, FM_extract,
//! compute, and program completion on the host CPUs.

use fastmsg::costs;
use fastmsg::init::InitStep;
use fastmsg::packet::{fragment_payload, fragments_for, Packet, HEADER_BYTES};
use hostsim::costs as host;
use hostsim::process::Pid;
use parpar::protocol::MasterMsg;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::event::{Event, HostOp, Sched};
use crate::node::ExitRecord;
use crate::procsim::{BlockReason, ProcPhase, SendProgress};
use crate::world::World;

/// Outcome of one scheduling decision for a process.
enum Step {
    /// Something was decided that lets the driver loop continue.
    Continue,
    /// The process is waiting (busy, blocked, stopped, or finished).
    Park,
}

impl World {
    /// Advance a process as far as it can go right now. Called by every
    /// other handler when it may have unblocked a process.
    pub(crate) fn proc_kick(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) {
        // Every Continue makes observable progress (an op consumed, a block
        // cleared); the bound is a livelock tripwire, not a budget.
        for _ in 0..1_000_000 {
            match self.proc_step(now, node, pid, sched) {
                Step::Continue => continue,
                Step::Park => return,
            }
        }
        panic!("process {pid} on node {node} livelocked (program makes no progress)");
    }

    /// Complete a finished process's `COMM_end_job` once its context's send
    /// queue is empty, and evict it from its node. Called again by the NIC
    /// handler as the send engine drains.
    pub(crate) fn try_end_job(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        let proc = &n.apps[&pid];
        debug_assert_eq!(proc.phase, ProcPhase::Finished);
        if self.cfg.reliability.enabled && proc.fm.rel_unacked() > 0 {
            // Peers have not acked everything we sent: a teardown now could
            // orphan a lost packet forever. A later ack (Refill arrival) or
            // the retransmit timer retries this.
            return;
        }
        let job = proc.job;
        if let Some(ctx_id) = n.nic.find_context(job.0) {
            if !n.nic.context(ctx_id).unwrap().send_q.is_empty() {
                return; // drained later; SendEngineDone retries
            }
        }
        // COMM_end_job: release the context or the saved queues.
        self.comm_end_job(now, node, job.0, pid)
            .expect("end_job: context vanished");
        let n = &mut self.nodes[node];
        let proc = n.apps.remove(&pid).unwrap();
        n.exited.push(ExitRecord {
            pid,
            job,
            rank: proc.rank,
            stats: proc.fm.stats,
            gaps: proc.fm.gaps,
            held_credits: proc.fm.flow.held_credits_total(),
        });
        self.route_ack(now, node, MasterMsg::JobFinished { job, count: 1 }, sched);
    }

    /// Retry deferred refills once send-queue space frees up. Called by
    /// the NIC and FM handlers.
    pub(crate) fn drain_pending_refills(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        // Deferred refills are rare (the send queue was full at refill
        // time), and collecting no pids allocates nothing. A finished
        // process keeps its deferred refills only under the reliability
        // layer, which still owes its peers final acks.
        let pids: Vec<Pid> = self.nodes[node]
            .apps
            .values()
            .filter(|p| !p.pending_refills.is_empty())
            .map(|p| p.pid)
            .collect();
        for pid in pids {
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            let pending = std::mem::take(&mut proc.pending_refills);
            for ((_, peer), k) in pending {
                self.queue_refill(now, node, pid, peer, k, sched);
            }
        }
    }

    fn proc_step(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) -> Step {
        let n = &mut self.nodes[node];
        let Some(proc) = n.apps.get_mut(&pid) else {
            return Step::Park;
        };
        if proc.phase == ProcPhase::Finished || proc.busy || proc.stopped {
            return Step::Park;
        }

        // Resolve a block if its condition cleared.
        if let Some(b) = proc.blocked {
            let resolved = match b {
                BlockReason::RecvWait { target } => proc.fm.stats.msgs_received >= target,
                BlockReason::Credits { peer } => proc.fm.flow.can_send(peer),
                BlockReason::SendSpace => {
                    let job = proc.fm.job;
                    n.nic
                        .find_context(job)
                        .map(|c| !n.nic.context(c).unwrap().send_q.is_full())
                        .unwrap_or(false)
                }
                BlockReason::PipeRead => proc.pipe.buffered() > 0,
                BlockReason::ContextFault => {
                    let job = proc.fm.job;
                    proc.deferred_pkt.is_none() && n.nic.find_context(job).is_some()
                }
            };
            if !resolved {
                // While FM_send spins for credits or queue space it also
                // polls FM_extract, which is how piggybacked credits are
                // ever seen.
                if matches!(b, BlockReason::ContextFault) {
                    // The endpoint may have been evicted again since the
                    // fault that unblocked us was served: re-raise it.
                    let job = self.nodes[node].apps[&pid].fm.job;
                    if self.nodes[node].apps[&pid].deferred_pkt.is_none() {
                        self.begin_fault(now, node, job, sched);
                    }
                    return Step::Park;
                }
                if !matches!(b, BlockReason::PipeRead) {
                    self.try_start_extract(now, node, pid, sched);
                }
                return Step::Park;
            }
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            if matches!(b, BlockReason::PipeRead) {
                // Consume the sync byte; charge the read.
                let byte = proc.pipe.read_byte();
                debug_assert_eq!(byte, Some(1));
                proc.blocked = None;
                self.host_op(now, node, pid, host::PIPE_READ, HostOp::InitStep, sched);
                return Step::Park;
            }
            proc.blocked = None;
            return Step::Continue;
        }

        if proc.phase == ProcPhase::Initializing {
            return self.init_step(now, node, pid, sched);
        }

        if proc.sending.is_some() {
            return self.advance_send(now, node, pid, sched);
        }

        // Ask the program for the next op.
        let op = {
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            proc.next_op(now)
        };
        match op {
            workloads::program::Op::Send { dst, bytes } => {
                let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                assert_ne!(dst, proc.rank, "program sent to its own rank");
                proc.sending = Some(SendProgress {
                    dst_rank: dst,
                    bytes,
                    next_frag: 0,
                    nfrags: fragments_for(bytes),
                });
                let job = proc.job;
                self.stats.job_first_send.entry(job).or_insert(now);
                Step::Continue
            }
            workloads::program::Op::WaitRecvMsgs { target } => {
                let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                if proc.fm.stats.msgs_received >= target {
                    return Step::Continue;
                }
                proc.blocked = Some(BlockReason::RecvWait { target });
                self.try_start_extract(now, node, pid, sched);
                Step::Park
            }
            workloads::program::Op::Compute(c) => {
                self.host_op(now, node, pid, c, HostOp::ComputeDone, sched);
                Step::Park
            }
            workloads::program::Op::Done => {
                self.finish_proc(now, node, pid, sched);
                Step::Park
            }
        }
    }

    /// Drive one FM_initialize step.
    fn init_step(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) -> Step {
        let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
        match proc.init.advance() {
            InitStep::HostWork(c) => {
                self.host_op(now, node, pid, c, HostOp::InitStep, sched);
                Step::Park
            }
            InitStep::GrmRoundTrip | InitStep::CmRoundTrip => {
                // Stock FM's "costly communication operations" at startup:
                // a request/response over the control network plus daemon
                // turnaround.
                proc.busy = true;
                let rtt = Cycles::from_us(1500);
                sched.at(
                    now + rtt,
                    Event::HostOpDone {
                        node,
                        pid,
                        op: HostOp::InitStep,
                    },
                );
                Step::Park
            }
            InitStep::WaitSyncByte => {
                // read_byte records the blocked reader inside the pipe, so
                // the noded's write knows to wake us.
                if let Some(byte) = proc.pipe.read_byte() {
                    debug_assert_eq!(byte, 1);
                    self.host_op(now, node, pid, host::PIPE_READ, HostOp::InitStep, sched);
                } else {
                    proc.blocked = Some(BlockReason::PipeRead);
                }
                Step::Park
            }
            InitStep::Ready => {
                proc.phase = ProcPhase::Running;
                let slot = proc.slot;
                self.trace.emit(now, Category::Fm, Some(node), || {
                    format!("{pid} FM_initialize complete")
                });
                // If this job's slot is not the active one — or a buffer
                // switch into it is still mid-flight, so the context has
                // not been copied back yet — the process waits stopped
                // until the rotation completes and `switch_slot` wakes
                // it. (VN caching is exempt: a missing endpoint there is
                // served by a context fault, not a switch.)
                let n = &self.nodes[node];
                let resident = n.nic.find_context(n.apps[&pid].fm.job).is_some();
                if slot != n.current_slot || (!resident && !self.vn_active()) {
                    self.nodes[node].stop(pid);
                    return Step::Park;
                }
                Step::Continue
            }
        }
    }

    /// Try to inject the next fragment of the in-progress message.
    fn advance_send(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) -> Step {
        let n = &mut self.nodes[node];
        let proc = n.apps.get_mut(&pid).unwrap();
        let sp = proc
            .sending
            .expect("advance_send without a send in progress");
        if sp.next_frag == sp.nfrags {
            proc.sending = None;
            return Step::Continue;
        }
        let dst = sp.dst_rank;
        if !proc.fm.flow.can_send(dst) {
            proc.fm.flow.consume(dst); // records the stall
            proc.blocked = Some(BlockReason::Credits { peer: dst });
            self.try_start_extract(now, node, pid, sched);
            return Step::Park;
        }
        let job = proc.fm.job;
        let Some(ctx_id) = n.nic.find_context(job) else {
            // Under endpoint caching the running process's endpoint may
            // have been evicted: fault it back in.
            assert!(
                self.vn_active(),
                "running process lost its context outside VN caching \
                 (node {node} pid {pid:?} job {job} slot {} current_slot {} phase {:?})",
                self.nodes[node].apps[&pid].slot,
                self.nodes[node].current_slot,
                self.nodes[node].seq.phase(),
            );
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            proc.blocked = Some(BlockReason::ContextFault);
            self.begin_fault(now, node, job, sched);
            return Step::Park;
        };
        if n.nic.context(ctx_id).unwrap().send_q.is_full() {
            proc.blocked = Some(BlockReason::SendSpace);
            self.try_start_extract(now, node, pid, sched);
            return Step::Park;
        }
        assert!(proc.fm.flow.consume(dst), "checked can_send above");
        let payload = fragment_payload(sp.bytes, sp.next_frag);
        let mut cost = costs::inject_cycles(HEADER_BYTES + payload);
        if sp.next_frag == 0 {
            cost += costs::SEND_CALL;
        }
        self.host_op(now, node, pid, cost, HostOp::SendFragment, sched);
        Step::Park
    }

    /// Start extracting one packet if the process may and the queue has
    /// any. (FM_extract: explicit polling, handler runs in place.)
    fn try_start_extract(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) {
        let (job, ctx_id) = {
            let n = &mut self.nodes[node];
            let Some(proc) = n.apps.get_mut(&pid) else {
                return;
            };
            if proc.busy || proc.phase != ProcPhase::Running || proc.stopped {
                return;
            }
            let job = proc.fm.job;
            (job, n.nic.find_context(job))
        };
        let Some(ctx_id) = ctx_id else {
            // Under VN caching the poll itself is an endpoint access: a
            // non-resident endpoint faults in, exactly like a send would
            // (otherwise a receiver whose endpoint was evicted — with its
            // pending packets saved in its own memory — waits forever).
            if self.vn_active() {
                self.begin_fault(now, node, job, sched);
            }
            return;
        };
        let nic = &mut self.nodes[node].nic;
        let Some(pkt) = nic.context_mut(ctx_id).unwrap().recv_q.pop() else {
            return;
        };
        let op = HostOp::Extract(pkt);
        self.host_op(now, node, pid, costs::EXTRACT_PER_PACKET, op, sched);
    }

    /// Run `cost` of host-CPU work for `pid`: the process is busy until
    /// the node's CPU has served it, and `op` completes then.
    fn host_op(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        cost: Cycles,
        op: HostOp,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        n.apps.get_mut(&pid).unwrap().busy = true;
        let r = n.cpu.reserve(now, cost);
        sched.at(r.end, Event::HostOpDone { node, pid, op });
    }

    /// A host work item completed.
    pub(super) fn on_host_op_done(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        op: HostOp,
        sched: &mut Sched,
    ) {
        {
            let proc = self.nodes[node]
                .apps
                .get_mut(&pid)
                .expect("HostOpDone for unknown process");
            proc.busy = false;
        }
        match op {
            HostOp::SendFragment => self.complete_send_fragment(now, node, pid, sched),
            HostOp::Extract(pkt) => self.complete_extract(now, node, pid, pkt, sched),
            HostOp::ComputeDone | HostOp::InitStep => {
                self.proc_kick(now, node, pid, sched);
            }
        }
    }

    fn complete_send_fragment(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        let proc = n.apps.get_mut(&pid).unwrap();
        let sp = proc
            .sending
            .as_mut()
            .expect("fragment completion without a send in progress");
        let pkt = proc.fm.make_fragment(sp.dst_rank, sp.bytes, sp.next_frag);
        sp.next_frag += 1;
        if sp.next_frag == sp.nfrags {
            proc.sending = None;
        }
        let job = proc.fm.job;
        let Some(ctx_id) = n.nic.find_context(job) else {
            // Evicted between the space check and the injection (VN
            // caching): defer the built fragment and fault the endpoint.
            assert!(self.vn_active(), "context disappeared mid-send");
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            assert!(proc.deferred_pkt.is_none());
            proc.deferred_pkt = Some(pkt);
            proc.blocked = Some(BlockReason::ContextFault);
            self.begin_fault(now, node, job, sched);
            return;
        };
        let ctx = n.nic.context_mut(ctx_id).unwrap();
        ctx.send_q
            .push(pkt)
            .expect("send queue overflowed despite the space check");
        ctx.last_use = now;
        if self.cfg.reliability.enabled {
            self.arm_retrans_timer(now, node, pid, sched);
        }
        self.kick_send_engine(now, node, sched);
        self.proc_kick(now, node, pid, sched);
    }

    fn complete_extract(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        pkt: Packet,
        sched: &mut Sched,
    ) {
        let payload = pkt.payload as u64;
        let (job, refill_due, delivered) = {
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            let res = proc.fm.on_extract(&pkt);
            // A blocked state may now be resolvable; proc_kick below
            // re-evaluates it.
            (proc.job, res.refill_due, res.delivered)
        };
        // Discarded packets (reliability layer: a gap or duplicate) don't
        // count toward the paper's goodput; `delivered` is always true with
        // the layer off.
        if delivered {
            *self.stats.job_bytes.entry(job).or_default() += payload;
        }
        if let Some((peer, k)) = refill_due {
            self.queue_refill(now, node, pid, peer, k, sched);
        }
        self.proc_kick(now, node, pid, sched);
    }

    /// Emit a dedicated refill packet to rank `peer` (or defer it if the
    /// send queue is momentarily full).
    fn queue_refill(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        peer: usize,
        credits: usize,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        let proc = n.apps.get_mut(&pid).unwrap();
        let job = proc.fm.job;
        let ctx = n.nic.find_context(job).and_then(|c| n.nic.context_mut(c));
        match ctx {
            Some(ctx) if !ctx.send_q.is_full() => {
                let pkt = proc.fm.make_refill(peer, credits);
                ctx.send_q.push(pkt).unwrap();
                self.kick_send_engine(now, node, sched);
            }
            _ => {
                let host = proc.fm.host_of(peer);
                *proc.pending_refills.entry((host, peer)).or_insert(0) += credits;
            }
        }
    }

    /// The program returned Done: tear the process down (COMM_end_job),
    /// deferring until its send queue drains.
    fn finish_proc(&mut self, now: SimTime, node: usize, pid: Pid, sched: &mut Sched) {
        {
            let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
            proc.phase = ProcPhase::Finished;
            if !self.cfg.reliability.enabled {
                proc.pending_refills.clear();
            }
        }
        if self.cfg.reliability.enabled {
            // Flush a final ack-bearing refill to every peer, in host
            // order: a peer whose last refill toward us was lost would
            // otherwise keep retransmitting into a context about to be
            // torn down, and our own teardown waits on acks a peer may
            // only send in response.
            let mut peers: Vec<(usize, usize)> = {
                let proc = &self.nodes[node].apps[&pid];
                (0..proc.fm.nprocs())
                    .filter(|&r| r != proc.rank)
                    .map(|r| (proc.fm.host_of(r), r))
                    .collect()
            };
            peers.sort_unstable();
            for (_, peer) in peers {
                self.queue_refill(now, node, pid, peer, 0, sched);
            }
        }
        self.trace
            .emit(now, Category::App, Some(node), || format!("{pid} done"));
        self.try_end_job(now, node, pid, sched);
    }
}
