//! Endpoint-residency handler — virtual-networks endpoint caching (paper
//! §5, Chun/Mainwaring/Culler): "the solution for the lack of space on the
//! NIC is to cache active endpoints on the NIC, while moving inactive ones
//! to backing store on the node computer. This approach … does not create
//! any linkage between the communication subsystem and the scheduling of
//! communicating processes."
//!
//! Under `BufferPolicy::CachedEndpoints` the NIC holds up to `k` resident
//! endpoints (each a 1/k share of the buffers). A send to — or an arrival
//! for — a non-resident endpoint raises a *fault*: the host evicts the
//! least recently used endpoint (by
//! [`NicContext::last_use`](lanai::nic::NicContext::last_use)) into its
//! process's memory and restores the faulted one, paying the same copy
//! costs as the paper's buffer switch, but reactively, on the critical
//! path of the first message. Arrivals wait in a parking area while their
//! endpoint faults in (the VN paper's return-to-sender is modeled as a
//! drop-notify once parking overflows).

use fastmsg::config::{BACKOFF_CAP, RETRANS_TIMEOUT};
use fastmsg::division::BufferPolicy;
use fastmsg::packet::Packet;
use gang_comm::switcher;
use hostsim::process::Pid;
use myrinet::broadcast::CONTROL_PACKET_BYTES;
use sim_core::time::{Cycles, SimTime};
use sim_core::trace::Category;

use crate::event::{Event, Frame, Sched};
use crate::procsim::ProcPhase;
use crate::world::World;

/// Extra parking beyond one endpoint's receive ring (headroom for refill
/// packets in flight; data in flight is already bounded by credits).
pub const PARKING_HEADROOM: usize = 16;

/// Fixed host overhead of taking an endpoint fault (NIC interrupt, driver
/// entry, page lookups).
pub const FAULT_OVERHEAD: Cycles = Cycles(10_000); // 50 µs

impl World {
    /// Is the virtual-networks residency policy active?
    pub(crate) fn vn_active(&self) -> bool {
        self.cfg.fm.policy == BufferPolicy::CachedEndpoints
    }

    /// Request that `job`'s endpoint become resident on `node`.
    /// Idempotent; queues behind an in-progress fault.
    pub(crate) fn begin_fault(&mut self, now: SimTime, node: usize, job: u32, sched: &mut Sched) {
        debug_assert!(self.vn_active());
        let n = &mut self.nodes[node];
        if n.nic.find_context(job).is_some() {
            return;
        }
        if n.fault_in_progress == Some(job) || n.fault_queue.contains(&job) {
            return;
        }
        if n.fault_in_progress.is_some() {
            n.fault_queue.push_back(job);
            return;
        }
        self.start_fault(now, node, job, sched);
    }

    /// An arrival found no resident endpoint under VN caching: park it
    /// and raise a fault, or overflow into a drop-notify.
    pub(crate) fn vn_park_arrival(
        &mut self,
        now: SimTime,
        node: usize,
        pkt: Packet,
        sched: &mut Sched,
    ) {
        let job = pkt.job;
        // Credits bound each endpoint's in-flight data to its receive-ring
        // size, so per-endpoint parking of that size never overflows; the
        // drop path below models the VN paper's return-to-sender for
        // anything beyond it.
        let cap = self.cfg.fm.geometry().recv_slots + PARKING_HEADROOM;
        let n = &mut self.nodes[node];
        let parked_for_job = n.parked.iter().filter(|p| p.job == job).count();
        if parked_for_job >= cap {
            n.nic.stats.dropped_no_context += 1;
            self.stats.drops += 1;
            let tx = self
                .net
                .transmit(now, node, pkt.src_host, CONTROL_PACKET_BYTES);
            sched.at(
                tx.arrival,
                Event::FrameArrive {
                    node: pkt.src_host,
                    frame: Frame::DropNotify {
                        job,
                        src_host: pkt.src_host,
                        drop_host: node,
                    },
                },
            );
            return;
        }
        n.parked.push(pkt);
        self.begin_fault(now, node, job, sched);
    }

    /// Reliability layer: make sure a RetransTimeout event is outstanding
    /// for this process (armed on every fragment injection; cheap no-op
    /// while one is pending). The delay grows exponentially with
    /// consecutive no-progress firings.
    pub(crate) fn arm_retrans_timer(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        sched: &mut Sched,
    ) {
        debug_assert!(self.cfg.reliability.enabled);
        let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
        if proc.rel_timer_armed {
            return;
        }
        proc.rel_timer_armed = true;
        let shift = proc.rel_backoff.min(BACKOFF_CAP);
        let delay = Cycles(RETRANS_TIMEOUT.raw() << shift);
        sched.at(now + delay, Event::RetransTimeout { node, pid });
    }

    /// The go-back-N retransmit timer fired. If the ack horizon moved since
    /// the last firing the timer just re-arms; if not, the whole unacked
    /// window is re-pushed into the context's (empty) send queue.
    /// A timer may outlive its process: teardown waited for
    /// `rel_unacked() == 0`, so firing after the eviction is a no-op.
    pub(super) fn on_retrans_timeout(
        &mut self,
        now: SimTime,
        node: usize,
        pid: Pid,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        let Some(proc) = n.apps.get_mut(&pid) else {
            assert!(
                n.exited.iter().any(|e| e.pid == pid),
                "RetransTimeout for unknown process {pid}"
            );
            return;
        };
        proc.rel_timer_armed = false;
        if proc.fm.rel_unacked() == 0 {
            proc.rel_backoff = 0;
            if proc.phase == ProcPhase::Finished {
                // The last ack may have arrived with no Refill retry
                // pending: the deferred teardown can proceed now.
                self.try_end_job(now, node, pid, sched);
            }
            return;
        }
        let acked = proc.fm.rel_acked_total();
        if acked > proc.rel_progress_mark {
            // Acks are flowing — no loss suspected, just a long queue.
            proc.rel_progress_mark = acked;
            proc.rel_backoff = 0;
            self.arm_retrans_timer(now, node, pid, sched);
            return;
        }
        let job = proc.fm.job;
        let n = &mut self.nodes[node];
        let retransmitted = match n.nic.find_context(job) {
            // Retransmit only through an idle, resident context with an
            // empty send queue: anything still queued will be transmitted
            // anyway, and duplicating it would only waste wire time.
            Some(ctx_id) if n.nic.context(ctx_id).unwrap().send_q.is_empty() => {
                let free = n.nic.context(ctx_id).unwrap().send_q.free();
                let pkts = n.apps.get_mut(&pid).unwrap().fm.retransmit_packets(free);
                let k = pkts.len() as u64;
                debug_assert!(k > 0, "unacked window but nothing to retransmit");
                for p in pkts {
                    n.nic
                        .context_mut(ctx_id)
                        .unwrap()
                        .send_q
                        .push(p)
                        .expect("retransmit overran the free space just measured");
                }
                // Host cost of scanning the ring and re-pushing.
                let _ = n.cpu.reserve(now, fastmsg::costs::RETRANS_SCAN * k);
                self.stats.retransmits += k;
                self.trace.emit(now, Category::Fm, Some(node), || {
                    format!("{pid} go-back-N retransmit of {k} packets")
                });
                true
            }
            // Context swapped out (mid-switch) or queue busy: just back off.
            _ => false,
        };
        let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
        proc.rel_backoff = (proc.rel_backoff + 1).min(BACKOFF_CAP);
        self.arm_retrans_timer(now, node, pid, sched);
        if retransmitted {
            self.kick_send_engine(now, node, sched);
        }
    }

    /// Periodic demand-window rebalance (`BufferPolicy::Demand` only):
    /// every process on the node folds its observed traffic into its EWMA
    /// and schedules credit-window moves, then the node's timer re-arms.
    /// The pass itself is free of simulated time — it is NIC-local
    /// bookkeeping over a handful of counters, dwarfed by any real event —
    /// so the moves take effect through the ordinary consume/refill path.
    pub(super) fn on_demand_rebalance(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let mut realloc = 0u64;
        let mut migrated = 0u64;
        for proc in self.nodes[node].apps.values_mut() {
            let before = proc
                .fm
                .flow
                .demand()
                .map(|d| d.stats.realloc_events)
                .unwrap_or(0);
            if let Some(m) = proc.fm.flow.demand_rebalance() {
                migrated += m;
                let after = proc.fm.flow.demand().unwrap().stats.realloc_events;
                realloc += after - before;
            }
        }
        if realloc > 0 {
            self.stats.realloc_events += realloc;
            self.stats.credits_migrated += migrated;
            self.trace.emit(now, Category::Fm, Some(node), || {
                format!("demand rebalance: {realloc} ledgers changed, {migrated} credits granted")
            });
        }
        sched.at(
            now + self.cfg.fm.demand.rebalance_interval,
            Event::DemandRebalance { node },
        );
    }

    fn start_fault(&mut self, now: SimTime, node: usize, job: u32, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        n.fault_in_progress = Some(job);
        n.faults += 1;
        // Cost: fixed fault overhead + save of the victim (if eviction is
        // needed) + restore of the faulted endpoint's saved queues.
        let mut cost = FAULT_OVERHEAD;
        if !self.endpoint_fits(node) {
            if let Some(victim) = self.vn_lru_victim(node) {
                let ctx = self.nodes[node].nic.context(victim).unwrap();
                let (s, r) = (ctx.send_q.len(), ctx.recv_q.len());
                cost += switcher::save_cost(self.cfg.copy, &self.cfg.fm, s, r);
            }
        }
        let proc = self.nodes[node].apps.values().find(|p| p.fm.job == job);
        if let Some((s, r)) = proc.and_then(|p| p.saved.as_ref()).map(|s| s.occupancy()) {
            cost += switcher::restore_cost(self.cfg.copy, &self.cfg.fm, s, r);
        }
        self.trace.emit(now, Category::Nic, Some(node), || {
            format!("endpoint fault for job {job}")
        });
        let r = self.nodes[node].cpu.reserve(now, cost);
        sched.at(r.end, Event::FaultDone { node, job });
    }

    /// Would one more endpoint fit on `node`'s NIC: a free context slot
    /// and send-buffer room for its queue?
    fn endpoint_fits(&self, node: usize) -> bool {
        let nic = &self.nodes[node].nic;
        let send_bytes = self.cfg.fm.geometry().send_slots as u64 * nic.packet_bytes;
        nic.resident_contexts().count() < self.cfg.fm.max_contexts
            && nic.send_ram_used() + send_bytes <= nic.send_buf_bytes
    }

    /// The least recently used resident endpoint.
    fn vn_lru_victim(&self, node: usize) -> Option<usize> {
        let nic = &self.nodes[node].nic;
        nic.resident_contexts()
            .min_by_key(|&c| nic.context(c).unwrap().last_use)
    }

    /// Fault service completed: evict if needed, install the endpoint,
    /// deliver parked traffic, unblock waiters, start the next fault.
    pub(super) fn on_fault_done(&mut self, now: SimTime, node: usize, job: u32, sched: &mut Sched) {
        debug_assert_eq!(self.nodes[node].fault_in_progress, Some(job));
        let geo = self.cfg.fm.geometry();
        // Evict until the endpoint fits.
        while !self.endpoint_fits(node) {
            let victim = self
                .vn_lru_victim(node)
                .expect("no endpoint to evict but no room either");
            let n = &mut self.nodes[node];
            let vjob = n.nic.context(victim).expect("victim is resident").job;
            match n.find_proc_by_job(vjob) {
                Some(vpid) => n.save_context(victim, vpid),
                // The job was torn down here while this endpoint's fault
                // was in service (its last ack arrived meanwhile); no
                // process will ever read it.
                None => drop(n.nic.free_context(victim)),
            }
            self.trace.emit(now, Category::Nic, Some(node), || {
                format!("evicted endpoint of job {vjob}")
            });
        }
        // Install the faulted endpoint.
        let n = &mut self.nodes[node];
        let pid = n.find_proc_by_job(job);
        let rank = pid.map_or(0, |p| n.apps[&p].rank);
        let ctx_id = n
            .nic
            .alloc_context(job, rank, geo.send_slots, geo.recv_slots)
            .expect("room was just made");
        if let Some(pid) = pid {
            n.restore_context(pid, ctx_id);
        }
        n.nic.context_mut(ctx_id).unwrap().last_use = now;
        n.fault_in_progress = None;

        // Deliver parked packets for this endpoint, preserving arrival
        // order.
        let parked: Vec<_> = {
            let n = &mut self.nodes[node];
            let (mine, rest): (Vec<_>, Vec<_>) = n.parked.drain(..).partition(|p| p.job == job);
            n.parked = rest;
            mine
        };
        for pkt in parked {
            // Re-enters the normal landing path (engine cost was already
            // paid on arrival; landing now is free of NIC time).
            self.land_packet(now, node, pkt, sched);
        }

        // Inject any fragment deferred by a mid-send eviction, then wake
        // fault waiters.
        if let Some(pid) = pid {
            let n = &mut self.nodes[node];
            if let Some(pkt) = n.apps.get_mut(&pid).unwrap().deferred_pkt.take() {
                let ctx_id = n.nic.find_context(job).unwrap();
                n.nic
                    .context_mut(ctx_id)
                    .unwrap()
                    .send_q
                    .push(pkt)
                    .expect("fresh endpoint cannot be full");
                self.kick_send_engine(now, node, sched);
            }
            // Wake the owner if it is blocked at all, not only on
            // ContextFault: a RecvWait-blocked process whose endpoint just
            // faulted in (its saved queues restored) re-polls and
            // finds its parked arrivals; a spurious kick is a no-op.
            if self.nodes[node].apps[&pid].blocked.is_some() {
                sched.immediately(Event::ProcKick { node, pid });
            }
        }
        self.drain_pending_refills(now, node, sched);

        // Serve the next queued fault.
        if let Some(next) = self.nodes[node].fault_queue.pop_front() {
            if self.nodes[node].nic.find_context(next).is_none() {
                self.start_fault(now, node, next, sched);
            }
        }
    }
}
