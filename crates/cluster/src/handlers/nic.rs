//! Data-plane handler: the NIC send/receive engines, frame arrival, and
//! the halt/ready serial broadcasts.
//!
//! A serial broadcast sends N−1 frames back to back (paper §3.2). Rather
//! than queueing N−1 arrival events at once, the world parks the
//! broadcast's arrivals as a [train](crate::train) and keeps only the
//! earliest in the engine queue (DESIGN.md §3i).

use fastmsg::packet::{Packet, PacketKind};
use lanai::costs;
use myrinet::broadcast::{serial_peer, CONTROL_PACKET_BYTES};
use sim_core::time::SimTime;
use sim_core::trace::Category;

use crate::event::{Event, Frame, Sched};
use crate::procsim::{BlockReason, ProcPhase};
use crate::world::World;

impl World {
    /// Let the send engine pick up work if it is idle: the LANai send
    /// context scanning the send queues (paper §2.2), extended with the
    /// halt-bit check on packet boundaries (paper §3.2).
    pub(crate) fn kick_send_engine(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        if n.send_engine_busy {
            return;
        }
        if n.nic.halt_bit() {
            // Only the flush protocol broadcasts its halt; a baseline's
            // halt bit just stops sending.
            if self.cfg.strategy.uses_flush_protocol() && !n.halt_broadcast_started {
                self.begin_halt_broadcast(now, node, sched);
            }
            return;
        }
        // Scan contexts for a pending packet (round-robin is moot: under
        // gang scheduling only the running job produces traffic).
        let Some(ctx_id) = n
            .nic
            .resident_contexts()
            .find(|&c| !n.nic.context(c).unwrap().send_q.is_empty())
        else {
            return;
        };
        let pkt = n.nic.context_mut(ctx_id).unwrap().send_q.pop().unwrap();
        // The single LANai processor must be free of queued receive work
        // before the send context can run.
        let fw_done = n.nic.reserve_engine(now, costs::SEND_PER_PACKET);
        n.nic.stats.data_sent += 1;
        n.send_engine_busy = true;
        if self.cfg.strategy.uses_acks() && pkt.kind == PacketKind::Data {
            n.outstanding += 1;
        }
        let injected = self.send_frame(fw_done, node, pkt.dst_host, Frame::Data(pkt), sched);
        self.nodes[node].nic.engine_extend_to(injected);
        sched.at(injected, Event::SendEngineDone { node });
    }

    /// Put one unicast frame on the wire from `src` to `dst` at `t`, and
    /// return when its injection ends. The frame's kind sets its size, and
    /// only FM packets go through the loss draw: acks and drop notices are
    /// NIC-generated control packets that the recovery paths rely on.
    pub(crate) fn send_frame(
        &mut self,
        t: SimTime,
        src: usize,
        dst: usize,
        frame: Frame,
        sched: &mut Sched,
    ) -> SimTime {
        let (bytes, lossy) = match &frame {
            Frame::Data(pkt) => (pkt.wire_bytes(), true),
            Frame::Ack | Frame::DropNotify { .. } => (CONTROL_PACKET_BYTES, false),
        };
        let tx = self.net.transmit(t, src, dst, bytes);
        if !(lossy && self.lose_frame()) {
            sched.at(tx.arrival, Event::FrameArrive { node: dst, frame });
        }
        tx.injection_done
    }

    /// Discard a data packet that found no context to land in, and send
    /// its sender a drop notice that returns the packet's credit.
    pub(crate) fn drop_no_context(
        &mut self,
        now: SimTime,
        node: usize,
        pkt: &Packet,
        sched: &mut Sched,
    ) {
        self.nodes[node].nic.stats.dropped_no_context += 1;
        self.stats.drops += 1;
        let notice = Frame::DropNotify {
            job: pkt.job,
            drop_rank: pkt.dst_rank,
        };
        self.send_frame(now, node, pkt.src_host, notice, sched);
    }

    /// Start the serial halt broadcast (the send engine is at a packet
    /// boundary with the halt bit set).
    pub(crate) fn begin_halt_broadcast(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        debug_assert!(n.nic.halt_bit());
        n.halt_broadcast_started = true;
        self.serial_control_broadcast(now, node, Signal::Halt, sched);
    }

    /// The receive engine landed one packet (also the re-entry point for
    /// parked packets the FM handler delivers after a fault).
    pub(crate) fn land_packet(
        &mut self,
        now: SimTime,
        node: usize,
        pkt: Packet,
        sched: &mut Sched,
    ) {
        if pkt.kind == PacketKind::Refill {
            // Refills are consumed at the NIC layer: credits are host
            // memory, no queue slot is used (paper §2.2).
            self.nodes[node].nic.stats.data_received += 1;
            let pid = self.nodes[node].find_proc_by_job(pkt.job);
            if let Some(pid) = pid {
                let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                proc.fm.on_refill(&pkt);
                if matches!(proc.blocked, Some(BlockReason::Credits { peer }) if peer == pkt.src_rank)
                {
                    sched.immediately(Event::ProcKick { node, pid });
                }
                // Reliability: the piggybacked ack may have released the
                // last unacked packet of a finished process whose teardown
                // was deferred on it.
                if self.cfg.reliability.enabled
                    && self.nodes[node].apps[&pid].phase == ProcPhase::Finished
                {
                    self.try_end_job(now, node, pid, sched);
                }
            }
            return;
        }
        // Data packet: land it in its context's receive queue.
        let vn = self.vn_active();
        let n = &mut self.nodes[node];
        match n.nic.find_context(pkt.job) {
            None if self.cfg.reliability.enabled
                && (!vn || n.exited.iter().any(|e| e.job.0 == pkt.job)) =>
            {
                // A late retransmission arrived after the destination
                // context was torn down (its job finished while copies were
                // in flight). Send a context-free cumulative ack home so
                // the sender's retransmit timer stops chasing it. Under
                // virtual networks a missing context is usually an
                // evicted endpoint, so only a job this node has torn down
                // takes this branch.
                n.nic.stats.dropped_no_context += 1;
                let ghost = pkt.ghost_ack();
                self.send_frame(now, node, ghost.dst_host, Frame::Data(ghost), sched);
            }
            None if vn => {
                // Virtual-networks semantics: hold the packet and fault
                // the endpoint in.
                self.vn_park_arrival(now, node, pkt, sched);
            }
            None => {
                // Only the no-flush baselines can reach this: the context
                // was swapped out with packets still in flight.
                assert!(
                    self.cfg.strategy.may_drop(),
                    "data packet for non-resident context under {} (job {})",
                    self.cfg.strategy.name(),
                    pkt.job
                );
                self.drop_no_context(now, node, &pkt, sched);
            }
            Some(ctx_id) => {
                let src_host = pkt.src_host;
                let job = pkt.job;
                if self.cfg.reliability.enabled && n.nic.context(ctx_id).unwrap().recv_q.is_full() {
                    // Retransmitted duplicates do not consume credits, so
                    // they can arrive with the credit-sized ring already
                    // full; drop silently — go-back-N retries until a slot
                    // frees up.
                    n.nic.stats.dropped_ring_full += 1;
                    return;
                }
                let ctx = n.nic.context_mut(ctx_id).unwrap();
                ctx.recv_q
                    .push(pkt)
                    .expect("receive ring overflow: credit accounting violated");
                ctx.last_use = now;
                n.nic.stats.data_received += 1;
                // Wake the owning process if it is waiting for traffic.
                if let Some(pid) = self.nodes[node].find_proc_by_job(job) {
                    let proc = &self.nodes[node].apps[&pid];
                    if !proc.busy
                        && matches!(
                            proc.blocked,
                            Some(
                                BlockReason::RecvWait { .. }
                                    | BlockReason::Credits { .. }
                                    | BlockReason::SendSpace
                            )
                        )
                    {
                        sched.immediately(Event::ProcKick { node, pid });
                    }
                    // Dynamic coscheduling (§5): the arrival preempts the
                    // node in favor of the destination process.
                    if self.cfg.dynamic_coscheduling && !self.cfg.gang_scheduling {
                        self.dynamic_cosched_preempt(now, node, pid, sched);
                    }
                }
                // AckDrain: acknowledge receipt to the sender's NIC.
                if self.cfg.strategy.uses_acks() {
                    self.send_frame(now, node, src_host, Frame::Ack, sched);
                }
            }
        }
    }

    /// Fault injection: FM assumes "an insignificant error rate on a SAN"
    /// (§2.2); a lost frame silently never arrives. Applied to data
    /// packets, refills, and (so the recovery protocol is exercised too)
    /// halt/ready control broadcasts. Never touches the RNG at
    /// `wire_loss_ppm = 0`, keeping loss-free runs bit-identical.
    fn lose_frame(&mut self) -> bool {
        if self.cfg.wire_loss_ppm > 0 && self.rng.below(1_000_000) < self.cfg.wire_loss_ppm as u64 {
            self.stats.wire_losses += 1;
            true
        } else {
            false
        }
    }

    /// The send engine finished injecting a packet.
    pub(super) fn on_send_engine_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.nodes[node].send_engine_busy = false;
        // Queue space freed: unblock senders, flush deferred refills, and
        // complete any deferred job teardown. The pid snapshot goes into a
        // pooled buffer (`try_end_job` evicts mid-loop), so this handler
        // stays allocation-free in steady state.
        let any_waiting = self.nodes[node]
            .apps
            .values()
            .any(|p| p.blocked == Some(BlockReason::SendSpace) || p.phase == ProcPhase::Finished);
        if any_waiting {
            let mut pids = std::mem::take(&mut self.pid_buf);
            pids.clear();
            pids.extend(self.nodes[node].apps.values().map(|p| p.pid));
            for &pid in &pids {
                let proc = &self.nodes[node].apps[&pid];
                if proc.blocked == Some(BlockReason::SendSpace) {
                    sched.immediately(Event::ProcKick { node, pid });
                }
                if proc.phase == ProcPhase::Finished {
                    self.try_end_job(now, node, pid, sched);
                }
            }
            self.pid_buf = pids;
        }
        self.drain_pending_refills(now, node, sched);
        self.kick_send_engine(now, node, sched);
    }

    /// A frame fully arrived at this node's NIC.
    pub(super) fn on_frame_arrive(
        &mut self,
        now: SimTime,
        node: usize,
        frame: Frame,
        sched: &mut Sched,
    ) {
        match frame {
            Frame::Data(pkt) => {
                // Both data and refill packets pass through the receive
                // engine (interrupt + classify + DMA).
                let n = &mut self.nodes[node];
                let work = costs::recv_cycles(pkt.wire_bytes());
                let end = n.nic.reserve_engine(now, work);
                sched.at(end, Event::RecvEngineDone { node, pkt });
            }
            Frame::Ack => {
                let n = &mut self.nodes[node];
                assert!(n.outstanding > 0, "ack without outstanding packet");
                n.outstanding -= 1;
                if n.outstanding == 0 {
                    self.baseline_halt_maybe_done(now, node, sched);
                }
            }
            Frame::DropNotify { job, drop_rank } => {
                // Return the credit the dropped packet consumed, standing
                // in for the higher-layer retransmission path.
                let pid = self.nodes[node].find_proc_by_job(job);
                if let Some(pid) = pid {
                    let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                    proc.fm.flow.refill(drop_rank, 1);
                    if proc.blocked == Some(BlockReason::Credits { peer: drop_rank }) {
                        sched.immediately(Event::ProcKick { node, pid });
                    }
                }
                // Under AckDrain a nack settles the outstanding packet too.
                if self.cfg.strategy.uses_acks() {
                    let n = &mut self.nodes[node];
                    assert!(n.outstanding > 0, "nack without outstanding packet");
                    n.outstanding -= 1;
                    if n.outstanding == 0 {
                        self.baseline_halt_maybe_done(now, node, sched);
                    }
                }
            }
        }
    }

    /// The halt broadcast finished: the local halt ("lh") transition.
    pub(super) fn on_halt_broadcast_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.nodes[node].send_engine_busy = false;
        let complete = self.nodes[node].seq.on_local_halt();
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!(
                "local halt done, state {}",
                self.nodes[node].seq.flush_label()
            )
        });
        if complete {
            self.finish_flush(now, node, sched);
        } else if self.cfg.reliability.enabled
            && self.nodes[node].seq.phase() == gang_comm::sequencer::SwitchPhase::Releasing
        {
            // This completion was a recovery re-broadcast from a node
            // already past the flush: repeat the ready broadcast too, in
            // case that was the frame that got lost.
            self.rebroadcast(now, node, Signal::Ready, sched);
        }
    }

    /// The ready broadcast finished: the local ready transition.
    pub(super) fn on_ready_broadcast_done(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.nodes[node].send_engine_busy = false;
        if self.nodes[node].seq.on_local_ready() {
            self.finish_release(now, node, sched);
        } else if self.cfg.reliability.enabled {
            // A recovery re-broadcast completion (the sequencer treated it
            // as a no-op): the engine was reserved for it, so let queued
            // data traffic resume. During a real release this kick is a
            // no-op — the halt bit is still set.
            self.kick_send_engine(now, node, sched);
        }
    }

    /// Reliability layer: repeat this node's halt or ready broadcast for
    /// the in-flight epoch (a ResendProtocol response). Every receiver
    /// treats the copies idempotently, including our own completion event.
    pub(crate) fn rebroadcast(
        &mut self,
        now: SimTime,
        node: usize,
        signal: Signal,
        sched: &mut Sched,
    ) {
        debug_assert!(self.cfg.reliability.enabled);
        debug_assert!(!self.nodes[node].send_engine_busy);
        self.stats.rebroadcasts += 1;
        self.serial_control_broadcast(now, node, signal, sched);
    }

    /// The LANai's serial-loop broadcast of one halt or ready frame to
    /// every peer, with its send engine held for the whole loop.
    ///
    /// The frames go on the wire (and through the loss draw) in
    /// [`serial_peer`] order. The broadcast opens its train before
    /// anything else is scheduled, so frame `e` owns seq `base + e`
    /// whether or not it survives. The surviving arrivals are sorted by
    /// `(time, seq)` when the train is sealed — on a fat-tree they are not
    /// monotone in emission order — and only the earliest is queued.
    pub(crate) fn serial_control_broadcast(
        &mut self,
        now: SimTime,
        node: usize,
        signal: Signal,
        sched: &mut Sched,
    ) {
        let n = &mut self.nodes[node];
        n.send_engine_busy = true;
        let hosts = self.cfg.nodes;
        let peers = hosts - 1;
        let firmware = costs::CONTROL_PACKET * peers as u64;
        let frame = ControlFrame {
            signal,
            epoch: n.seq.epoch,
            src: node,
        };
        n.nic.stats.control_sent += peers as u64;
        let start = n.nic.reserve_engine(now, firmware);
        let train = self.broadcasts.open(frame, start, peers, sched);
        let mut t = start;
        for e in 0..peers {
            let dst = serial_peer(node, e, hosts);
            let tx = self.net.transmit(t, node, dst, CONTROL_PACKET_BYTES);
            t = tx.injection_done;
            if !self.lose_frame() {
                self.broadcasts.add(train, e, tx.arrival);
            }
        }
        self.nodes[node].nic.engine_extend_to(t);
        sched.at(t, signal.done(node));
        self.broadcasts.seal(train, sched);
    }

    /// The head of a broadcast train arrived: queue the train's next
    /// arrival, then deliver this one.
    pub(super) fn on_broadcast_arrive(&mut self, now: SimTime, train: u32, sched: &mut Sched) {
        let hosts = self.cfg.nodes;
        let (node, frame) = self.broadcasts.advance(train, sched, |frame, e| {
            (serial_peer(frame.src, e, hosts), *frame)
        });
        let ControlFrame { signal, epoch, src } = frame;
        match signal {
            Signal::Halt => {
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("halt from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_halt_msg(epoch, src) {
                    self.finish_flush(now, node, sched);
                }
            }
            Signal::Ready => {
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("ready from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_ready_msg(epoch, src) {
                    self.finish_release(now, node, sched);
                }
            }
        }
    }
}

/// Which serial control broadcast a NIC sends.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signal {
    /// Flush phase: the specially-tagged halt packet.
    Halt,
    /// Release phase: the ready packet.
    Ready,
}

impl Signal {
    /// The event that ends the broadcast on the sending NIC.
    fn done(self, node: usize) -> Event {
        match self {
            Signal::Halt => Event::HaltBroadcastDone { node },
            Signal::Ready => Event::ReadyBroadcastDone { node },
        }
    }
}

/// The control packet a serial broadcast carries to every peer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ControlFrame {
    signal: Signal,
    /// Switch epoch it belongs to.
    epoch: u64,
    /// Emitting node.
    src: usize,
}
