//! Data-plane handler: the NIC send/receive engines, frame arrival, and
//! the halt/ready serial broadcasts.
//!
//! A serial broadcast sends N−1 frames back to back (paper §3.2). Rather
//! than queueing N−1 arrival events at once, the world parks the
//! broadcast's arrivals as a *train* (`Trains`) and keeps only the
//! earliest in the engine queue; handling it queues the next. Every
//! arrival keeps the seq it would have drawn as its own event, so the
//! delivery order is unchanged (DESIGN.md §3i).

use fastmsg::packet::{Packet, PacketKind};
use gang_comm::strategy::SwitchStrategy;
use hostsim::process::Pid;
use myrinet::broadcast::{serial_broadcast, CONTROL_PACKET_BYTES};
use sim_core::time::SimTime;
use sim_core::trace::Category;

use crate::bus::Bus;
use crate::event::{AppEvent, Frame, NicEvent};
use crate::handlers::{AppHandler, DaemonHandler, FmHandler, NicHandler, SwitchHandler};
use crate::procsim::{BlockReason, ProcPhase};
use crate::world::World;

impl NicHandler for World {
    fn on_nic(&mut self, now: SimTime, ev: NicEvent, bus: &mut Bus) {
        match ev {
            NicEvent::FrameArrive { node, frame } => self.on_frame_arrive(now, node, frame, bus),
            NicEvent::SendEngineDone { node } => self.on_send_engine_done(now, node, bus),
            NicEvent::RecvEngineDone { node, pkt } => self.land_packet(now, node, pkt, bus),
            NicEvent::HaltBroadcastDone { node } => self.on_halt_broadcast_done(now, node, bus),
            NicEvent::ReadyBroadcastDone { node } => self.on_ready_broadcast_done(now, node, bus),
            NicEvent::BroadcastArrive { train } => self.on_broadcast_arrive(now, train, bus),
        }
    }

    /// Let the send engine pick up work if it is idle: the LANai send
    /// context scanning the send queues (paper §2.2), extended with the
    /// halt-bit check on packet boundaries (paper §3.2).
    fn kick_send_engine(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        if n.send_engine_busy {
            return;
        }
        if n.nic.halt_bit() {
            if n.halt_requested && !n.halt_broadcast_started {
                self.begin_halt_broadcast(now, node, bus);
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
        let overhead = n.nic.costs.send_per_packet;
        // The single LANai processor must be free of queued receive work
        // before the send context can run.
        let fw_done = n.nic.reserve_engine(now, overhead);
        let tx = self
            .net
            .transmit(fw_done, node, pkt.dst_host, pkt.wire_bytes());
        let n = &mut self.nodes[node];
        n.nic.engine_extend_to(tx.injection_done);
        n.nic.stats.data_sent += 1;
        n.send_engine_busy = true;
        if matches!(self.cfg.strategy, SwitchStrategy::AckDrain) && pkt.kind == PacketKind::Data {
            n.outstanding += 1;
        }
        let dst = pkt.dst_host;
        bus.emit(tx.injection_done, NicEvent::SendEngineDone { node });
        if self.lose_frame() {
            return;
        }
        bus.emit(
            tx.arrival,
            NicEvent::FrameArrive {
                node: dst,
                frame: Frame::Data(pkt),
            },
        );
    }

    /// Start the serial halt broadcast (the send engine is at a packet
    /// boundary with the halt bit set).
    fn begin_halt_broadcast(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        let n = &mut self.nodes[node];
        debug_assert!(n.nic.halt_bit() && n.halt_requested);
        n.halt_broadcast_started = true;
        self.serial_control_broadcast(now, node, Signal::Halt, bus);
    }

    /// Start the serial ready broadcast (release phase).
    fn begin_ready_broadcast(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.serial_control_broadcast(now, node, Signal::Ready, bus);
    }

    /// The receive engine landed one packet (also the re-entry point for
    /// parked packets the FM handler delivers after a fault).
    fn land_packet(&mut self, now: SimTime, node: usize, pkt: Packet, bus: &mut Bus) {
        if pkt.kind == PacketKind::Refill {
            // Refills are consumed at the NIC layer: credits are host
            // memory, no queue slot is used (paper §2.2).
            self.nodes[node].nic.stats.data_received += 1;
            let pid = self.find_proc_by_job(node, pkt.job);
            if let Some(pid) = pid {
                let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                proc.fm.on_refill(&pkt);
                if matches!(proc.blocked, Some(BlockReason::Credits { peer }) if peer == pkt.src_host)
                {
                    bus.emit_now(AppEvent::ProcKick { node, pid });
                }
                // Reliability: the piggybacked ack may have released the
                // last unacked packet of a finished process whose teardown
                // was deferred on it.
                if self.cfg.reliability.enabled
                    && self.nodes[node].apps[&pid].phase == ProcPhase::Finished
                {
                    self.try_end_job(now, node, pid, bus);
                }
            }
            return;
        }
        // Data packet: land it in its context's receive queue.
        let vn = self.vn_active();
        let n = &mut self.nodes[node];
        match n.nic.find_context(pkt.job) {
            None if vn => {
                // Virtual-networks semantics: hold the packet and fault
                // the endpoint in.
                self.vn_park_arrival(now, node, pkt, bus);
            }
            None if self.cfg.reliability.enabled => {
                // A late retransmission arrived after the destination
                // context was torn down (its job finished while copies were
                // in flight). Send a context-free cumulative ack home so
                // the sender's retransmit timer stops chasing it.
                n.nic.stats.dropped_no_context += 1;
                let ghost = pkt.ghost_ack();
                let tx = self
                    .net
                    .transmit(now, node, ghost.dst_host, ghost.wire_bytes());
                if !self.lose_frame() {
                    bus.emit(
                        tx.arrival,
                        NicEvent::FrameArrive {
                            node: ghost.dst_host,
                            frame: Frame::Data(ghost),
                        },
                    );
                }
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
                n.nic.stats.dropped_no_context += 1;
                self.stats.drops += 1;
                let notify = Frame::DropNotify {
                    job: pkt.job,
                    src_host: pkt.src_host,
                    drop_host: node,
                };
                let tx = self
                    .net
                    .transmit(now, node, pkt.src_host, CONTROL_PACKET_BYTES);
                bus.emit(
                    tx.arrival,
                    NicEvent::FrameArrive {
                        node: pkt.src_host,
                        frame: notify,
                    },
                );
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
                n.nic
                    .context_mut(ctx_id)
                    .unwrap()
                    .recv_q
                    .push(pkt)
                    .expect("receive ring overflow: credit accounting violated");
                n.nic.stats.data_received += 1;
                self.vn_touch(now, node, job);
                // Wake the owning process if it is waiting for traffic.
                if let Some(pid) = self.find_proc_by_job(node, job) {
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
                        bus.emit_now(AppEvent::ProcKick { node, pid });
                    }
                    // Dynamic coscheduling (§5): the arrival preempts the
                    // node in favor of the destination process.
                    if self.cfg.dynamic_coscheduling && !self.cfg.gang_scheduling {
                        self.dynamic_cosched_preempt(now, node, pid, bus);
                    }
                }
                // AckDrain: acknowledge receipt to the sender's NIC.
                if self.cfg.strategy.uses_acks() {
                    let tx = self.net.transmit(now, node, src_host, CONTROL_PACKET_BYTES);
                    bus.emit(
                        tx.arrival,
                        NicEvent::FrameArrive {
                            node: src_host,
                            frame: Frame::Ack { to: src_host },
                        },
                    );
                }
            }
        }
    }
}

impl World {
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
    fn on_send_engine_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        // Queue space freed: unblock senders, flush deferred refills, and
        // complete any deferred job teardown. The collect is gated behind a
        // cheap scan — on the streaming fast path nothing here applies and
        // this handler must stay allocation-free.
        let any_waiting = self.nodes[node]
            .apps
            .values()
            .any(|p| p.blocked == Some(BlockReason::SendSpace) || p.phase == ProcPhase::Finished);
        if any_waiting {
            let pids: Vec<Pid> = self.nodes[node].apps.keys().copied().collect();
            for pid in pids {
                let proc = &self.nodes[node].apps[&pid];
                if proc.blocked == Some(BlockReason::SendSpace) {
                    bus.emit_now(AppEvent::ProcKick { node, pid });
                }
                if proc.phase == ProcPhase::Finished {
                    self.try_end_job(now, node, pid, bus);
                }
            }
        }
        self.drain_pending_refills(now, node, bus);
        self.kick_send_engine(now, node, bus);
    }

    /// A frame fully arrived at this node's NIC.
    fn on_frame_arrive(&mut self, now: SimTime, node: usize, frame: Frame, bus: &mut Bus) {
        match frame {
            Frame::Data(pkt) => {
                // Both data and refill packets pass through the receive
                // engine (interrupt + classify + DMA).
                let n = &mut self.nodes[node];
                let work = n.nic.costs.recv_cycles(pkt.wire_bytes());
                let end = n.nic.reserve_engine(now, work);
                bus.emit(end, NicEvent::RecvEngineDone { node, pkt });
            }
            Frame::Ack { to } => {
                debug_assert_eq!(to, node);
                let n = &mut self.nodes[node];
                n.nic.stats.control_received += 1;
                assert!(n.outstanding > 0, "ack without outstanding packet");
                n.outstanding -= 1;
                if n.outstanding == 0 {
                    self.alt_drain_maybe_done(now, node, bus);
                }
            }
            Frame::DropNotify {
                job,
                src_host,
                drop_host,
            } => {
                debug_assert_eq!(src_host, node);
                // Return the credit the dropped packet consumed, standing
                // in for the higher-layer retransmission path.
                let pid = self.find_proc_by_job(node, job);
                if let Some(pid) = pid {
                    let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                    proc.fm.flow.refill(drop_host, 1);
                    if proc.blocked == Some(BlockReason::Credits { peer: drop_host }) {
                        bus.emit_now(AppEvent::ProcKick { node, pid });
                    }
                }
                // Under AckDrain a nack settles the outstanding packet too.
                if self.cfg.strategy.uses_acks() {
                    let n = &mut self.nodes[node];
                    assert!(n.outstanding > 0, "nack without outstanding packet");
                    n.outstanding -= 1;
                    if n.outstanding == 0 {
                        self.alt_drain_maybe_done(now, node, bus);
                    }
                }
            }
        }
    }

    /// The halt broadcast finished: the local halt ("lh") transition.
    fn on_halt_broadcast_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        let complete = self.nodes[node].seq.on_local_halt();
        self.trace.emit(now, Category::Switch, Some(node), || {
            format!(
                "local halt done, state {}",
                self.nodes[node].seq.flush_label()
            )
        });
        if complete {
            self.finish_flush(now, node, bus);
        } else if self.cfg.reliability.enabled
            && self.nodes[node].seq.phase() == gang_comm::sequencer::SwitchPhase::Releasing
        {
            // This completion was a recovery re-broadcast from a node
            // already past the flush: repeat the ready broadcast too, in
            // case that was the frame that got lost.
            self.rebroadcast_ready(now, node, bus);
        }
    }

    /// The ready broadcast finished: the local ready transition.
    fn on_ready_broadcast_done(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.nodes[node].send_engine_busy = false;
        if self.nodes[node].seq.on_local_ready() {
            self.finish_release(now, node, bus);
        } else if self.cfg.reliability.enabled {
            // A recovery re-broadcast completion (the sequencer treated it
            // as a no-op): the engine was reserved for it, so let queued
            // data traffic resume. During a real release this kick is a
            // no-op — the halt bit is still set.
            self.kick_send_engine(now, node, bus);
        }
    }

    /// Reliability layer: repeat the halt broadcast for the in-flight
    /// epoch (a ResendProtocol response). Every receiver treats the copies
    /// idempotently, including our own completion event.
    pub(crate) fn rebroadcast_halt(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.rebroadcast(now, node, Signal::Halt, bus);
    }

    /// Reliability layer: repeat the ready broadcast (see
    /// [`World::rebroadcast_halt`]).
    pub(crate) fn rebroadcast_ready(&mut self, now: SimTime, node: usize, bus: &mut Bus) {
        self.rebroadcast(now, node, Signal::Ready, bus);
    }

    fn rebroadcast(&mut self, now: SimTime, node: usize, signal: Signal, bus: &mut Bus) {
        debug_assert!(self.cfg.reliability.enabled);
        debug_assert!(!self.nodes[node].send_engine_busy);
        self.stats.rebroadcasts += 1;
        self.serial_control_broadcast(now, node, signal, bus);
    }

    /// The LANai's serial-loop broadcast of one halt or ready frame to
    /// every peer, with its send engine held for the whole loop.
    ///
    /// The frames go on the wire (and through the loss draw) in
    /// destination order, and each surviving frame claims the seq its own
    /// arrival event would take. The arrivals are then sorted by
    /// `(time, seq)` — on a fat-tree they are not monotone in destination
    /// order — and parked as a train; only the earliest is queued.
    fn serial_control_broadcast(
        &mut self,
        now: SimTime,
        node: usize,
        signal: Signal,
        bus: &mut Bus,
    ) {
        let n = &mut self.nodes[node];
        n.send_engine_busy = true;
        let peers = self.cfg.nodes - 1;
        let firmware = n.nic.costs.control_packet * peers as u64;
        let frame = ControlFrame {
            signal,
            epoch: n.seq.epoch,
            src: node,
        };
        n.nic.stats.control_sent += peers as u64;
        let start = n.nic.reserve_engine(now, firmware);
        let mut sends = std::mem::take(&mut self.bcast_sends);
        serial_broadcast(&mut self.net, start, node, CONTROL_PACKET_BYTES, &mut sends);
        let train = self.trains.open(frame);
        for &(dst, tx) in &sends {
            if self.lose_frame() {
                continue;
            }
            let seq = bus.claim_seq();
            self.trains.add(train, tx.arrival, seq, dst);
        }
        let done = sends.last().map_or(start, |(_, tx)| tx.injection_done);
        self.bcast_sends = sends;
        self.nodes[node].nic.engine_extend_to(done);
        bus.emit(done, signal.done(node));
        if let Some((t, seq)) = self.trains.seal(train) {
            bus.push_claimed(t, seq, NicEvent::BroadcastArrive { train });
        }
    }

    /// The head of a broadcast train arrived: queue the train's next
    /// arrival, then deliver this one.
    fn on_broadcast_arrive(&mut self, now: SimTime, train: u32, bus: &mut Bus) {
        let (node, frame, next) = self.trains.advance(train);
        if let Some((t, seq)) = next {
            bus.push_claimed(t, seq, NicEvent::BroadcastArrive { train });
        }
        let ControlFrame { signal, epoch, src } = frame;
        self.nodes[node].nic.stats.control_received += 1;
        match signal {
            Signal::Halt => {
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("halt from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_halt_msg(epoch, src) {
                    self.finish_flush(now, node, bus);
                }
            }
            Signal::Ready => {
                self.trace.emit(now, Category::Switch, Some(node), || {
                    format!("ready from n{src} (epoch {epoch})")
                });
                if self.nodes[node].seq.on_ready_msg(epoch, src) {
                    self.finish_release(now, node, bus);
                }
            }
        }
    }
}

/// Which serial control broadcast a NIC sends.
#[derive(Debug, Clone, Copy)]
enum Signal {
    /// Flush phase: the specially-tagged halt packet.
    Halt,
    /// Release phase: the ready packet.
    Ready,
}

impl Signal {
    /// The event that ends the broadcast on the sending NIC.
    fn done(self, node: usize) -> NicEvent {
        match self {
            Signal::Halt => NicEvent::HaltBroadcastDone { node },
            Signal::Ready => NicEvent::ReadyBroadcastDone { node },
        }
    }
}

/// The control packet a serial broadcast carries to every peer.
#[derive(Debug, Clone, Copy)]
struct ControlFrame {
    signal: Signal,
    /// Switch epoch it belongs to.
    epoch: u64,
    /// Emitting node.
    src: usize,
}

/// One arrival of a broadcast train: `(time, claimed seq, destination)`.
type Stop = (SimTime, u64, usize);

/// One in-flight serial broadcast: the frame and its undelivered arrivals.
#[derive(Debug)]
struct Train {
    frame: ControlFrame,
    /// Arrivals sorted by `(time, seq)`; `stops[next]` is the queued one.
    stops: Vec<Stop>,
    next: usize,
}

/// Slab of in-flight broadcast trains, indexed by
/// [`NicEvent::BroadcastArrive`]'s `train`. Finished slots (and their
/// arrival buffers) are recycled, so a steady rotation allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Trains {
    slab: Vec<Train>,
    free: Vec<u32>,
}

impl Trains {
    /// Start an empty train carrying `frame`.
    fn open(&mut self, frame: ControlFrame) -> u32 {
        match self.free.pop() {
            Some(id) => {
                let t = &mut self.slab[id as usize];
                t.frame = frame;
                t.stops.clear();
                t.next = 0;
                id
            }
            None => {
                self.slab.push(Train {
                    frame,
                    stops: Vec::new(),
                    next: 0,
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Add one arrival to an open train.
    fn add(&mut self, id: u32, t: SimTime, seq: u64, dst: usize) {
        self.slab[id as usize].stops.push((t, seq, dst));
    }

    /// Close a train: sort its arrivals and return the head's key, or free
    /// the slot and return `None` if every frame was lost.
    fn seal(&mut self, id: u32) -> Option<(SimTime, u64)> {
        let stops = &mut self.slab[id as usize].stops;
        // Seqs are unique, so `(time, seq)` alone decides the order.
        stops.sort_unstable();
        match stops.first() {
            Some(&(t, seq, _)) => Some((t, seq)),
            None => {
                self.free.push(id);
                None
            }
        }
    }

    /// Take a train's head: its destination and frame, plus the next
    /// arrival's key. A train whose last arrival this was is freed.
    fn advance(&mut self, id: u32) -> (usize, ControlFrame, Option<(SimTime, u64)>) {
        let train = &mut self.slab[id as usize];
        let (_, _, dst) = train.stops[train.next];
        train.next += 1;
        let next = train.stops.get(train.next).map(|&(t, seq, _)| (t, seq));
        let frame = train.frame;
        if next.is_none() {
            self.free.push(id);
        }
        (dst, frame, next)
    }
}
