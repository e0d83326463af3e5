//! Data-plane handler: the NIC send/receive engines, frame arrival, and
//! the halt/ready serial broadcasts.
//!
//! A serial broadcast sends N−1 frames back to back (paper §3.2). Rather
//! than queueing N−1 arrival events at once, the world parks the
//! broadcast's arrivals as a *train* (`Trains`) and keeps only the
//! earliest in the engine queue; handling it queues the next. Frame `e`
//! of a broadcast owns seq `base + e` of one claimed block, so arrivals
//! are delivered in the order they would be as separate events
//! (DESIGN.md §3i).

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
            if n.halt_requested && !n.halt_broadcast_started {
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
        let tx = self
            .net
            .transmit(fw_done, node, pkt.dst_host, pkt.wire_bytes());
        let n = &mut self.nodes[node];
        n.nic.engine_extend_to(tx.injection_done);
        n.nic.stats.data_sent += 1;
        n.send_engine_busy = true;
        if self.cfg.strategy.uses_acks() && pkt.kind == PacketKind::Data {
            n.outstanding += 1;
        }
        let dst = pkt.dst_host;
        sched.at(tx.injection_done, Event::SendEngineDone { node });
        if self.lose_frame() {
            return;
        }
        sched.at(
            tx.arrival,
            Event::FrameArrive {
                node: dst,
                frame: Frame::Data(pkt),
            },
        );
    }

    /// Start the serial halt broadcast (the send engine is at a packet
    /// boundary with the halt bit set).
    pub(crate) fn begin_halt_broadcast(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        let n = &mut self.nodes[node];
        debug_assert!(n.nic.halt_bit() && n.halt_requested);
        n.halt_broadcast_started = true;
        self.serial_control_broadcast(now, node, Signal::Halt, sched);
    }

    /// Start the serial ready broadcast (release phase).
    pub(crate) fn begin_ready_broadcast(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.serial_control_broadcast(now, node, Signal::Ready, sched);
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
                if matches!(proc.blocked, Some(BlockReason::Credits { peer }) if peer == pkt.src_host)
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
                let tx = self
                    .net
                    .transmit(now, node, ghost.dst_host, ghost.wire_bytes());
                if !self.lose_frame() {
                    sched.at(
                        tx.arrival,
                        Event::FrameArrive {
                            node: ghost.dst_host,
                            frame: Frame::Data(ghost),
                        },
                    );
                }
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
                sched.at(
                    tx.arrival,
                    Event::FrameArrive {
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
                    let tx = self.net.transmit(now, node, src_host, CONTROL_PACKET_BYTES);
                    sched.at(
                        tx.arrival,
                        Event::FrameArrive {
                            node: src_host,
                            frame: Frame::Ack { to: src_host },
                        },
                    );
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
            Frame::Ack { to } => {
                debug_assert_eq!(to, node);
                let n = &mut self.nodes[node];
                n.nic.stats.control_received += 1;
                assert!(n.outstanding > 0, "ack without outstanding packet");
                n.outstanding -= 1;
                if n.outstanding == 0 {
                    self.alt_drain_maybe_done(now, node, sched);
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
                let pid = self.nodes[node].find_proc_by_job(job);
                if let Some(pid) = pid {
                    let proc = self.nodes[node].apps.get_mut(&pid).unwrap();
                    proc.fm.flow.refill(drop_host, 1);
                    if proc.blocked == Some(BlockReason::Credits { peer: drop_host }) {
                        sched.immediately(Event::ProcKick { node, pid });
                    }
                }
                // Under AckDrain a nack settles the outstanding packet too.
                if self.cfg.strategy.uses_acks() {
                    let n = &mut self.nodes[node];
                    assert!(n.outstanding > 0, "nack without outstanding packet");
                    n.outstanding -= 1;
                    if n.outstanding == 0 {
                        self.alt_drain_maybe_done(now, node, sched);
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
            self.rebroadcast_ready(now, node, sched);
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

    /// Reliability layer: repeat the halt broadcast for the in-flight
    /// epoch (a ResendProtocol response). Every receiver treats the copies
    /// idempotently, including our own completion event.
    pub(crate) fn rebroadcast_halt(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.rebroadcast(now, node, Signal::Halt, sched);
    }

    /// Reliability layer: repeat the ready broadcast (see
    /// [`World::rebroadcast_halt`]).
    pub(crate) fn rebroadcast_ready(&mut self, now: SimTime, node: usize, sched: &mut Sched) {
        self.rebroadcast(now, node, Signal::Ready, sched);
    }

    fn rebroadcast(&mut self, now: SimTime, node: usize, signal: Signal, sched: &mut Sched) {
        debug_assert!(self.cfg.reliability.enabled);
        debug_assert!(!self.nodes[node].send_engine_busy);
        self.stats.rebroadcasts += 1;
        self.serial_control_broadcast(now, node, signal, sched);
    }

    /// The LANai's serial-loop broadcast of one halt or ready frame to
    /// every peer, with its send engine held for the whole loop.
    ///
    /// The frames go on the wire (and through the loss draw) in
    /// [`serial_peer`] order. Before anything else is scheduled, the
    /// broadcast claims one block of seqs, one per frame, so frame `e` owns
    /// seq `base + e` whether or not it survives. The surviving arrivals
    /// are parked as a train and sorted by `(time, seq)` — on a fat-tree
    /// they are not monotone in emission order — and only the earliest is
    /// queued.
    fn serial_control_broadcast(
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
        let train = self
            .trains
            .open(frame, start, sched.claim_seqs(peers as u64));
        let mut t = start;
        for e in 0..peers {
            let dst = serial_peer(node, e, hosts);
            let tx = self.net.transmit(t, node, dst, CONTROL_PACKET_BYTES);
            t = tx.injection_done;
            if !self.lose_frame() {
                self.trains.add(train, e, tx.arrival);
            }
        }
        self.nodes[node].nic.engine_extend_to(t);
        sched.at(t, signal.done(node));
        if let Some((t, seq)) = self.trains.seal(train) {
            sched.push_claimed(t, seq, Event::BroadcastArrive { train });
        }
    }

    /// The head of a broadcast train arrived: queue the train's next
    /// arrival, then deliver this one.
    pub(super) fn on_broadcast_arrive(&mut self, now: SimTime, train: u32, sched: &mut Sched) {
        let (node, frame, next) = self.trains.advance(train, self.cfg.nodes);
        if let Some((t, seq)) = next {
            sched.push_claimed(t, seq, Event::BroadcastArrive { train });
        }
        let ControlFrame { signal, epoch, src } = frame;
        self.nodes[node].nic.stats.control_received += 1;
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
enum Signal {
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
struct ControlFrame {
    signal: Signal,
    /// Switch epoch it belongs to.
    epoch: u64,
    /// Emitting node.
    src: usize,
}

/// Bits of a train key that hold the frame index: a broadcast sends at
/// most `2^16` frames, so the cluster has at most [`MAX_NODES`] nodes.
const FRAME_BITS: u32 = 16;

/// Low bits of a train key: the frame index.
const FRAME_MASK: u64 = (1 << FRAME_BITS) - 1;

/// Largest cluster a serial broadcast's train keys can index.
pub(crate) const MAX_NODES: usize = 1 << FRAME_BITS;

/// One in-flight serial broadcast: the frame and its undelivered arrivals.
///
/// Each surviving frame `e` is one `u64` key, `(arrival − start) << 16 |
/// e`: integer order on the keys is `(arrival, e)` order, which is
/// `(time, seq)` order because frame `e` owns seq `base_seq + e`. The key
/// also gives back the destination, [`serial_peer`]`(src, e, hosts)`.
#[derive(Debug)]
struct Train {
    frame: ControlFrame,
    /// When the first frame went on the wire; every arrival is later.
    start: SimTime,
    /// Seq of frame 0; frame `e` owns `base_seq + e`.
    base_seq: u64,
    /// Packed arrivals, sorted once sealed; `keys[next]` is the queued one.
    keys: Vec<u64>,
    next: usize,
}

impl Train {
    /// Arrival time and seq of the stop under `key`.
    fn stop(&self, key: u64) -> (SimTime, u64) {
        let t = SimTime(self.start.raw() + (key >> FRAME_BITS));
        (t, self.base_seq + (key & FRAME_MASK))
    }
}

/// Slab of in-flight broadcast trains, indexed by
/// [`Event::BroadcastArrive`]'s `train`. Finished slots (and their key
/// buffers) are recycled, so a steady rotation allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Trains {
    slab: Vec<Train>,
    free: Vec<u32>,
}

impl Trains {
    /// Start an empty train carrying `frame`, whose frames went on the
    /// wire from `start` on and own the seqs from `base_seq` on.
    fn open(&mut self, frame: ControlFrame, start: SimTime, base_seq: u64) -> u32 {
        match self.free.pop() {
            Some(id) => {
                let t = &mut self.slab[id as usize];
                t.frame = frame;
                t.start = start;
                t.base_seq = base_seq;
                t.keys.clear();
                t.next = 0;
                id
            }
            None => {
                self.slab.push(Train {
                    frame,
                    start,
                    base_seq,
                    keys: Vec::new(),
                    next: 0,
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Add frame `e`'s arrival to an open train. Inlined, like
    /// [`Trains::advance`]: each runs once per frame, and left as calls
    /// they measurably slowed the broadcast and arrival handlers
    /// (DESIGN.md §3i).
    #[inline]
    fn add(&mut self, id: u32, e: usize, arrival: SimTime) {
        let train = &mut self.slab[id as usize];
        assert!(
            e < MAX_NODES,
            "broadcast frame {e}: a train indexes at most {MAX_NODES} frames"
        );
        let offset = arrival.raw() - train.start.raw();
        assert!(
            offset < 1 << (64 - FRAME_BITS),
            "broadcast frame {e} arrives {offset} cycles after its start: \
             a train key holds at most 2^48"
        );
        train.keys.push(offset << FRAME_BITS | e as u64);
    }

    /// Close a train: sort its keys and return the head's `(time, seq)`,
    /// or free the slot and return `None` if every frame was lost.
    fn seal(&mut self, id: u32) -> Option<(SimTime, u64)> {
        let train = &mut self.slab[id as usize];
        train.keys.sort_unstable();
        match train.keys.first() {
            Some(&key) => Some(train.stop(key)),
            None => {
                self.free.push(id);
                None
            }
        }
    }

    /// Take a train's head: its destination among `hosts` nodes and its
    /// frame, plus the next arrival's `(time, seq)`. A train whose last
    /// arrival this was is freed.
    #[inline]
    fn advance(&mut self, id: u32, hosts: usize) -> (usize, ControlFrame, Option<(SimTime, u64)>) {
        let train = &mut self.slab[id as usize];
        let e = (train.keys[train.next] & FRAME_MASK) as usize;
        train.next += 1;
        let next = train.keys.get(train.next).map(|&key| train.stop(key));
        let frame = train.frame;
        if next.is_none() {
            self.free.push(id);
        }
        (serial_peer(frame.src, e, hosts), frame, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(src: usize) -> ControlFrame {
        ControlFrame {
            signal: Signal::Halt,
            epoch: 1,
            src,
        }
    }

    /// Park `src`'s broadcast over `hosts` nodes, where `arrivals[e]` is
    /// frame `e`'s arrival (`None`: lost), then drain it through
    /// `seal`/`advance`, checking it against a plain sort of
    /// `(time, seq, dst)` tuples. Returns the train's slot.
    fn check(trains: &mut Trains, src: usize, hosts: usize, arrivals: &[Option<u64>]) -> u32 {
        assert_eq!(arrivals.len(), hosts - 1);
        let (start, base) = (SimTime(1_000), 7_000);
        let id = trains.open(frame(src), start, base);
        let mut want = Vec::new();
        for (e, at) in arrivals.iter().enumerate() {
            if let Some(at) = *at {
                trains.add(id, e, SimTime(at));
                want.push((SimTime(at), base + e as u64, serial_peer(src, e, hosts)));
            }
        }
        want.sort_unstable();
        let mut got = Vec::new();
        let mut head = trains.seal(id);
        while let Some((t, seq)) = head {
            let (dst, f, next) = trains.advance(id, hosts);
            assert_eq!(f.src, src);
            got.push((t, seq, dst));
            head = next;
        }
        assert_eq!(got, want);
        id
    }

    #[test]
    fn tied_arrivals_keep_emission_order() {
        let mut trains = Trains::default();
        let at = [5_000, 4_000, 5_000, 4_000, 6_000, 4_000, 5_000];
        check(&mut trains, 5, 8, &at.map(Some));
        check(&mut trains, 0, 8, &[Some(1_001); 7]);
    }

    #[test]
    fn lost_frames_leave_gaps_in_the_block() {
        let mut trains = Trains::default();
        let at = [
            Some(9_000),
            None,
            Some(3_000),
            None,
            None,
            Some(3_000),
            Some(2_000),
        ];
        check(&mut trains, 2, 8, &at);
    }

    #[test]
    fn a_train_whose_every_frame_was_lost_is_freed() {
        let mut trains = Trains::default();
        let id = trains.open(frame(1), SimTime(10), 0);
        assert_eq!(trains.seal(id), None);
        assert_eq!(trains.free, vec![id]);
        // The freed slot is the next one opened, and a drained train
        // frees its slot too.
        assert_eq!(check(&mut trains, 3, 6, &[Some(1_050); 5]), id);
        assert_eq!(trains.free, vec![id]);
    }

    #[test]
    fn two_nodes_broadcast_one_frame() {
        let mut trains = Trains::default();
        check(&mut trains, 0, 2, &[Some(1_200)]);
        check(&mut trains, 1, 2, &[Some(1_200)]);
        check(&mut trains, 1, 2, &[None]);
    }

    #[test]
    #[should_panic(expected = "at most 65536 frames")]
    fn frame_index_past_the_key_width_panics() {
        let mut trains = Trains::default();
        let id = trains.open(frame(0), SimTime(0), 0);
        trains.add(id, MAX_NODES, SimTime(1));
    }
}
