//! Trains: one-to-many deliveries parked as one pending event.
//!
//! Two parts of the system send one message to many nodes: a LANai's
//! serial halt and ready broadcasts (paper §3.2) and the masterd's
//! fan-outs to the nodeds (§2.1, Fig. 2). Rather than queueing every
//! delivery at once, each becomes a *train*: its deliveries are parked in
//! a recycled slab (`Trains`) and only the earliest is in the engine
//! queue; handling it queues the next. Delivery `i` of a train owns seq
//! `base + i` of one block claimed when the train opens, where the
//! sender's loop would have scheduled it, so the deliveries pop in the
//! order they would as separate events (DESIGN.md §3i).

use sim_core::time::SimTime;

use crate::event::{Event, Sched};

/// Bits of a train key that hold the delivery index.
const INDEX_BITS: u32 = 16;

/// Low bits of a train key: the delivery index.
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Most deliveries a train indexes, and so the largest cluster a serial
/// broadcast or a masterd fan-out can reach.
pub(crate) const MAX_NODES: usize = 1 << INDEX_BITS;

/// One in-flight train: its payload and its undelivered arrivals.
///
/// Each delivery `i` that will arrive is one `u64` key, `(arrival −
/// start) << 16 | i`: integer order on the keys is `(arrival, i)` order,
/// which is `(time, seq)` order because delivery `i` owns seq `base_seq +
/// i`. The payload and `i` give back the destination and what arrives.
#[derive(Debug)]
struct Train<L> {
    /// What the train delivers; `None` once the train has finished.
    load: Option<L>,
    /// When the first delivery left; every arrival is at or after it.
    start: SimTime,
    /// Seq of delivery 0; delivery `i` owns `base_seq + i`.
    base_seq: u64,
    /// Packed arrivals, sorted once sealed; `keys[next]` is the queued one.
    keys: Vec<u64>,
    next: usize,
}

impl<L> Train<L> {
    /// Arrival time and seq of the stop under `key`.
    fn stop(&self, key: u64) -> (SimTime, u64) {
        let t = SimTime(self.start.raw() + (key >> INDEX_BITS));
        (t, self.base_seq + (key & INDEX_MASK))
    }
}

/// Slab of in-flight trains carrying payloads of type `L`. Each train's
/// head is queued as the event `event` makes from the train's slot.
/// Finished slots (and their key buffers) are recycled, so a steady
/// rotation allocates nothing.
#[derive(Debug)]
pub(crate) struct Trains<L> {
    slab: Vec<Train<L>>,
    free: Vec<u32>,
    event: fn(u32) -> Event,
}

impl<L> Trains<L> {
    /// An empty slab whose trains are queued as `event(slot)`.
    pub(crate) fn new(event: fn(u32) -> Event) -> Self {
        Trains {
            slab: Vec::new(),
            free: Vec::new(),
            event,
        }
    }

    /// Start an empty train carrying `load`, whose `n` deliveries leave
    /// from `start` on: claim their `n` seqs as one block now, where the
    /// sender's loop would have scheduled them, and room for their keys.
    pub(crate) fn open(&mut self, load: L, start: SimTime, n: usize, sched: &mut Sched) -> u32 {
        let base_seq = sched.claim_seqs(n as u64);
        match self.free.pop() {
            Some(id) => {
                let t = &mut self.slab[id as usize];
                t.load = Some(load);
                t.start = start;
                t.base_seq = base_seq;
                t.keys.clear();
                t.keys.reserve(n);
                t.next = 0;
                id
            }
            None => {
                self.slab.push(Train {
                    load: Some(load),
                    start,
                    base_seq,
                    keys: Vec::with_capacity(n),
                    next: 0,
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Add delivery `i`'s arrival to an open train. Inlined, like
    /// [`Trains::advance`]: each runs once per delivery, and left as calls
    /// they measurably slowed the broadcast and arrival handlers
    /// (DESIGN.md §3i).
    #[inline]
    pub(crate) fn add(&mut self, id: u32, i: usize, arrival: SimTime) {
        let train = &mut self.slab[id as usize];
        assert!(
            i < MAX_NODES,
            "delivery {i}: a train indexes at most {MAX_NODES} deliveries"
        );
        let offset = arrival.raw() - train.start.raw();
        assert!(
            offset < 1 << (64 - INDEX_BITS),
            "delivery {i} arrives {offset} cycles after its start: \
             a train key holds at most 2^48"
        );
        train.keys.push(offset << INDEX_BITS | i as u64);
    }

    /// Close a train: sort its keys and queue its head, or free the slot
    /// if no delivery will arrive.
    pub(crate) fn seal(&mut self, id: u32, sched: &mut Sched) {
        let train = &mut self.slab[id as usize];
        train.keys.sort_unstable();
        match train.keys.first() {
            Some(&key) => {
                let (t, seq) = train.stop(key);
                sched.push_claimed(t, seq, (self.event)(id));
            }
            None => self.finish(id),
        }
    }

    /// Take a train's head: queue its next arrival, and return what
    /// `deliver` makes of the payload and the head's index. A train
    /// whose last arrival this was is freed.
    #[inline]
    pub(crate) fn advance<R>(
        &mut self,
        id: u32,
        sched: &mut Sched,
        deliver: impl FnOnce(&L, usize) -> R,
    ) -> R {
        let train = &mut self.slab[id as usize];
        let i = (train.keys[train.next] & INDEX_MASK) as usize;
        train.next += 1;
        let load = train.load.as_ref().expect("train already finished");
        let got = deliver(load, i);
        match train.keys.get(train.next) {
            Some(&key) => {
                let (t, seq) = train.stop(key);
                sched.push_claimed(t, seq, (self.event)(id));
            }
            None => self.finish(id),
        }
        got
    }

    /// Drop a finished train's payload and recycle its slot.
    fn finish(&mut self, id: u32) {
        self.slab[id as usize].load = None;
        self.free.push(id);
    }
}

#[cfg(test)]
impl<L> Trains<L> {
    /// Trains still delivering.
    pub(crate) fn live(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Drain train `id` through [`Trains::advance`] from its queued head:
    /// each delivery's `(time, seq)` and what `deliver` made of it.
    pub(crate) fn drain<R>(
        &mut self,
        id: u32,
        sched: &mut Sched,
        mut deliver: impl FnMut(&L, usize) -> R,
    ) -> Vec<(SimTime, u64, R)> {
        let mut got = Vec::new();
        loop {
            let train = &self.slab[id as usize];
            let Some(&key) = train.keys.get(train.next) else {
                return got;
            };
            let (t, seq) = train.stop(key);
            got.push((t, seq, self.advance(id, sched, &mut deliver)));
        }
    }
}

#[cfg(test)]
mod tests {
    use myrinet::broadcast::serial_peer;
    use sim_core::engine::{Engine, Model};

    use super::*;

    /// A model that never runs: it only lends its scheduler to the trains.
    struct Idle;

    impl Model for Idle {
        type Event = Event;
        fn handle(&mut self, _: SimTime, _: Event, _: &mut Sched) {
            unreachable!("the train tests only push events");
        }
    }

    fn trains() -> Trains<usize> {
        Trains::new(|train| Event::BroadcastArrive { train })
    }

    /// Park a train from `src` over `arrivals.len() + 1` nodes, where
    /// `arrivals[i]` is delivery `i`'s arrival (`None`: lost) and delivery
    /// `i` goes to `serial_peer(src, i, hosts)`, then drain it through
    /// `seal`/`advance`, checking it against a plain sort of
    /// `(time, seq, dst)` tuples. Returns the train's slot.
    fn check(trains: &mut Trains<usize>, src: usize, arrivals: &[Option<u64>]) -> u32 {
        let hosts = arrivals.len() + 1;
        let start = SimTime(1_000);
        Engine::new(Idle).drive(|_, sched| {
            let base = sched.claim_seqs(0);
            let id = trains.open(src, start, arrivals.len(), sched);
            let mut want = Vec::new();
            for (i, at) in arrivals.iter().enumerate() {
                if let Some(at) = *at {
                    trains.add(id, i, SimTime(at));
                    want.push((SimTime(at), base + i as u64, serial_peer(src, i, hosts)));
                }
            }
            want.sort_unstable();
            trains.seal(id, sched);
            let got = trains.drain(id, sched, |&src, i| serial_peer(src, i, hosts));
            assert_eq!(got, want);
            assert_eq!(sched.pending(), want.len());
            id
        })
    }

    #[test]
    fn tied_arrivals_keep_emission_order() {
        let mut trains = trains();
        let at = [5_000, 4_000, 5_000, 4_000, 6_000, 4_000, 5_000];
        check(&mut trains, 5, &at.map(Some));
        check(&mut trains, 0, &[Some(1_001); 7]);
        // A multicast fan-out: every delivery at one instant, its start.
        check(&mut trains, 0, &[Some(1_000); 7]);
        // A serial fan-out: evenly spaced, already in order.
        let spaced: Vec<_> = (0..9).map(|i| Some(1_000 + 250 * i)).collect();
        check(&mut trains, 3, &spaced);
    }

    #[test]
    fn lost_frames_leave_gaps_in_the_block() {
        let mut trains = trains();
        let at = [
            Some(9_000),
            None,
            Some(3_000),
            None,
            None,
            Some(3_000),
            Some(2_000),
        ];
        check(&mut trains, 2, &at);
    }

    #[test]
    fn a_train_whose_every_frame_was_lost_is_freed() {
        let mut trains = trains();
        let id = Engine::new(Idle).drive(|_, sched| {
            let id = trains.open(1, SimTime(10), 5, sched);
            trains.seal(id, sched);
            assert_eq!(sched.pending(), 0);
            id
        });
        assert_eq!(trains.free, vec![id]);
        assert!(trains.slab[id as usize].load.is_none(), "payload kept");
        // The freed slot is the next one opened, and a drained train
        // frees its slot too.
        assert_eq!(check(&mut trains, 3, &[Some(1_050); 5]), id);
        assert_eq!(trains.free, vec![id]);
        assert_eq!(trains.live(), 0);
    }

    #[test]
    fn two_nodes_broadcast_one_frame() {
        let mut trains = trains();
        check(&mut trains, 0, &[Some(1_200)]);
        check(&mut trains, 1, &[Some(1_200)]);
        check(&mut trains, 1, &[None]);
    }

    #[test]
    #[should_panic(expected = "at most 65536 deliveries")]
    fn delivery_index_past_the_key_width_panics() {
        let mut trains = trains();
        Engine::new(Idle).drive(|_, sched| {
            let id = trains.open(0, SimTime(0), 0, sched);
            trains.add(id, MAX_NODES, SimTime(1));
        });
    }
}
