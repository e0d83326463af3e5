//! The engine's pending-event queue: a 4-ary min-heap of packed 16-byte
//! keys over a slab arena of event payloads.
//!
//! `BinaryHeap<Scheduled<E>>` moves whole events during every sift; with
//! the cluster simulation's multi-word event enum that is the dominant
//! cost of a deep queue. Here the heap orders small keys and the payload
//! sits still in the arena until it is popped. The 4-ary layout halves the
//! tree depth of a binary heap, trading a wider (but cache-local) child
//! scan per level for fewer levels, which wins for sift-dominated
//! workloads.
//!
//! **Packed keys.** A heap entry is one `u128`:
//!
//! ```text
//!  127            64 63              24 23        0
//! ┌────────────────┬──────────────────┬───────────┐
//! │  time (64 bit) │   seq (40 bit)   │ slot (24) │
//! └────────────────┴──────────────────┴───────────┘
//! ```
//!
//! Seqs are unique, so the integer order of two entries is their
//! `(time, seq)` order and the slot bits never decide a comparison. Every
//! sift, the stale-root scan of [`EventQueue::peek_time`] and `settle`
//! compare whole entries with one `u128` comparison, and a group of four
//! children is 64 bytes. The limits: a seq must be below 2^40 (days of
//! simulation at ten million events per host second) and the arena holds
//! fewer than 2^24 payloads at once. Both are asserted when an entry is
//! built.
//!
//! **Branch-free selection.** A sift-down level with a full group of four
//! children picks the least of children 0 and 1, the least of children 2
//! and 3, then the least of those two winners, each with a conditional
//! move rather than a branch, since which child is least depends on the
//! data and predicts poorly. Only the one comparison with the sifted
//! entry, which decides whether to go on, is a branch. A partial last
//! group scans its children in a loop.
//!
//! **Fused pop and push.** Most handlers schedule exactly one follow-up
//! (a broadcast train's next stop, a NIC engine's completion), so a pop is
//! usually followed at once by a push. [`EventQueue::pop`] therefore takes
//! the root's payload but leaves the root entry in place, marked *stale*.
//! The next [`EventQueue::push`] overwrites the stale root and sifts it
//! down once, instead of pop's sift-down plus push's sift-up. If nothing
//! is pushed, `settle` (or the next `pop`) removes the stale root the
//! ordinary way: the last entry moves to the root and sifts down.
//! The engine settles after every handler, so between steps the heap holds
//! exactly the pending events. While the root is stale, [`EventQueue::len`]
//! and [`EventQueue::peek_time`] leave it out. `pop` and `push` are
//! `#[inline]`, so the engine's step loop takes the popped event straight
//! from the arena instead of through an out-of-line return slot.
//!
//! Ordering contract: entries pop in strictly ascending `(time, seq)`.
//! `seq` is unique per push, so the order is total and identical to the
//! FIFO-tie-breaking `BinaryHeap` it replaced — runs stay bit-for-bit
//! reproducible across the swap (see the golden digests in
//! `tests/determinism.rs`). The fused push keeps the contract: "replace
//! the root, then sift down" leaves the heap holding the same set of keys
//! as "remove the root, then insert", and with unique keys the pop order
//! is a function of that set alone. This holds for any pushed key, even a
//! claimed seq older than the popped root's at the same instant: the new
//! entry then simply stays at the root.

use std::hint::select_unpredictable;

use crate::time::SimTime;

/// Bits of an [`Entry`] that hold the arena slot.
const SLOT_BITS: u32 = 24;
/// Bits of an [`Entry`] that hold the seq, between the slot and the time.
const SEQ_BITS: u32 = 40;

/// A heap entry: `time << 64 | seq << 24 | slot`. The derived order is
/// `(time, seq)` order, because seqs are unique.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    /// Pack `(time, seq, slot)`. Panics if `seq` or `slot` does not fit
    /// its field.
    #[inline]
    fn new(time: SimTime, seq: u64, slot: usize) -> Entry {
        assert!(
            seq < 1 << SEQ_BITS,
            "event seq {seq} is past the queue's limit of 2^40 seqs"
        );
        assert!(
            slot < 1 << SLOT_BITS,
            "event queue arena is full: the limit is 2^24 pending events"
        );
        Entry((time.0 as u128) << 64 | (seq as u128) << SLOT_BITS | slot as u128)
    }

    #[inline]
    fn time(self) -> SimTime {
        SimTime((self.0 >> 64) as u64)
    }

    #[inline]
    fn slot(self) -> usize {
        (self.0 as usize) & ((1 << SLOT_BITS) - 1)
    }
}

/// Arity of the heap. 4 halves the depth of a binary heap while keeping
/// the child scan inside one or two cache lines.
const ARITY: usize = 4;

/// The pending-event queue. See the module docs for the design.
pub struct EventQueue<E> {
    /// 4-ary min-heap of packed `(time, seq, slot)` entries.
    heap: Vec<Entry>,
    /// Payload slab, indexed by an entry's slot.
    arena: Vec<Option<E>>,
    /// Free arena slots, reused LIFO (hottest memory first).
    free: Vec<u32>,
    /// `heap[0]` was popped (its payload taken) but not yet removed; the
    /// next push overwrites it and reuses its arena slot.
    stale: bool,
    /// Heap entries written by the sifts: a host-independent cost count
    /// for the tests.
    #[cfg(test)]
    moves: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            arena: Vec::new(),
            free: Vec::new(),
            stale: false,
            #[cfg(test)]
            moves: 0,
        }
    }

    /// Number of pending events (a stale root is not pending).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - self.stale as usize
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The earliest pending instant, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.stale {
            // The next entry is the smallest child of the stale root.
            let children = self.heap.iter().skip(1).take(ARITY);
            return children.min().map(|e| e.time());
        }
        self.heap.first().map(|e| e.time())
    }

    /// Insert an event keyed by `(time, seq)`. `seq` must be unique
    /// (the scheduler's monotone counter guarantees it) and below 2^40.
    /// Overwrites a stale root, reusing its arena slot, if there is one.
    #[inline]
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        if self.stale {
            self.stale = false;
            let slot = self.heap[0].slot();
            self.arena[slot] = Some(event);
            self.sift_down(0, Entry::new(time, seq, slot));
            return;
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = Some(event);
                s as usize
            }
            None => {
                self.arena.push(Some(event));
                self.arena.len() - 1
            }
        };
        let entry = Entry::new(time, seq, slot);
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1, entry);
    }

    /// Take the earliest `(time, event)`. Its heap entry, and the arena
    /// slot it names, stay behind as a stale root until the next push or
    /// pop. [`EventQueue::len`] and [`EventQueue::peek_time`] leave it
    /// out.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.settle();
        let top = *self.heap.first()?;
        let event = self.arena[top.slot()]
            .take()
            .expect("heap entry points at an occupied slot");
        self.stale = true;
        Some((top.time(), event))
    }

    /// Remove a stale root that no push has overwritten: its slot is
    /// freed, and the last entry takes its place and sifts down. A no-op
    /// otherwise.
    #[inline]
    pub(crate) fn settle(&mut self) {
        if !self.stale {
            return;
        }
        self.stale = false;
        self.free.push(self.heap[0].slot() as u32);
        let last = self.heap.pop().expect("a stale root is a heap entry");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
    }

    /// Move `item` from the hole at `i` towards the root.
    fn sift_up(&mut self, mut i: usize, item: Entry) {
        let h = &mut self.heap;
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if h[parent] <= item {
                break;
            }
            h[i] = h[parent];
            i = parent;
            #[cfg(test)]
            {
                self.moves += 1;
            }
        }
        h[i] = item;
        #[cfg(test)]
        {
            self.moves += 1;
        }
    }

    /// Move `item` from the hole at `i` towards the leaves.
    fn sift_down(&mut self, mut i: usize, item: Entry) {
        let h = &mut self.heap;
        let n = h.len();
        loop {
            let first = i * ARITY + 1;
            let (min, min_entry) = if first + ARITY <= n {
                // A full group: a tournament of conditional moves.
                let c = &h[first..first + ARITY];
                let (a, b) = (first, first + 2);
                let lo = select_unpredictable(c[1] < c[0], (a + 1, c[1]), (a, c[0]));
                let hi = select_unpredictable(c[3] < c[2], (b + 1, c[3]), (b, c[2]));
                select_unpredictable(hi.1 < lo.1, hi, lo)
            } else if first < n {
                // The partial last group. Indexed loop: the iterator form
                // obscures that `min` is an index we sift to.
                let mut min = first;
                #[allow(clippy::needless_range_loop)]
                for c in first + 1..n {
                    if h[c] < h[min] {
                        min = c;
                    }
                }
                (min, h[min])
            } else {
                break;
            };
            if min_entry >= item {
                break;
            }
            h[i] = min_entry;
            i = min;
            #[cfg(test)]
            {
                self.moves += 1;
            }
        }
        h[i] = item;
        #[cfg(test)]
        {
            self.moves += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), 0, "c");
        q.push(SimTime(10), 1, "a");
        q.push(SimTime(20), 2, "b");
        q.push(SimTime(10), 3, "a2");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(10), "a2")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                q.push(SimTime(round * 100 + i), round * 100 + i, i);
            }
            for _ in 0..100 {
                q.pop().unwrap();
            }
        }
        // Arena never grew past one round's worth of live events.
        assert!(q.arena.len() <= 100, "arena grew to {}", q.arena.len());
    }

    #[test]
    fn matches_reference_order_on_interleaved_ops() {
        // Deterministic pseudo-random interleave of pushes and pops,
        // checked against a sorted reference.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut lcg: u64 = 42;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..10_000 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            if !lcg.is_multiple_of(3) || reference.is_empty() {
                let t = (lcg >> 33) % 1000;
                q.push(SimTime(t), seq, seq);
                reference.push((t, seq));
                seq += 1;
            } else {
                reference.sort_unstable();
                let (t, s) = reference.remove(0);
                expect.push((SimTime(t), s));
                popped.push(q.pop().unwrap());
            }
        }
        reference.sort_unstable();
        for (t, s) in reference {
            expect.push((SimTime(t), s));
            popped.push(q.pop().unwrap());
        }
        assert_eq!(popped, expect);
    }

    #[test]
    fn fused_pushes_match_reference_order() {
        // Each pop is followed by 0, 1 or 2 pushes, as a handler would
        // make them. A quarter of the pushes use a seq claimed before any
        // fresh one, at the popped instant: older than the popped root's
        // own seq, so the fused push must keep the new entry at the root.
        let mut q = EventQueue::new();
        let mut reference = std::collections::BTreeSet::new();
        let mut claimed: Vec<u64> = (0..2_000).collect();
        let mut seq = 2_000u64;
        let mut lcg: u64 = 7;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            lcg >> 33
        };
        for _ in 0..64 {
            let t = next() % 100;
            q.push(SimTime(t), seq, seq);
            reference.insert((t, seq));
            seq += 1;
        }
        let mut older = 0;
        while let Some((t, s)) = reference.pop_first() {
            assert_eq!(q.pop(), Some((SimTime(t), s)));
            assert_eq!(q.len(), reference.len());
            for _ in 0..next() % 3 {
                let r = next();
                let key = match claimed.last() {
                    Some(&c) if r % 4 == 0 => {
                        claimed.pop();
                        older += (c < s) as u32;
                        (t, c)
                    }
                    _ => {
                        seq += 1;
                        (t + r % 50, seq - 1)
                    }
                };
                q.push(SimTime(key.0), key.1, key.1);
                reference.insert(key);
            }
            assert_eq!(q.peek_time(), reference.first().map(|&(t, _)| SimTime(t)));
            if seq > 40_000 {
                break;
            }
        }
        assert!(older > 1_000, "only {older} claimed pushes were older");
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        let expect: Vec<_> = reference.iter().map(|&(t, s)| (SimTime(t), s)).collect();
        assert_eq!(rest, expect);
    }

    #[test]
    fn a_pop_without_a_push_leaves_a_correct_queue() {
        let mut q = EventQueue::new();
        for (i, t) in [50u64, 10, 40, 20, 30, 60].into_iter().enumerate() {
            q.push(SimTime(t), i as u64, t);
        }
        assert_eq!(q.pop(), Some((SimTime(10), 10)));
        // Stale root: left out of len and peek_time before and after it
        // is removed.
        assert_eq!((q.len(), q.peek_time()), (5, Some(SimTime(20))));
        q.settle();
        assert_eq!((q.len(), q.peek_time()), (5, Some(SimTime(20))));
        assert_eq!(q.pop(), Some((SimTime(20), 20)));
        assert_eq!(q.pop(), Some((SimTime(30), 30)));
        assert_eq!(q.len(), 3);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![40, 50, 60]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    /// Replay a one-push-per-pop schedule over a queue `depth` deep and
    /// return the heap entries the sifts wrote. Each follow-up lands up to
    /// `hop` cycles after the popped event. `fused` lets each push
    /// overwrite the stale root; otherwise the root is removed first, as
    /// a separate pop and push would.
    fn replay_moves(depth: u64, hop: u64, fused: bool) -> u64 {
        let mut q = EventQueue::new();
        let mut lcg: u64 = 11;
        let mut next = || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            lcg >> 33
        };
        for seq in 0..depth {
            q.push(SimTime(next() % 1_000_000), seq, ());
        }
        q.moves = 0;
        for seq in depth..depth + 10_000 {
            let (t, ()) = q.pop().unwrap();
            if !fused {
                q.settle();
            }
            q.push(t + crate::time::Cycles(next() % hop), seq, ());
        }
        q.moves
    }

    #[test]
    fn fused_push_saves_entry_moves() {
        // Depth 300 is `gang_rotate256`'s mean queue; a follow-up within
        // 100 cycles is a broadcast train's next stop. The pushed key
        // then stays near the root, so the fused path skips almost all of
        // the split path's sift-down of the last entry. A follow-up
        // anywhere in the queue's span saves less.
        for depth in [300, 10_000] {
            let (fused, split) = (
                replay_moves(depth, 100, true),
                replay_moves(depth, 100, false),
            );
            assert!(
                5 * fused < 3 * split,
                "depth {depth}: fused {fused} vs split {split}"
            );
            let (fused, split) = (
                replay_moves(depth, 1_000_000, true),
                replay_moves(depth, 1_000_000, false),
            );
            assert!(
                10 * fused < 9 * split,
                "depth {depth}: fused {fused} vs split {split}"
            );
        }
    }

    #[test]
    fn an_entry_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn slot_bits_never_decide_the_order() {
        // Push in descending seq order, so the arena hands out slots in
        // the opposite order to seqs: at equal times a smaller seq sits
        // in a larger slot. Pops must still follow `(time, seq)`.
        let mut q = EventQueue::new();
        let mut reference = Vec::new();
        for i in 0..200u64 {
            let seq = 1_000 - i;
            let t = i % 7;
            q.push(SimTime(t), seq, seq);
            reference.push((SimTime(t), seq));
        }
        reference.sort_unstable();
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, reference);
    }

    #[test]
    fn seqs_that_differ_above_bit_24_pop_in_seq_order() {
        // Equal low 24 bits, so a seq field narrower than 40 bits, or one
        // overlapping the slot, would tie or misorder these.
        let mut q = EventQueue::new();
        let seqs = [3u64 << 24, (1 << 40) - (1 << 24), 1 << 24, 1 << 39, 2 << 24];
        for &s in &seqs {
            q.push(SimTime(5), s | 0xabc, s);
        }
        let mut expect = seqs.to_vec();
        expect.sort_unstable();
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, s)| s).collect();
        assert_eq!(popped, expect);
    }

    #[test]
    #[should_panic(expected = "limit of 2^40 seqs")]
    fn a_seq_past_40_bits_panics() {
        Entry::new(SimTime(0), 1 << 40, 0);
    }

    #[test]
    #[should_panic(expected = "limit is 2^24 pending events")]
    fn a_slot_past_24_bits_panics() {
        Entry::new(SimTime(0), 0, 1 << 24);
    }
}
