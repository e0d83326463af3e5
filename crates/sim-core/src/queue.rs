//! The engine's pending-event queue: a 4-ary min-heap of small `Copy`
//! index entries over a slab arena of event payloads.
//!
//! `BinaryHeap<Scheduled<E>>` moves whole events during every sift; with
//! the cluster simulation's multi-word event enum that is the dominant
//! cost of a deep queue. Here the heap orders 24-byte `(time, seq, slot)`
//! entries — two cache lines hold five of them — and the payload sits
//! still in the arena until it is popped. The 4-ary layout halves the tree
//! depth of a binary heap, trading a wider (but cache-local) child scan
//! per level for fewer levels, which wins for sift-dominated workloads.
//!
//! Ordering contract: entries pop in strictly ascending `(time, seq)`.
//! `seq` is unique per push, so the order is total and identical to the
//! FIFO-tie-breaking `BinaryHeap` it replaced — runs stay bit-for-bit
//! reproducible across the swap (see the golden digests in
//! `tests/determinism.rs`).

use crate::time::SimTime;

/// A heap entry: the ordering key plus the arena slot of the payload.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Arity of the heap. 4 halves the depth of a binary heap while keeping
/// the child scan inside one or two cache lines.
const ARITY: usize = 4;

/// The pending-event queue. See the module docs for the design.
pub struct EventQueue<E> {
    /// 4-ary min-heap on `(time, seq)`.
    heap: Vec<Entry>,
    /// Payload slab, indexed by `Entry::slot`.
    arena: Vec<Option<E>>,
    /// Free arena slots, reused LIFO (hottest memory first).
    free: Vec<u32>,
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
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The earliest pending instant, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Insert an event keyed by `(time, seq)`. `seq` must be unique
    /// (the scheduler's monotone counter guarantees it).
    pub fn push(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.arena[s as usize] = Some(event);
                s
            }
            None => {
                assert!(self.arena.len() < u32::MAX as usize, "event queue overflow");
                self.arena.push(Some(event));
                (self.arena.len() - 1) as u32
            }
        };
        self.heap.push(Entry { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let event = self.arena[top.slot as usize]
            .take()
            .expect("heap entry points at an occupied slot");
        self.free.push(top.slot);
        Some((top.time, event))
    }

    fn sift_up(&mut self, mut i: usize) {
        let h = &mut self.heap;
        let item = h[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if h[parent].key() <= item.key() {
                break;
            }
            h[i] = h[parent];
            i = parent;
        }
        h[i] = item;
    }

    fn sift_down(&mut self, mut i: usize) {
        let h = &mut self.heap;
        let n = h.len();
        let item = h[i];
        loop {
            let first = i * ARITY + 1;
            if first >= n {
                break;
            }
            // Smallest of up to ARITY children. Indexed loop: the
            // iterator form obscures that `min` is an index we sift to.
            let mut min = first;
            let mut min_key = h[first].key();
            let end = (first + ARITY).min(n);
            #[allow(clippy::needless_range_loop)]
            for c in first + 1..end {
                let k = h[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key >= item.key() {
                break;
            }
            h[i] = h[min];
            i = min;
        }
        h[i] = item;
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
}
