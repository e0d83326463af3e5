//! Fixed-capacity packet rings.
//!
//! Both FM queues are rings of fixed-size packet slots: the send queue in
//! LANai RAM (252 slots of 1560 B on ParPar) and the receive queue in the
//! pinned host DMA buffer (668 slots). The ring tracks *valid* (occupied)
//! slots — the quantity Fig. 8 measures and the improved buffer-switch
//! algorithm copies.
//!
//! Capacity is logical: a ring allocates backing storage only as its
//! occupancy grows, so memory follows traffic rather than slot counts.

use std::collections::VecDeque;

/// Error returned when pushing into a full ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingFull;

/// A bounded FIFO ring of packet descriptors.
///
/// ```
/// use lanai::queue::PacketRing;
///
/// let mut ring: PacketRing<u32> = PacketRing::new(3);
/// ring.push(7).unwrap();
/// ring.push(8).unwrap();
/// // The buffer switch drains the valid packets into process memory…
/// let mut saved = Vec::new();
/// ring.drain_into(&mut saved);
/// assert_eq!(saved, vec![7, 8]);
/// // …and loads them back on restore, preserving FIFO order.
/// ring.load_from(&mut saved);
/// assert_eq!(ring.pop(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct PacketRing<P> {
    slots: VecDeque<P>,
    capacity: usize,
}

impl<P> PacketRing<P> {
    /// A ring with `capacity` packet slots. No slot is allocated until a
    /// packet arrives; storage then grows with the live occupancy.
    pub fn new(capacity: usize) -> Self {
        PacketRing {
            slots: VecDeque::new(),
            capacity,
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Valid (occupied) slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// True if all slots are occupied.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.slots.len()
    }

    /// Append a packet; fails if the ring is full.
    pub fn push(&mut self, p: P) -> Result<(), RingFull> {
        if self.is_full() {
            return Err(RingFull);
        }
        self.slots.push_back(p);
        Ok(())
    }

    /// Remove the oldest packet.
    pub fn pop(&mut self) -> Option<P> {
        self.slots.pop_front()
    }

    /// Oldest packet without removing it.
    pub fn peek(&self) -> Option<&P> {
        self.slots.front()
    }

    /// Iterate valid packets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &P> {
        self.slots.iter()
    }

    /// Remove all packets into `buf` in FIFO order, reusing its allocation:
    /// the buffer switch saves queue contents into process memory this way.
    /// `buf` is cleared first.
    pub fn drain_into(&mut self, buf: &mut Vec<P>) {
        buf.clear();
        buf.extend(self.slots.drain(..));
    }

    /// Refill from `buf`, draining it in place (restore side of the buffer
    /// switch, without giving up `buf`'s allocation). Panics if the ring is
    /// not empty or the contents exceed capacity — saved state always came
    /// from a ring of the same geometry.
    pub fn load_from(&mut self, buf: &mut Vec<P>) {
        assert!(
            self.slots.is_empty(),
            "loading into a non-empty ring would interleave jobs' packets"
        );
        assert!(
            buf.len() <= self.capacity,
            "saved contents exceed ring capacity"
        );
        self.slots.extend(buf.drain(..));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_fifo() {
        let mut r = PacketRing::new(3);
        r.push(1).unwrap();
        r.push(2).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.peek(), Some(&2));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = PacketRing::new(2);
        r.push('a').unwrap();
        r.push('b').unwrap();
        assert!(r.is_full());
        assert_eq!(r.push('c'), Err(RingFull));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn drain_into_and_load_from_reuse_buffer() {
        let mut r = PacketRing::new(5);
        let mut buf = vec![42]; // stale contents must be cleared
        for i in 0..4 {
            r.push(i).unwrap();
        }
        r.drain_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert!(r.is_empty());
        let cap_before = buf.capacity();
        r.load_from(&mut buf);
        assert!(buf.is_empty());
        assert_eq!(
            buf.capacity(),
            cap_before,
            "load_from must keep the allocation"
        );
        assert_eq!(r.len(), 4);
        assert_eq!(r.pop(), Some(0));
    }

    #[test]
    fn huge_ring_allocates_nothing_up_front() {
        let r: PacketRing<u64> = PacketRing::new(1 << 20);
        assert_eq!(r.capacity(), 1 << 20);
        assert_eq!(r.slots.capacity(), 0);
    }

    #[test]
    fn storage_follows_occupancy_not_capacity() {
        let mut r: PacketRing<u64> = PacketRing::new(4096);
        for i in 0..10_000u64 {
            r.push(i).unwrap();
            if r.len() == 4 {
                r.pop();
            }
        }
        assert_eq!(r.len(), 3);
        assert!(r.slots.capacity() <= 8, "{} slots", r.slots.capacity());
    }

    #[test]
    fn accepts_full_logical_capacity_then_rejects() {
        let mut r: PacketRing<u8> = PacketRing::new(1032);
        for _ in 0..1032 {
            r.push(0).unwrap();
        }
        assert!(r.is_full());
        assert_eq!(r.push(0), Err(RingFull));
    }

    #[test]
    #[should_panic(expected = "exceed ring capacity")]
    fn load_from_over_capacity_panics() {
        let mut r = PacketRing::new(1);
        let mut buf = vec![1, 2];
        r.load_from(&mut buf);
    }

    #[test]
    #[should_panic(expected = "non-empty ring")]
    fn load_from_into_nonempty_panics() {
        let mut r = PacketRing::new(3);
        r.push(1).unwrap();
        let mut buf = vec![2];
        r.load_from(&mut buf);
    }
}
