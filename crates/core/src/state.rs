//! The communication state saved and restored by the buffer switch.
//!
//! "A context switch stores the contents of the communication buffers
//! together with the process's regular context" (paper §1). Everything
//! else the library needs — credit counters, sequence numbers — lives in
//! the process's own pageable memory and needs no special handling.

/// Saved queue contents for one descheduled process.
#[derive(Debug, Clone)]
pub struct SavedCommState<P> {
    /// Job the state belongs to (cross-checked on restore).
    pub job: u32,
    /// Send-queue packets, FIFO order.
    pub send_q: Vec<P>,
    /// Receive-queue packets, FIFO order.
    pub recv_q: Vec<P>,
}

impl<P> SavedCommState<P> {
    /// Empty state for a job that has not communicated yet.
    pub fn empty(job: u32) -> Self {
        SavedCommState {
            job,
            send_q: Vec::new(),
            recv_q: Vec::new(),
        }
    }

    /// Valid packets held (send, recv) — the Fig. 8 quantities.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.send_q.len(), self.recv_q.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_counts_both_queues() {
        let s = SavedCommState {
            job: 3,
            send_q: vec![1, 2],
            recv_q: vec![7, 8, 9],
        };
        assert_eq!(s.occupancy(), (2, 3));
    }

    #[test]
    fn empty_state() {
        let s: SavedCommState<u8> = SavedCommState::empty(1);
        assert_eq!(s.occupancy(), (0, 0));
        assert_eq!(s.job, 1);
    }
}
