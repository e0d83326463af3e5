//! The paper's point-to-point bandwidth benchmark (§4.1).
//!
//! "A parallel application which consists of two processes, a sender and a
//! receiver. When run, the sender starts sending a given number of
//! messages of a specific size. After all the messages are received by the
//! receiver, it sends a finish message to the sender and exits. When the
//! sender receives the finish message it times it and calculates the
//! bandwidth."

use crate::program::{Op, ProcView, Program, Workload};

/// Size of the finish message the receiver sends back.
pub const FINISH_BYTES: u64 = 64;

/// The two-process bandwidth benchmark.
#[derive(Debug, Clone, Copy)]
pub struct P2pBandwidth {
    /// Message payload size.
    pub msg_bytes: u64,
    /// Number of messages (paper: 500,000 small / 100,000 large).
    pub count: u64,
}

impl P2pBandwidth {
    /// Benchmark with an explicit message count (harnesses use smaller
    /// counts: steady-state bandwidth converges long before the paper's
    /// accuracy-driven totals).
    pub fn with_count(msg_bytes: u64, count: u64) -> Self {
        P2pBandwidth { msg_bytes, count }
    }
}

/// Sender-side program (rank 0).
#[derive(Debug, Clone)]
struct Sender {
    msg_bytes: u64,
    count: u64,
    sent: u64,
}

impl Program for Sender {
    fn next_op(&mut self, view: &ProcView) -> Op {
        if self.sent < self.count {
            self.sent += 1;
            Op::Send {
                dst: 1,
                bytes: self.msg_bytes,
            }
        } else if view.msgs_received < 1 {
            // Wait for the finish message, which closes the timed interval.
            Op::WaitRecvMsgs { target: 1 }
        } else {
            Op::Done
        }
    }
    fn name(&self) -> &'static str {
        "p2p-sender"
    }
}

/// Receiver-side program (rank 1).
#[derive(Debug, Clone)]
struct Receiver {
    count: u64,
    finished: bool,
}

impl Program for Receiver {
    fn next_op(&mut self, view: &ProcView) -> Op {
        if view.msgs_received < self.count {
            Op::WaitRecvMsgs { target: self.count }
        } else if !self.finished {
            self.finished = true;
            Op::Send {
                dst: 0,
                bytes: FINISH_BYTES,
            }
        } else {
            Op::Done
        }
    }
    fn name(&self) -> &'static str {
        "p2p-receiver"
    }
}

impl Workload for P2pBandwidth {
    fn nprocs(&self) -> usize {
        2
    }

    fn program(&self, rank: usize) -> Box<dyn Program> {
        match rank {
            0 => Box::new(Sender {
                msg_bytes: self.msg_bytes,
                count: self.count,
                sent: 0,
            }),
            1 => Box::new(Receiver {
                count: self.count,
                finished: false,
            }),
            r => panic!("p2p benchmark has 2 ranks, asked for {r}"),
        }
    }

    fn name(&self) -> &'static str {
        "p2p-bandwidth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    fn view(rank: usize, received: u64, sent: u64) -> ProcView {
        ProcView {
            now: SimTime::ZERO,
            rank,
            nprocs: 2,
            msgs_received: received,
            msgs_sent: sent,
        }
    }

    #[test]
    fn sender_sends_then_waits_then_exits() {
        let w = P2pBandwidth::with_count(1024, 3);
        let mut s = w.program(0);
        for _ in 0..3 {
            assert!(matches!(
                s.next_op(&view(0, 0, 0)),
                Op::Send {
                    dst: 1,
                    bytes: 1024
                }
            ));
        }
        assert_eq!(s.next_op(&view(0, 0, 3)), Op::WaitRecvMsgs { target: 1 });
        assert_eq!(s.next_op(&view(0, 1, 3)), Op::Done);
    }

    #[test]
    fn receiver_waits_then_finishes() {
        let w = P2pBandwidth::with_count(1024, 3);
        let mut r = w.program(1);
        assert_eq!(r.next_op(&view(1, 0, 0)), Op::WaitRecvMsgs { target: 3 });
        assert_eq!(
            r.next_op(&view(1, 3, 0)),
            Op::Send {
                dst: 0,
                bytes: FINISH_BYTES
            }
        );
        assert_eq!(r.next_op(&view(1, 3, 1)), Op::Done);
    }

    #[test]
    #[should_panic(expected = "2 ranks")]
    fn third_rank_panics() {
        P2pBandwidth::with_count(64, 1).program(2);
    }
}
