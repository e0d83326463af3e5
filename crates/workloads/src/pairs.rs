//! Random-pairs workload: every round, each rank sends one message to a
//! pseudo-random peer.
//!
//! The traffic matrix is derived from a shared seed with a SplitMix64
//! hash, so every rank can compute — without communicating — exactly how
//! many messages it will receive per round block. That keeps the workload
//! irregular on the wire (unlike ring or all-to-all) while preserving the
//! count-based wait contract the simulator's blocking primitive uses.

use crate::program::{Op, ProcView, Program, Workload};

/// Irregular point-to-point traffic from a shared seed.
#[derive(Debug, Clone, Copy)]
pub struct RandomPairs {
    /// Processes.
    pub nprocs: usize,
    /// Message payload bytes.
    pub msg_bytes: u64,
    /// Rounds (one send per rank per round).
    pub rounds: u64,
    /// Shared seed defining the traffic matrix.
    pub seed: u64,
    /// Ranks synchronize (wait for everything owed so far) every
    /// `sync_every` rounds; must divide into the schedule or the final
    /// partial block is synchronized at the end.
    pub sync_every: u64,
}

/// The peer rank `src` targets in `round` (never itself).
pub fn target(seed: u64, nprocs: usize, src: usize, round: u64) -> usize {
    let mut z = seed
        .wrapping_add((src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(round.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let pick = (z % (nprocs as u64 - 1)) as usize;
    if pick >= src {
        pick + 1
    } else {
        pick
    }
}

/// Messages `dst` receives in rounds `[0, upto)`.
pub fn expected_received(seed: u64, nprocs: usize, dst: usize, upto: u64) -> u64 {
    let mut count = 0;
    for r in 0..upto {
        for s in 0..nprocs {
            if s != dst && target(seed, nprocs, s, r) == dst {
                count += 1;
            }
        }
    }
    count
}

#[derive(Debug, Clone)]
struct PairsProgram {
    cfg: RandomPairs,
    rank: usize,
    round: u64,
    sent_this_round: bool,
}

impl Program for PairsProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let cfg = &self.cfg;
        if self.round >= cfg.rounds {
            // Final synchronization: collect everything owed.
            let owed = expected_received(cfg.seed, cfg.nprocs, self.rank, cfg.rounds);
            if view.msgs_received < owed {
                return Op::WaitRecvMsgs { target: owed };
            }
            return Op::Done;
        }
        if !self.sent_this_round {
            self.sent_this_round = true;
            return Op::Send {
                dst: target(cfg.seed, cfg.nprocs, self.rank, self.round),
                bytes: cfg.msg_bytes,
            };
        }
        self.round += 1;
        self.sent_this_round = false;
        // Periodic sync keeps queues bounded on unlucky hot receivers.
        if self.round.is_multiple_of(cfg.sync_every.max(1)) {
            let owed = expected_received(cfg.seed, cfg.nprocs, self.rank, self.round);
            if view.msgs_received < owed {
                return Op::WaitRecvMsgs { target: owed };
            }
        }
        self.next_op(view)
    }
    fn name(&self) -> &'static str {
        "random-pairs"
    }
}

impl Workload for RandomPairs {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(self.nprocs >= 2);
        Box::new(PairsProgram {
            cfg: *self,
            rank,
            round: 0,
            sent_this_round: false,
        })
    }
    fn name(&self) -> &'static str {
        "random-pairs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_never_self_and_cover_peers() {
        let n = 8;
        let mut seen = vec![false; n];
        for r in 0..200 {
            for s in 0..n {
                let t = target(42, n, s, r);
                assert_ne!(t, s);
                assert!(t < n);
                seen[t] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "all peers eventually targeted");
    }

    #[test]
    fn expected_received_is_conserved() {
        // Total received over all ranks == total sent (nprocs per round).
        let (seed, n, rounds) = (7u64, 6usize, 50u64);
        let total: u64 = (0..n).map(|d| expected_received(seed, n, d, rounds)).sum();
        assert_eq!(total, n as u64 * rounds);
    }

    #[test]
    fn program_terminates_under_instant_delivery() {
        let w = RandomPairs {
            nprocs: 4,
            msg_bytes: 256,
            rounds: 30,
            seed: 9,
            sync_every: 10,
        };
        let mut progs: Vec<_> = (0..4).map(|r| w.program(r)).collect();
        let mut received = vec![0u64; 4];
        let mut done = [false; 4];
        for _ in 0..10_000 {
            if done.iter().all(|&d| d) {
                break;
            }
            for r in 0..4 {
                if done[r] {
                    continue;
                }
                let view = ProcView {
                    now: sim_core::time::SimTime::ZERO,
                    rank: r,
                    nprocs: 4,
                    msgs_received: received[r],
                    msgs_sent: 0,
                };
                match progs[r].next_op(&view) {
                    Op::Send { dst, .. } => received[dst] += 1,
                    Op::Done => done[r] = true,
                    _ => {}
                }
            }
        }
        assert!(done.iter().all(|&d| d));
        let expect: Vec<u64> = (0..4).map(|d| expected_received(9, 4, d, 30)).collect();
        assert_eq!(received, expect);
    }
}
