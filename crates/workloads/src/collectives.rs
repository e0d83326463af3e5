//! Collective-communication workloads (an MPI-style layer over FM).
//!
//! The paper integrates FM specifically so that "higher level
//! communication systems, such as MPI" run over it (§3.2). These programs
//! implement the classic collective algorithms as [`Program`] state
//! machines — they exercise the log-depth traffic patterns MPI
//! applications put on the NIC queues, across gang switches.
//!
//! All algorithms count *cumulative* received messages (the simulator's
//! wait primitive), which is sound because every algorithm here has each
//! process receive a statically known number of messages per phase.

use crate::program::{Op, ProcView, Program, Workload};

/// Dissemination barrier: ⌈log₂ N⌉ rounds; in round k each rank sends to
/// `(rank + 2^k) mod N` and waits for one more arrival.
#[derive(Debug, Clone, Copy)]
pub struct Barrier {
    /// Processes.
    pub nprocs: usize,
    /// Payload of the barrier token messages.
    pub msg_bytes: u64,
    /// How many barrier episodes to run back-to-back.
    pub repetitions: u64,
}

#[derive(Debug, Clone)]
struct BarrierProgram {
    cfg: Barrier,
    rank: usize,
    episode: u64,
    round: u32,
    sent_this_round: bool,
}

fn rounds_for(n: usize) -> u32 {
    (usize::BITS - (n - 1).leading_zeros()).max(1)
}

impl Program for BarrierProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let n = self.cfg.nprocs;
        let rounds = rounds_for(n);
        if self.episode >= self.cfg.repetitions {
            return Op::Done;
        }
        if self.round >= rounds {
            self.episode += 1;
            self.round = 0;
            self.sent_this_round = false;
            return self.next_op(view);
        }
        if !self.sent_this_round {
            self.sent_this_round = true;
            let dst = (self.rank + (1 << self.round)) % n;
            return Op::Send {
                dst,
                bytes: self.cfg.msg_bytes,
            };
        }
        // One arrival per completed round, across all episodes.
        let target = self.episode * rounds as u64 + self.round as u64 + 1;
        if view.msgs_received < target {
            Op::WaitRecvMsgs { target }
        } else {
            self.round += 1;
            self.sent_this_round = false;
            self.next_op(view)
        }
    }
    fn name(&self) -> &'static str {
        "barrier"
    }
}

impl Workload for Barrier {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(self.nprocs >= 2);
        Box::new(BarrierProgram {
            cfg: *self,
            rank,
            episode: 0,
            round: 0,
            sent_this_round: false,
        })
    }
    fn name(&self) -> &'static str {
        "barrier"
    }
}

/// Binomial-tree broadcast from `root`: the informed set doubles each
/// round; rank `vr` (relative to root) receives in the round where its
/// top bit enters, then forwards.
#[derive(Debug, Clone, Copy)]
pub struct Broadcast {
    /// Processes.
    pub nprocs: usize,
    /// Root rank.
    pub root: usize,
    /// Broadcast payload bytes.
    pub msg_bytes: u64,
    /// Back-to-back broadcasts.
    pub repetitions: u64,
}

#[derive(Debug, Clone)]
struct BcastProgram {
    cfg: Broadcast,
    rank: usize,
    episode: u64,
    mask: usize,
    have_data: bool,
    recvs_so_far: u64,
}

impl Program for BcastProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let n = self.cfg.nprocs;
        if self.episode >= self.cfg.repetitions {
            return Op::Done;
        }
        let vr = (self.rank + n - self.cfg.root) % n;
        loop {
            if self.mask >= n.next_power_of_two() {
                // Episode finished for this rank.
                self.episode += 1;
                self.mask = 1;
                self.have_data = vr == 0;
                if self.episode >= self.cfg.repetitions {
                    return Op::Done;
                }
                continue;
            }
            let mask = self.mask;
            if vr < mask || vr == 0 {
                // Informed: forward to vr + mask if it exists.
                self.have_data = true;
                self.mask <<= 1;
                let dst_vr = vr + mask;
                if dst_vr < n {
                    let dst = (dst_vr + self.cfg.root) % n;
                    return Op::Send {
                        dst,
                        bytes: self.cfg.msg_bytes,
                    };
                }
                continue;
            }
            if vr < 2 * mask {
                // This is my receiving round.
                if !self.have_data {
                    let target = self.recvs_so_far + 1;
                    if view.msgs_received < target {
                        return Op::WaitRecvMsgs { target };
                    }
                    self.recvs_so_far += 1;
                    self.have_data = true;
                }
                self.mask <<= 1;
                continue;
            }
            // Not yet my turn in the doubling; skip the round.
            self.mask <<= 1;
        }
    }
    fn name(&self) -> &'static str {
        "broadcast"
    }
}

impl Workload for Broadcast {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(self.nprocs >= 2 && self.root < self.nprocs);
        let vr = (rank + self.nprocs - self.root) % self.nprocs;
        Box::new(BcastProgram {
            cfg: *self,
            rank,
            episode: 0,
            mask: 1,
            have_data: vr == 0,
            recvs_so_far: 0,
        })
    }
    fn name(&self) -> &'static str {
        "broadcast"
    }
}

/// Recursive-doubling allreduce (requires power-of-two `nprocs`): log₂ N
/// rounds; in round k each rank exchanges with `rank XOR 2^k`.
#[derive(Debug, Clone, Copy)]
pub struct AllReduce {
    /// Processes (power of two).
    pub nprocs: usize,
    /// Vector payload bytes exchanged each round.
    pub msg_bytes: u64,
    /// Back-to-back reductions.
    pub repetitions: u64,
}

#[derive(Debug, Clone)]
struct AllReduceProgram {
    cfg: AllReduce,
    rank: usize,
    episode: u64,
    round: u32,
    sent_this_round: bool,
}

impl Program for AllReduceProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        let n = self.cfg.nprocs;
        let rounds = n.trailing_zeros();
        if self.episode >= self.cfg.repetitions {
            return Op::Done;
        }
        if self.round >= rounds {
            self.episode += 1;
            self.round = 0;
            self.sent_this_round = false;
            if self.episode >= self.cfg.repetitions {
                return Op::Done;
            }
        }
        if !self.sent_this_round {
            self.sent_this_round = true;
            let partner = self.rank ^ (1 << self.round);
            return Op::Send {
                dst: partner,
                bytes: self.cfg.msg_bytes,
            };
        }
        let target = self.episode * rounds as u64 + self.round as u64 + 1;
        if view.msgs_received < target {
            Op::WaitRecvMsgs { target }
        } else {
            self.round += 1;
            self.sent_this_round = false;
            self.next_op(view)
        }
    }
    fn name(&self) -> &'static str {
        "allreduce"
    }
}

impl Workload for AllReduce {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(
            self.nprocs.is_power_of_two() && self.nprocs >= 2,
            "recursive doubling needs a power-of-two process count"
        );
        Box::new(AllReduceProgram {
            cfg: *self,
            rank,
            episode: 0,
            round: 0,
            sent_this_round: false,
        })
    }
    fn name(&self) -> &'static str {
        "allreduce"
    }
}

/// Gather: every rank sends one message to the root; the root waits for
/// all of them.
#[derive(Debug, Clone, Copy)]
pub struct Gather {
    /// Processes.
    pub nprocs: usize,
    /// Root rank.
    pub root: usize,
    /// Per-rank contribution bytes.
    pub msg_bytes: u64,
    /// Back-to-back gathers.
    pub repetitions: u64,
}

#[derive(Debug, Clone)]
struct GatherProgram {
    cfg: Gather,
    rank: usize,
    episode: u64,
    sent: bool,
}

impl Program for GatherProgram {
    fn next_op(&mut self, view: &ProcView) -> Op {
        if self.episode >= self.cfg.repetitions {
            return Op::Done;
        }
        if self.rank == self.cfg.root {
            let per = (self.cfg.nprocs - 1) as u64;
            let target = (self.episode + 1) * per;
            if view.msgs_received < target {
                return Op::WaitRecvMsgs { target };
            }
            self.episode += 1;
            return self.next_op(view);
        }
        if !self.sent {
            self.sent = true;
            return Op::Send {
                dst: self.cfg.root,
                bytes: self.cfg.msg_bytes,
            };
        }
        self.episode += 1;
        self.sent = false;
        self.next_op(view)
    }
    fn name(&self) -> &'static str {
        "gather"
    }
}

impl Workload for Gather {
    fn nprocs(&self) -> usize {
        self.nprocs
    }
    fn program(&self, rank: usize) -> Box<dyn Program> {
        assert!(self.nprocs >= 2 && self.root < self.nprocs);
        Box::new(GatherProgram {
            cfg: *self,
            rank,
            episode: 0,
            sent: false,
        })
    }
    fn name(&self) -> &'static str {
        "gather"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimTime;

    fn view(rank: usize, nprocs: usize, received: u64) -> ProcView {
        ProcView {
            now: SimTime::ZERO,
            rank,
            nprocs,
            msgs_received: received,
            msgs_sent: 0,
        }
    }

    /// Execute programs of a workload in lockstep with an instant
    /// message-delivery oracle; returns per-rank (sends, receives).
    fn lockstep(w: &dyn Workload, max_steps: usize) -> Vec<(u64, u64)> {
        let n = w.nprocs();
        let mut progs: Vec<_> = (0..n).map(|r| w.program(r)).collect();
        let mut received = vec![0u64; n];
        let mut sent = vec![0u64; n];
        let mut done = vec![false; n];
        for _ in 0..max_steps {
            if done.iter().all(|&d| d) {
                break;
            }
            let mut progress = false;
            for r in 0..n {
                if done[r] {
                    continue;
                }
                match progs[r].next_op(&view(r, n, received[r])) {
                    Op::Send { dst, .. } => {
                        assert_ne!(dst, r, "self-send in collective");
                        assert!(dst < n);
                        sent[r] += 1;
                        received[dst] += 1; // instant delivery oracle
                        progress = true;
                    }
                    Op::WaitRecvMsgs { target } => {
                        assert!(
                            target <= sent.iter().sum::<u64>() + n as u64 * 64,
                            "unsatisfiable wait"
                        );
                        // blocked; no progress from this rank this step
                    }
                    Op::Compute(_) => progress = true,
                    Op::Done => {
                        done[r] = true;
                        progress = true;
                    }
                }
            }
            assert!(progress, "collective deadlocked: {received:?} {done:?}");
        }
        assert!(done.iter().all(|&d| d), "collective did not terminate");
        sent.into_iter().zip(received).collect()
    }

    #[test]
    fn barrier_message_counts() {
        for n in [2usize, 3, 4, 7, 8, 16] {
            let w = Barrier {
                nprocs: n,
                msg_bytes: 64,
                repetitions: 3,
            };
            let stats = lockstep(&w, 10_000);
            let rounds = rounds_for(n) as u64;
            for (s, r) in stats {
                assert_eq!(s, 3 * rounds, "n={n}");
                assert_eq!(r, 3 * rounds, "n={n}");
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_exactly_once_per_episode() {
        for n in [2usize, 3, 5, 8, 16] {
            for root in [0, n - 1] {
                let w = Broadcast {
                    nprocs: n,
                    root,
                    msg_bytes: 1024,
                    repetitions: 2,
                };
                let stats = lockstep(&w, 10_000);
                let total_sent: u64 = stats.iter().map(|(s, _)| s).sum();
                let total_recv: u64 = stats.iter().map(|(_, r)| r).sum();
                // A broadcast delivers exactly n-1 messages per episode.
                assert_eq!(total_sent, 2 * (n as u64 - 1), "n={n} root={root}");
                assert_eq!(total_recv, total_sent);
                // Non-root ranks receive exactly once per episode.
                for (rank, (_, r)) in stats.iter().enumerate() {
                    if rank == root {
                        assert_eq!(*r, 0);
                    } else {
                        assert_eq!(*r, 2, "rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_exchanges_log_n_rounds() {
        for n in [2usize, 4, 8, 16] {
            let w = AllReduce {
                nprocs: n,
                msg_bytes: 4096,
                repetitions: 2,
            };
            let stats = lockstep(&w, 10_000);
            let rounds = n.trailing_zeros() as u64;
            for (s, r) in stats {
                assert_eq!(s, 2 * rounds);
                assert_eq!(r, 2 * rounds);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn allreduce_rejects_non_power_of_two() {
        AllReduce {
            nprocs: 6,
            msg_bytes: 8,
            repetitions: 1,
        }
        .program(0);
    }

    #[test]
    fn gather_collects_n_minus_one() {
        let w = Gather {
            nprocs: 5,
            root: 2,
            msg_bytes: 100,
            repetitions: 4,
        };
        let stats = lockstep(&w, 10_000);
        for (rank, (s, r)) in stats.iter().enumerate() {
            if rank == 2 {
                assert_eq!(*s, 0);
                assert_eq!(*r, 4 * 4);
            } else {
                assert_eq!(*s, 4);
                assert_eq!(*r, 0);
            }
        }
    }
}
