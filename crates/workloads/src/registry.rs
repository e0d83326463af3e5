//! Named scenario registry: one place mapping a scenario name to a
//! workload factory, shared by the `figs` experiments that build
//! scenarios by name (`perf_snapshot`, `scale_sweep`, and `policy_sweep`
//! and `serve_sweep` through the serving-mode measurement), so the CSVs
//! all mean the same thing by construction.
//!
//! Every factory takes `(nprocs, seed, size)`:
//!
//! - `nprocs` — processes in the job (ignored by `p2p*`, which is a
//!   two-process benchmark by definition);
//! - `seed` — per-job randomness (only `pairs` uses it, for its traffic
//!   matrix);
//! - `size` — the per-job work amount in the scenario's natural unit
//!   (messages, laps, rounds, or compute chunks), so open-loop arrival
//!   plans can draw job sizes from a seeded distribution.

use sim_core::time::Cycles;

use crate::alltoall::AllToAll;
use crate::p2p::P2pBandwidth;
use crate::pairs::RandomPairs;
use crate::program::{Op, ProcView, Program, Uniform, Workload};
use crate::ring::Ring;

/// A CPU-bound job that computes `size` 1 ms chunks and exits — the
/// finite-work counterpart of [`crate::program::SpinProgram`], so serving
/// scenarios can mix compute-only jobs with communicating ones.
#[derive(Debug, Clone, Copy)]
struct ComputeBurst {
    chunks_left: u64,
}

impl Program for ComputeBurst {
    fn next_op(&mut self, _view: &ProcView) -> Op {
        if self.chunks_left == 0 {
            return Op::Done;
        }
        self.chunks_left -= 1;
        Op::Compute(Cycles::from_ms(1))
    }
    fn name(&self) -> &'static str {
        "compute"
    }
}

/// Scenario names [`build`] understands, in stable order (harnesses list
/// them in `--help` text and sweep over them deterministically).
pub fn names() -> &'static [&'static str] {
    &["p2p", "p2p-small", "ring", "alltoall", "pairs", "compute"]
}

/// Build the named scenario's workload, or `None` for an unknown name.
///
/// Sizes are clamped to at least 1 so a degenerate draw still produces a
/// job that finishes.
pub fn build(name: &str, nprocs: usize, seed: u64, size: u64) -> Option<Box<dyn Workload>> {
    let size = size.max(1);
    let nprocs = nprocs.max(2);
    Some(match name {
        // The paper's §4.1 bandwidth pair: `size` 64 KB messages.
        "p2p" => Box::new(P2pBandwidth::with_count(65_536, size)),
        // Same pair at small-message sizes: `size` 4 KB messages.
        "p2p-small" => Box::new(P2pBandwidth::with_count(4_096, size)),
        // A token circling all `nprocs` ranks for `size` laps.
        "ring" => Box::new(Ring {
            nprocs,
            msg_bytes: 65_536,
            laps: size,
        }),
        // The §4.2 stress pattern, bounded to `size` rounds.
        "alltoall" => Box::new(AllToAll {
            nprocs,
            msg_bytes: 1536,
            burst: 4,
            rounds: Some(size),
        }),
        // Random pairwise traffic: `size` rounds on a seeded matrix.
        "pairs" => Box::new(RandomPairs {
            nprocs,
            msg_bytes: 4096,
            rounds: size,
            seed,
            sync_every: 8,
        }),
        // CPU-only: `size` milliseconds of compute per rank, no messages.
        "compute" => Box::new(Uniform::new(nprocs, "compute", move |_r| {
            Box::new(ComputeBurst { chunks_left: size }) as Box<dyn Program>
        })),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_name_builds() {
        for name in names() {
            let w = build(name, 4, 7, 10).unwrap_or_else(|| panic!("{name} missing"));
            assert!(w.nprocs() >= 2, "{name}");
            // Each rank yields a program without panicking.
            for r in 0..w.nprocs() {
                let _ = w.program(r);
            }
        }
        assert!(build("no-such-scenario", 4, 7, 10).is_none());
    }

    #[test]
    fn compute_burst_finishes_after_its_chunks() {
        let view = ProcView {
            now: sim_core::time::SimTime::ZERO,
            rank: 0,
            nprocs: 2,
            msgs_received: 0,
            msgs_sent: 0,
        };
        let mut p = ComputeBurst { chunks_left: 3 };
        for _ in 0..3 {
            assert!(matches!(p.next_op(&view), Op::Compute(_)));
        }
        assert_eq!(p.next_op(&view), Op::Done);
    }
}
