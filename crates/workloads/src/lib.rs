//! # workloads — parallel application programs for the simulated cluster
//!
//! Deterministic state machines implementing the paper's benchmark
//! applications (the §4.1 point-to-point bandwidth test and the §4.2
//! all-to-all stress test) plus auxiliary patterns. The cluster simulator
//! executes them through the [`program::Program`] interface with full FM
//! timing.

#![warn(missing_docs)]

pub mod alltoall;
pub mod bsp;
pub mod collectives;
pub mod p2p;
pub mod pairs;
pub mod pingpong;
pub mod program;
pub mod registry;
pub mod ring;

pub use alltoall::AllToAll;
pub use bsp::Bsp;
pub use collectives::{AllReduce, Barrier, Broadcast, Gather};
pub use p2p::{P2pBandwidth, FINISH_BYTES};
pub use pairs::RandomPairs;
pub use pingpong::PingPong;
pub use program::{Op, ProcView, Program, SpinProgram, Uniform, Workload};
pub use ring::Ring;
