//! # hostsim — simulated ParPar compute node host
//!
//! The host side of a node: a serial [`cpu::HostCpu`], process ids
//! ([`process::Pid`]), the noded↔process sync [`pipe::Pipe`] (paper
//! Fig. 2), and the host operation [`costs::HostCosts`].
//!
//! Memory-region *copy* costs live in `sim_core::mem`; a process's run
//! state (SIGSTOP/SIGCONT, exit) and its swapped-out communication state
//! (paper §1) live in the `cluster` crate's per-process record. This crate
//! models when the host CPU is busy.

#![warn(missing_docs)]

pub mod costs;
pub mod cpu;
pub mod pipe;
pub mod process;

pub use costs::HostCosts;
pub use cpu::{HostCpu, Reservation};
pub use pipe::Pipe;
pub use process::Pid;
