//! # hostsim — simulated ParPar compute node host
//!
//! The host side of a node: a serial [`cpu::HostCpu`], process ids
//! ([`process::Pid`]), the noded↔process sync [`pipe::Pipe`] (paper
//! Fig. 2), the pageable [`backing::BackingStore`] that receives
//! swapped-out communication state (paper §1), and the host operation
//! [`costs::HostCosts`].
//!
//! Memory-region *copy* costs live in `sim_core::mem`; a process's run
//! state (SIGSTOP/SIGCONT, exit) lives in the `cluster` crate's
//! per-process record. This crate models when the host CPU is busy and
//! where swapped state lives.

#![warn(missing_docs)]

pub mod backing;
pub mod costs;
pub mod cpu;
pub mod pipe;
pub mod process;

pub use backing::BackingStore;
pub use costs::HostCosts;
pub use cpu::{HostCpu, Reservation};
pub use pipe::Pipe;
pub use process::Pid;
