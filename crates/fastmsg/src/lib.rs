//! # fastmsg — a reimplementation of Illinois Fast Messages (FM 2.0)
//!
//! The user-level communication library of the reproduction (paper §2.2):
//! 1560-byte packets, per-context send/receive queues, credit-based flow
//! control with piggybacked and dedicated refills, and — crucially — the
//! two buffer-division policies whose contrast is the paper's subject:
//!
//! * [`BufferPolicy::StaticDivision`] — stock FM, credits
//!   `C0 = Br/(n²·p)` (paper Fig. 5's collapse);
//! * [`BufferPolicy::FullBuffer`] — the gang-scheduled buffer-switching
//!   scheme, credits `C0 = Br/p` (paper Fig. 6).
//!
//! Two post-paper policies round out the design space:
//! [`BufferPolicy::CachedEndpoints`] (virtual-networks endpoint caching,
//! §5's related work) and [`BufferPolicy::Demand`] (online per-channel
//! credit reallocation, see [`demand`]).
//!
//! The crate holds protocol state machines and cost arithmetic only; the
//! `cluster` crate turns them into discrete events on the simulated
//! ParPar.

#![warn(missing_docs)]

pub mod config;
pub mod costs;
pub mod demand;
pub mod division;
pub mod flow;
pub mod init;
pub mod packet;
pub mod peers;
pub mod proc;
pub mod rel;

pub use config::{DemandConfig, FmConfig, RelConfig};
pub use demand::{DemandStats, DemandWindows};
pub use division::{BufferPolicy, ContextGeometry, CreditRounding};
pub use flow::{FlowControl, FlowStats};
pub use init::{InitMachine, InitMode, InitStep};
pub use packet::{
    fragment_payload, fragments_for, Packet, PacketKind, HEADER_BYTES, MAX_PAYLOAD, PACKET_BYTES,
};
pub use proc::{Extract, FmProcess, ProcStats};
pub use rel::{GoBackN, RelStats};
