//! # lanai — simulated LANai 4.3 network interface card
//!
//! The NIC substrate of the reproduction: context slots pairing an on-card
//! send queue with a pinned-host-memory receive queue (paper §2.2, Fig. 1),
//! the halt bit checked on packet boundaries by the modified control
//! program (paper §3.2), serial send/receive engine timelines, and firmware
//! cost constants.
//!
//! The crate is passive (state + cost arithmetic); the `cluster` crate
//! drives it with discrete events, and the flush state machine built on the
//! halt bit lives in `gang-comm`, since it is part of the paper's
//! contribution.

#![warn(missing_docs)]

pub mod costs;
pub mod nic;
pub mod queue;

pub use nic::{CtxId, Nic, NicContext, NicError, NicStats};
pub use queue::{PacketRing, RingFull};
