//! # myrinet — simulated Myrinet system-area network
//!
//! Timing model of ParPar's data network (paper §2.1): 1.28 Gb/s
//! store-and-forward links, crossbar switches arranged as a fat-tree (the
//! paper's single crossbar is the one-switch shape), a single fixed source
//! route per host pair computed from the shape, and serial-loop broadcast
//! for control packets. The model guarantees the two ordering properties
//! the paper's flush protocol relies on: per-route FIFO delivery, and
//! halt-after-data.
//!
//! This crate is *passive*: it answers "when would this packet arrive?";
//! the `cluster` crate turns answers into discrete events.

#![warn(missing_docs)]

pub mod broadcast;
pub mod network;
pub mod topology;

pub use broadcast::{serial_peer, CONTROL_PACKET_BYTES};
pub use network::{Network, TierTraffic, Transmit};
pub use topology::{HostId, Link, LinkId, Port, Topology, HOP_LATENCY_CYCLES, MYRINET_BW};
