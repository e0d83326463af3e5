//! # parpar — cluster management of the ParPar software MPP
//!
//! The management plane of the reproduction (paper §2.1): the masterd with
//! its gang-scheduling matrix (DHC buddy placement, round-robin slot
//! rotation), the per-node nodeds, the control-Ethernet timing model, and
//! the daemon protocol of Fig. 2.
//!
//! These are pure state machines; the `cluster` crate delivers their
//! messages as discrete events with `ControlNet` timing.

#![warn(missing_docs)]

pub mod arrivals;
pub mod control;
pub mod job;
pub mod jobrep;
pub mod masterd;
pub mod matrix;
pub mod noded;
pub mod protocol;
pub mod tree;

pub use arrivals::{ArrivalPlan, ArrivalSpec};
pub use control::{ControlNet, ControlPlane};
pub use job::{JobId, JobSpec, JobState};
pub use jobrep::{Admission, JobRep, JobRepStats};
pub use masterd::{Masterd, Submitted, SwitchOrder};
pub use matrix::{GangMatrix, PlaceError, Placement};
pub use noded::Noded;
pub use protocol::{MasterMsg, NodedCmd, TreeMsg};
pub use tree::{ControlTree, TreeAgg};
