//! # gang-comm — user-level communication under gang scheduling
//!
//! The primary contribution of Etsion & Feitelson (IPPS 2001), reproduced:
//! give the *running* process the NIC's entire communication buffers and
//! swap their contents at gang context-switch time, instead of statically
//! dividing them among `n` contexts and collapsing the credit window by a
//! factor `n²`.
//!
//! Components:
//!
//! * [`api`] — the abstract cluster-manager ↔ communication-library
//!   interface of paper Table 1 ([`api::CommManager`]);
//! * [`flush`] — the network-flush state machine of paper Fig. 3;
//! * [`sequencer`] — the per-node three-phase switch orchestration with
//!   stage timing (paper Figs. 7/9);
//! * [`switcher`] — buffer-switch cost model: full copy vs
//!   valid-packets-only (paper Figs. 4, 7, 9);
//! * [`state`] — the saved communication state ([`state::SavedCommState`]);
//! * [`overhead`] — overhead-vs-quantum accounting (paper §4.2);
//! * [`strategy`] — the paper's scheme plus the §5 related-work baselines
//!   (SHARE-style discard, PM/SCore-style ack-drain) for ablations.
//!
//! The credit rescaling itself (`C0 = Br/p` instead of `Br/(n²p)`) lives in
//! `fastmsg::division` as [`fastmsg::BufferPolicy::FullBuffer`]; this crate
//! provides everything that makes the full-buffer policy *safe*: the flush,
//! the copy, and the synchronized release.

#![warn(missing_docs)]

pub mod api;
pub mod flush;
pub mod overhead;
pub mod sequencer;
pub mod state;
pub mod strategy;
pub mod switcher;

pub use api::{CommError, CommJob, CommManager, TABLE1_API};
pub use flush::{BarrierKind, FlushMachine};
pub use overhead::OverheadLedger;
pub use sequencer::{StageBreakdown, SwitchPhase, SwitchSequencer};
pub use state::SavedCommState;
pub use strategy::SwitchStrategy;
pub use switcher::{restore_cost, save_cost, switch_cost, CopyStrategy};
