//! Process identity.
//!
//! A simulated process's run state — forked, SIGSTOPped by the gang
//! scheduler, SIGCONTed, torn down — lives with the rest of its state in
//! the cluster simulator's per-process record; this module only names it.
//!
//! The ParPar integration passes FM context data to freshly forked
//! processes in environment variables (paper §3.2: "this data is simply
//! transferred to the process using environment variables"). A simulated
//! process keeps no environment: the handoff is modelled by its cost, the
//! host work of `fastmsg::init`'s `InitMode::ParPar` start-up.

use std::fmt;

/// Process identifier, unique per simulated host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}
