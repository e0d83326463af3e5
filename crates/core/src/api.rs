//! The abstract network-management interface (paper Table 1).
//!
//! "Our goal when designing the interface for the network management
//! library was … an abstract interface, that is independent of the specific
//! cluster management system and communications library."
//!
//! [`CommManager`] is that interface, one method per Table-1 entry. The
//! glueFM implementation for the simulated ParPar/FM stack lives in the
//! `cluster` crate (`cluster::glue`); this trait is what a different
//! cluster system would implement against.

use sim_core::time::SimTime;

/// Identifies a job to the communication subsystem (opaque here; ParPar
/// passes its JobId value).
pub type CommJob = u32;

/// Errors the communication-management library can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommError {
    /// No NIC context slot / NIC memory available.
    NoResources,
    /// The job is unknown to this node.
    UnknownJob,
    /// The node index is not part of the cluster topology.
    UnknownNode,
    /// A phase was invoked out of order (e.g. context_switch before the
    /// network halted).
    BadPhase,
}

/// The network-management library interface of paper Table 1.
///
/// Grouped exactly as the paper groups it: initialization & maintenance,
/// process control, and context-switch control. All calls are made by the
/// cluster-management daemons (noded), never by applications.
pub trait CommManager {
    // --- Initialization and maintenance -------------------------------

    /// `COMM_init_node` — load the control program into the LANai and
    /// initialize contexts and the routing table.
    fn init_node(&mut self, now: SimTime) -> Result<(), CommError>;

    /// `COMM_add_node` — update the topology with a new node.
    fn add_node(&mut self, now: SimTime, node: usize) -> Result<(), CommError>;

    /// `COMM_remove_node` — remove a node from the topology.
    fn remove_node(&mut self, now: SimTime, node: usize) -> Result<(), CommError>;

    // --- Process control ----------------------------------------------

    /// `COMM_init_job` — allocate a communication context and prepare the
    /// environment variables `FM_initialize` will read. Called *before*
    /// the fork so arriving packets can already be received (paper §3.2).
    /// Returns whether the context came up NIC-resident: under the
    /// buffer-switching and endpoint-caching schemes a job loaded into an
    /// inactive slot starts life swapped out instead.
    fn init_job(&mut self, now: SimTime, job: CommJob, rank: usize) -> Result<bool, CommError>;

    /// `COMM_end_job` — release the job's context and clean up.
    fn end_job(&mut self, now: SimTime, job: CommJob) -> Result<(), CommError>;

    // --- Context switch control ----------------------------------------

    /// `COMM_halt_network` — stop sending on a packet boundary and run the
    /// global network-flush protocol.
    fn halt_network(&mut self, now: SimTime) -> Result<(), CommError>;

    /// `COMM_context_switch` — swap the communication buffers between the
    /// outgoing and incoming jobs.
    fn context_switch(
        &mut self,
        now: SimTime,
        from: Option<CommJob>,
        to: Option<CommJob>,
    ) -> Result<(), CommError>;

    /// `COMM_release_network` — synchronize with all nodes and restart
    /// sending.
    fn release_network(&mut self, now: SimTime) -> Result<(), CommError>;
}

/// The Table-1 call names, for traces and documentation.
pub const TABLE1_API: [&str; 8] = [
    "COMM_init_node",
    "COMM_add_node",
    "COMM_remove_node",
    "COMM_init_job",
    "COMM_end_job",
    "COMM_halt_network",
    "COMM_context_switch",
    "COMM_release_network",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_all_eight_calls() {
        assert_eq!(TABLE1_API.len(), 8);
        assert!(TABLE1_API.iter().all(|s| s.starts_with("COMM_")));
    }
}
