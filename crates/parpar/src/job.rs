//! Job identities and specifications.

use std::fmt;

/// Cluster-wide job identifier, allocated by the masterd (the role the GRM
/// played in stock FM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// What the job representative (jobrep) submits to the masterd.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human name (hard-coded in the application, mapped to a [`JobId`]).
    pub name: &'static str,
    /// Number of processes = number of nodes required (one per node).
    pub nprocs: usize,
    /// Pin the job to these exact nodes instead of letting the matrix
    /// choose (used to force several jobs onto the same node pair, as the
    /// paper's Fig. 6 measurement does).
    pub pinned_nodes: Option<Vec<usize>>,
}

impl JobSpec {
    /// An unpinned job of `nprocs` processes.
    pub fn sized(name: &'static str, nprocs: usize) -> Self {
        JobSpec {
            name,
            nprocs,
            pinned_nodes: None,
        }
    }

    /// A job pinned to exact nodes.
    pub fn pinned(name: &'static str, nodes: Vec<usize>) -> Self {
        JobSpec {
            name,
            nprocs: nodes.len(),
            pinned_nodes: Some(nodes),
        }
    }
}

/// Lifecycle of a job as the masterd sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Placed in the matrix, processes being forked.
    Loading,
    /// All processes reported up; AllUp broadcast sent.
    Running,
    /// All processes exited.
    Finished,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_constructors() {
        let a = JobSpec::sized("bw", 2);
        assert_eq!(a.nprocs, 2);
        assert!(a.pinned_nodes.is_none());
        let b = JobSpec::pinned("bw2", vec![0, 1]);
        assert_eq!(b.nprocs, 2);
        assert_eq!(b.pinned_nodes, Some(vec![0, 1]));
    }

    #[test]
    fn job_id_display() {
        assert_eq!(format!("{}", JobId(4)), "job4");
    }
}
