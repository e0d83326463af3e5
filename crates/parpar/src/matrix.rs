//! The gang-scheduling matrix (paper §2.1).
//!
//! "Allocation is based on a gang scheduling matrix with 16 columns
//! (representing the 16 nodes) and n rows, where n is the number of time
//! slots required. Each cell in the matrix represents a process of a
//! specific parallel application associated with a physical node. …
//! The mapping of applications into the matrix is based on the DHC
//! scheme."
//!
//! Placement follows DHC's buddy discipline: a job of `k` processes
//! occupies a contiguous, size-aligned power-of-two block of columns, so
//! sibling partitions never fragment each other. Several jobs share a slot
//! when their blocks are disjoint.

use crate::job::JobId;

/// A job's position in the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Row (time slot).
    pub slot: usize,
    /// Columns (nodes), distinct; `nodes[rank]` hosts rank `rank`.
    /// Ascending, except for a pinned request, which keeps its order.
    pub nodes: Vec<usize>,
}

/// Why placement failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlaceError {
    /// The job wants more nodes than the cluster has.
    TooLarge,
    /// Every slot is full (matrix depth exhausted).
    NoSlot,
    /// A pinned request's nodes are taken in every slot.
    PinnedBusy,
    /// The job id is already placed.
    Duplicate,
    /// A pinned request names this node more than once: a job runs one
    /// process per node, so its ranks and hosts must match one to one.
    RepeatedNode(usize),
}

/// The matrix itself.
#[derive(Debug, Clone)]
pub struct GangMatrix {
    nodes: usize,
    slots: usize,
    /// `cells[slot][node]` = job whose process occupies that cell.
    cells: Vec<Vec<Option<JobId>>>,
}

impl GangMatrix {
    /// An empty matrix of `slots` rows over `nodes` columns.
    pub fn new(nodes: usize, slots: usize) -> Self {
        assert!(nodes >= 1 && slots >= 1);
        GangMatrix {
            nodes,
            slots,
            cells: vec![vec![None; nodes]; slots],
        }
    }

    /// Number of columns (nodes).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of rows (time slots).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// The job occupying `(slot, node)`, if any.
    pub fn cell(&self, slot: usize, node: usize) -> Option<JobId> {
        self.cells[slot][node]
    }

    /// Is `job` anywhere in the matrix?
    pub fn contains(&self, job: JobId) -> bool {
        self.cells.iter().any(|row| row.contains(&Some(job)))
    }

    /// Slots that currently host at least one job, ascending.
    pub fn active_slots(&self) -> Vec<usize> {
        (0..self.slots)
            .filter(|&s| self.cells[s].iter().any(Option::is_some))
            .collect()
    }

    /// Jobs in a slot, ascending by first column.
    pub fn jobs_in_slot(&self, slot: usize) -> Vec<JobId> {
        let mut seen = Vec::new();
        for c in self.cells[slot].iter().flatten() {
            if !seen.contains(c) {
                seen.push(*c);
            }
        }
        seen
    }

    /// Place a job of `nprocs` processes following the DHC buddy
    /// discipline: the block size is `nprocs` rounded up to a power of two,
    /// the block starts at a multiple of its size, and the earliest slot
    /// with a free block wins.
    pub fn place(&mut self, job: JobId, nprocs: usize) -> Result<Placement, PlaceError> {
        if self.contains(job) {
            return Err(PlaceError::Duplicate);
        }
        if nprocs == 0 || nprocs > self.nodes {
            return Err(PlaceError::TooLarge);
        }
        let block = nprocs.next_power_of_two();
        for slot in 0..self.slots {
            let mut start = 0;
            while start + block <= self.nodes {
                if self.cells[slot][start..start + block]
                    .iter()
                    .all(Option::is_none)
                {
                    let nodes: Vec<usize> = (start..start + nprocs).collect();
                    for &n in &nodes {
                        self.cells[slot][n] = Some(job);
                    }
                    return Ok(Placement { slot, nodes });
                }
                start += block;
            }
        }
        Err(PlaceError::NoSlot)
    }

    /// Place a job in the first contiguous run of free columns, with no
    /// alignment constraint — a naive first-fit baseline for comparing
    /// against the DHC buddy discipline (less internal structure, but
    /// placements fragment slots over time).
    pub fn place_first_fit(&mut self, job: JobId, nprocs: usize) -> Result<Placement, PlaceError> {
        if self.contains(job) {
            return Err(PlaceError::Duplicate);
        }
        if nprocs == 0 || nprocs > self.nodes {
            return Err(PlaceError::TooLarge);
        }
        for slot in 0..self.slots {
            let mut run = 0;
            for start in 0..self.nodes {
                if self.cells[slot][start].is_none() {
                    run += 1;
                    if run == nprocs {
                        let first = start + 1 - nprocs;
                        let nodes: Vec<usize> = (first..first + nprocs).collect();
                        for &n in &nodes {
                            self.cells[slot][n] = Some(job);
                        }
                        return Ok(Placement { slot, nodes });
                    }
                } else {
                    run = 0;
                }
            }
        }
        Err(PlaceError::NoSlot)
    }

    /// Place a job on exactly `nodes`, in the earliest slot where all of
    /// them are free. Rank `r` runs on `nodes[r]`, so no node may repeat.
    pub fn place_pinned(&mut self, job: JobId, nodes: &[usize]) -> Result<Placement, PlaceError> {
        if self.contains(job) {
            return Err(PlaceError::Duplicate);
        }
        if nodes.is_empty() || nodes.iter().any(|&n| n >= self.nodes) {
            return Err(PlaceError::TooLarge);
        }
        let mut seen = vec![false; self.nodes];
        if let Some(&n) = nodes
            .iter()
            .find(|&&n| std::mem::replace(&mut seen[n], true))
        {
            return Err(PlaceError::RepeatedNode(n));
        }
        for slot in 0..self.slots {
            if nodes.iter().all(|&n| self.cells[slot][n].is_none()) {
                for &n in nodes {
                    self.cells[slot][n] = Some(job);
                }
                return Ok(Placement {
                    slot,
                    nodes: nodes.to_vec(),
                });
            }
        }
        Err(PlaceError::PinnedBusy)
    }

    /// Remove a job from the matrix (all its cells).
    pub fn remove(&mut self, job: JobId) {
        for row in &mut self.cells {
            for c in row.iter_mut() {
                if *c == Some(job) {
                    *c = None;
                }
            }
        }
    }

    /// Panic if matrix invariants are violated (each job confined to one
    /// slot). Used by property tests.
    pub fn check_invariants(&self) {
        use std::collections::BTreeMap;
        let mut job_slot: BTreeMap<JobId, usize> = BTreeMap::new();
        for (s, row) in self.cells.iter().enumerate() {
            for c in row.iter().flatten() {
                if let Some(prev) = job_slot.insert(*c, s) {
                    assert_eq!(prev, s, "{c} appears in slots {prev} and {s}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buddy_placement_is_size_aligned() {
        let mut m = GangMatrix::new(16, 4);
        let p = m.place(JobId(1), 3).unwrap();
        assert_eq!(p.slot, 0);
        assert_eq!(p.nodes, vec![0, 1, 2]); // block of 4, uses first 3
        let q = m.place(JobId(2), 4).unwrap();
        assert_eq!(q.nodes, vec![4, 5, 6, 7]); // next aligned block of 4
        let r = m.place(JobId(3), 8).unwrap();
        assert_eq!(r.nodes, (8..16).collect::<Vec<_>>());
        m.check_invariants();
    }

    #[test]
    fn full_slot_spills_to_next() {
        let mut m = GangMatrix::new(4, 3);
        m.place(JobId(1), 4).unwrap();
        let p = m.place(JobId(2), 4).unwrap();
        assert_eq!(p.slot, 1);
        assert_eq!(m.active_slots(), vec![0, 1]);
    }

    #[test]
    fn matrix_depth_exhaustion() {
        let mut m = GangMatrix::new(2, 2);
        m.place(JobId(1), 2).unwrap();
        m.place(JobId(2), 2).unwrap();
        assert_eq!(m.place(JobId(3), 2), Err(PlaceError::NoSlot));
    }

    #[test]
    fn oversized_and_duplicate_rejected() {
        let mut m = GangMatrix::new(4, 2);
        assert_eq!(m.place(JobId(1), 5), Err(PlaceError::TooLarge));
        assert_eq!(m.place(JobId(1), 0), Err(PlaceError::TooLarge));
        m.place(JobId(1), 2).unwrap();
        assert_eq!(m.place(JobId(1), 2), Err(PlaceError::Duplicate));
    }

    #[test]
    fn pinned_placement_stacks_slots() {
        // The paper's Fig. 6 setup: k apps on the same node pair occupy k
        // distinct slots and thus alternate under the rotation.
        let mut m = GangMatrix::new(16, 8);
        for k in 0..5 {
            let p = m.place_pinned(JobId(k), &[0, 1]).unwrap();
            assert_eq!(p.slot, k as usize);
        }
        assert_eq!(m.active_slots(), vec![0, 1, 2, 3, 4]);
        m.check_invariants();
    }

    #[test]
    fn pinned_and_buddy_jobs_share_a_slot() {
        let mut m = GangMatrix::new(8, 2);
        m.place_pinned(JobId(1), &[0, 1]).unwrap();
        let p = m.place(JobId(2), 2).unwrap();
        // Buddy block [2,3] is free in slot 0.
        assert_eq!(p.slot, 0);
        assert_eq!(p.nodes, vec![2, 3]);
        assert_eq!(m.jobs_in_slot(0), vec![JobId(1), JobId(2)]);
    }

    #[test]
    fn remove_clears_all_cells() {
        let mut m = GangMatrix::new(4, 2);
        m.place(JobId(1), 4).unwrap();
        m.remove(JobId(1));
        assert!(!m.contains(JobId(1)));
        assert!(m.active_slots().is_empty());
        // Space is reusable.
        m.place(JobId(2), 4).unwrap();
    }

    #[test]
    fn pinned_busy_when_nodes_taken_everywhere() {
        let mut m = GangMatrix::new(2, 1);
        m.place_pinned(JobId(1), &[0, 1]).unwrap();
        assert_eq!(m.place_pinned(JobId(2), &[0]), Err(PlaceError::PinnedBusy));
        assert_eq!(m.place_pinned(JobId(3), &[7]), Err(PlaceError::TooLarge));
    }

    #[test]
    fn pinned_repeated_node_rejected() {
        let mut m = GangMatrix::new(4, 2);
        assert_eq!(
            m.place_pinned(JobId(1), &[2, 0, 2]),
            Err(PlaceError::RepeatedNode(2))
        );
        assert_eq!(
            m.place_pinned(JobId(1), &[0, 1, 1]),
            Err(PlaceError::RepeatedNode(1))
        );
        assert!(!m.contains(JobId(1)), "a rejected request takes no cell");
        // A non-ascending request of distinct nodes keeps its rank order.
        assert_eq!(m.place_pinned(JobId(1), &[3, 1]).unwrap().nodes, vec![3, 1]);
    }
}
