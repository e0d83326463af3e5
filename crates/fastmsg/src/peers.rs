//! Per-peer tables: one entry per rank of the job, allocated at first use.
//!
//! Every per-peer counter of an FM process (credits, consumed counts,
//! sequence numbers, go-back-N tallies) is indexed by the peer's *rank in
//! the process's job*, so a table is as long as the job is wide, not as
//! the cluster. A table starts empty and is filled to the job width the
//! first time one of its entries is written; reading an empty table gives
//! the entry's initial value. A process that never talks (a `compute`
//! job) never allocates them. The hot path pays only the bounds check
//! indexing does anyway: a miss is the cold fill.

/// `table[peer]` for writing. An empty `table` is first filled with `len`
/// copies of `init`; `peer >= len` panics as an out-of-bounds index.
#[inline]
pub(crate) fn entry<T: Clone>(table: &mut Vec<T>, peer: usize, len: usize, init: T) -> &mut T {
    if peer >= table.len() {
        fill(table, len, init);
    }
    &mut table[peer]
}

/// `table[peer]` for reading: `init` while the table is unallocated.
#[inline]
pub(crate) fn get<T: Copy>(table: &[T], peer: usize, len: usize, init: T) -> T {
    match table.get(peer) {
        Some(&v) => v,
        None => {
            assert!(
                peer < len,
                "peer rank {peer} out of range for a job of {len}"
            );
            init
        }
    }
}

#[cold]
#[inline(never)]
fn fill<T: Clone>(table: &mut Vec<T>, len: usize, init: T) {
    table.resize(len, init);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_the_initial_value_until_the_first_write() {
        let mut t: Vec<u32> = Vec::new();
        assert_eq!(get(&t, 2, 4, 7), 7);
        assert!(t.is_empty(), "a read allocates nothing");
        *entry(&mut t, 2, 4, 7) -= 1;
        assert_eq!(t, [7, 7, 6, 7]);
        assert_eq!(get(&t, 2, 4, 7), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reading_past_the_job_panics() {
        get(&[] as &[u32], 4, 4, 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn writing_past_the_job_panics() {
        let mut t: Vec<u32> = Vec::new();
        entry(&mut t, 4, 4, 0);
    }
}
