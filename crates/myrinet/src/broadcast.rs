//! Serial-loop broadcast.
//!
//! Myrinet hardware has no broadcast, so the LANai control program emulates
//! it "by a serial loop" (paper §3.2): one control packet per peer, sent
//! back-to-back from the same NIC. The source link serializes them, so the
//! k-th peer hears the message k packet-times later — this is why the halt
//! and release phases grow with the number of nodes (paper Figs. 7/9).
//!
//! The sender injects frame `e` at the moment frame `e − 1` finished
//! injecting, to [`serial_peer`]`(src, e, hosts)`; the receiving side
//! recovers each frame's destination from `e` through the same function.

use crate::topology::HostId;

/// Wire size of a specially-tagged control packet (halt/ready). These are
/// "just counted", never buffered, and consume no credits (paper §3.2).
pub const CONTROL_PACKET_BYTES: u64 = 16;

/// Destination of frame `e` (`e < hosts − 1`) of `src`'s serial loop over
/// `hosts` hosts: the loop starts at the host after `src` and wraps, so
/// frames `0 .. hosts − 1` reach every other host once.
#[inline]
pub fn serial_peer(src: HostId, e: usize, hosts: usize) -> HostId {
    debug_assert!(
        src < hosts && e + 1 < hosts,
        "frame {e} of {src} over {hosts}"
    );
    let d = src + 1 + e;
    if d >= hosts {
        d - hosts
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(src: HostId, hosts: usize) -> Vec<HostId> {
        (0..hosts - 1).map(|e| serial_peer(src, e, hosts)).collect()
    }

    #[test]
    fn loop_starts_after_the_source_and_wraps() {
        assert_eq!(order(3, 8), vec![4, 5, 6, 7, 0, 1, 2]);
        assert_eq!(order(0, 8), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(order(7, 8), vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn loop_reaches_every_peer_once() {
        for hosts in [2usize, 3, 16, 257] {
            for src in 0..hosts {
                let mut dsts = order(src, hosts);
                dsts.sort_unstable();
                let want: Vec<_> = (0..hosts).filter(|&h| h != src).collect();
                assert_eq!(dsts, want, "src {src} of {hosts}");
            }
        }
    }
}
