//! Memory-region copy-cost model.
//!
//! The paper's buffer-switch cost is dominated by where the bytes live: the
//! FM send queue sits in LANai RAM behind a PCI *write-combining* window
//! (fast to write, very slow to read back), while the receive queue is a
//! pinned DMA buffer in ordinary host RAM. §4.2 reports the measured
//! bandwidths on the 200 MHz Pentium-Pro testbed:
//!
//! * regular host memory copy: ~45 MB/s
//! * write-combining window, *read*: ~14 MB/s
//! * write-combining window, *write*: ~80 MB/s
//!
//! [`HOST_BW`], [`WC_READ_BW`] and [`WC_WRITE_BW`] are exactly those
//! numbers; the derived full-buffer switch time lands at ~16 M cycles
//! (~80 ms), matching the paper's "less than 85 msecs (17,000,000 cycles)".

use crate::time::Cycles;

/// Kinds of memory a buffer can live in, as seen from the host CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Ordinary pageable host RAM (e.g. the per-process backing store).
    HostRegular,
    /// Pinned host RAM used as a DMA target (the FM receive queue).
    HostPinned,
    /// LANai on-card RAM mapped through the PCI write-combining window
    /// (the FM send queue).
    NicWriteCombining,
}

/// Streaming bandwidth of regular/pinned host RAM (read or write), B/s.
pub const HOST_BW: u64 = 45_000_000;
/// Read bandwidth of the write-combining NIC window, B/s.
pub const WC_READ_BW: u64 = 14_000_000;
/// Write bandwidth of the write-combining NIC window, B/s.
pub const WC_WRITE_BW: u64 = 80_000_000;
/// Fixed per-copy setup cost (function call, cache effects), cycles.
pub const COPY_SETUP: Cycles = Cycles(200);

impl Region {
    /// Bandwidth at which the host CPU can *read* a stream from this region.
    pub fn read_bw(self) -> u64 {
        match self {
            Region::HostRegular | Region::HostPinned => HOST_BW,
            Region::NicWriteCombining => WC_READ_BW,
        }
    }

    /// Bandwidth at which the host CPU can *write* a stream into this region.
    pub fn write_bw(self) -> u64 {
        match self {
            Region::HostRegular | Region::HostPinned => HOST_BW,
            Region::NicWriteCombining => WC_WRITE_BW,
        }
    }
}

/// Cycles for the host CPU to copy `bytes` from `src` to `dst`.
///
/// A copy is charged `setup + ceil(bytes / min(read_bw(src), write_bw(dst)))`
/// cycles: the slower side of the streaming copy is the bottleneck, which is
/// how the paper's measurements behave (reading the WC window at 14 MB/s
/// dwarfs everything else).
pub fn copy_cycles(src: Region, dst: Region, bytes: u64) -> Cycles {
    if bytes == 0 {
        return Cycles::ZERO;
    }
    let bw = src.read_bw().min(dst.write_bw());
    COPY_SETUP + Cycles::for_bytes_at(bytes, bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;
    const MB: u64 = 1024 * KB;

    #[test]
    fn wc_read_is_the_bottleneck_when_saving_the_send_queue() {
        // Saving the 400 KB send queue: read at 14 MB/s.
        let save = copy_cycles(Region::NicWriteCombining, Region::HostRegular, 400 * KB);
        // Restoring it: read backing store at 45 MB/s, write WC at 80 MB/s —
        // bottleneck is the 45 MB/s read, still ~3x cheaper than saving.
        let restore = copy_cycles(Region::HostRegular, Region::NicWriteCombining, 400 * KB);
        assert!(save.raw() > 3 * restore.raw(), "{save:?} vs {restore:?}");
    }

    #[test]
    fn full_switch_matches_paper_17m_cycle_bound() {
        let send_q = 400 * KB;
        let recv_q = MB;
        let total = copy_cycles(Region::NicWriteCombining, Region::HostRegular, send_q)
            + copy_cycles(Region::HostRegular, Region::NicWriteCombining, send_q)
            + copy_cycles(Region::HostPinned, Region::HostRegular, recv_q)
            + copy_cycles(Region::HostRegular, Region::HostPinned, recv_q);
        // Paper: full buffer switch < 85 ms = 17,000,000 cycles at 200 MHz.
        assert!(total.raw() < 17_000_000, "{total:?}");
        assert!(total.raw() > 14_000_000, "{total:?} suspiciously cheap");
    }

    #[test]
    fn zero_byte_copy_is_free() {
        assert_eq!(
            copy_cycles(Region::HostRegular, Region::HostPinned, 0),
            Cycles::ZERO
        );
    }

    #[test]
    fn setup_cost_charged_once() {
        let one = copy_cycles(Region::HostRegular, Region::HostRegular, 1);
        assert_eq!(
            one.raw(),
            COPY_SETUP.raw() + Cycles::for_bytes_at(1, HOST_BW).raw()
        );
    }
}
