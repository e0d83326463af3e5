//! Buffer-switch cost model (paper §4.2, Figs. 4, 7, 9).
//!
//! Two algorithms:
//!
//! * **Full copy** — move the entire 400 KB send region and 1 MB receive
//!   region each way. Dominated by reading the send queue back through the
//!   write-combining window at ~14 MB/s; lands under the paper's
//!   17 M-cycle / 85 ms bound.
//! * **Valid-packets-only** — "go through the buffers and only copy the
//!   valid packets": pay a per-slot scan, then copy only occupied slots.
//!   Because the queues are usually nearly empty (Fig. 8), this is an
//!   order of magnitude cheaper (Fig. 9, < 2.5 M cycles / 12.5 ms).

use fastmsg::config::FmConfig;
use fastmsg::packet::PACKET_BYTES;
use sim_core::mem::{copy_cycles, Region};
use sim_core::time::Cycles;

/// Which buffer-switch algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStrategy {
    /// Copy whole buffer regions.
    Full,
    /// Scan slot descriptors and copy only valid packets.
    ValidOnly,
}

/// Improved algorithm: scanning one send-queue slot descriptor (a
/// write-combining *read*, hence expensive per byte).
pub const SCAN_SEND_SLOT: Cycles = Cycles(130);
/// Improved algorithm: scanning one receive-queue slot descriptor (regular
/// memory).
pub const SCAN_RECV_SLOT: Cycles = Cycles(45);
/// Improved algorithm: fixed bookkeeping per valid packet moved.
pub const PER_PACKET: Cycles = Cycles(50);

/// Cycle cost of **saving** the outgoing context's queues to backing
/// store. `send_valid` / `recv_valid` are the occupied slot counts.
pub fn save_cost(
    strategy: CopyStrategy,
    cfg: &FmConfig,
    send_valid: usize,
    recv_valid: usize,
) -> Cycles {
    let geo = cfg.geometry();
    debug_assert!(send_valid <= geo.send_slots && recv_valid <= geo.recv_slots);
    match strategy {
        CopyStrategy::Full => {
            // Whole regions regardless of occupancy.
            copy_cycles(
                Region::NicWriteCombining,
                Region::HostRegular,
                cfg.send_q_bytes(),
            ) + copy_cycles(Region::HostPinned, Region::HostRegular, cfg.recv_q_bytes())
        }
        CopyStrategy::ValidOnly => {
            let scan =
                SCAN_SEND_SLOT * geo.send_slots as u64 + SCAN_RECV_SLOT * geo.recv_slots as u64;
            let send_bytes = send_valid as u64 * PACKET_BYTES;
            let recv_bytes = recv_valid as u64 * PACKET_BYTES;
            scan + PER_PACKET * (send_valid + recv_valid) as u64
                + copy_cycles(Region::NicWriteCombining, Region::HostRegular, send_bytes)
                + copy_cycles(Region::HostPinned, Region::HostRegular, recv_bytes)
        }
    }
}

/// Cycle cost of **restoring** the incoming context's queues from backing
/// store (no scan needed: the saved state knows its occupancy).
pub fn restore_cost(
    strategy: CopyStrategy,
    cfg: &FmConfig,
    send_valid: usize,
    recv_valid: usize,
) -> Cycles {
    match strategy {
        CopyStrategy::Full => {
            copy_cycles(
                Region::HostRegular,
                Region::NicWriteCombining,
                cfg.send_q_bytes(),
            ) + copy_cycles(Region::HostRegular, Region::HostPinned, cfg.recv_q_bytes())
        }
        CopyStrategy::ValidOnly => {
            let send_bytes = send_valid as u64 * PACKET_BYTES;
            let recv_bytes = recv_valid as u64 * PACKET_BYTES;
            PER_PACKET * (send_valid + recv_valid) as u64
                + copy_cycles(Region::HostRegular, Region::NicWriteCombining, send_bytes)
                + copy_cycles(Region::HostRegular, Region::HostPinned, recv_bytes)
        }
    }
}

/// Total buffer-switch cost: save the outgoing job's queues, restore the
/// incoming job's.
pub fn switch_cost(
    strategy: CopyStrategy,
    cfg: &FmConfig,
    out_send: usize,
    out_recv: usize,
    in_send: usize,
    in_recv: usize,
) -> Cycles {
    save_cost(strategy, cfg, out_send, out_recv) + restore_cost(strategy, cfg, in_send, in_recv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastmsg::division::BufferPolicy;

    fn setup() -> FmConfig {
        FmConfig::parpar(16, 2, BufferPolicy::FullBuffer)
    }

    #[test]
    fn full_switch_within_paper_bound() {
        let cfg = setup();
        let total = switch_cost(CopyStrategy::Full, &cfg, 252, 668, 252, 668);
        // Paper: "less than 85 msecs (17,000,000 cycles)".
        assert!(total.raw() < 17_000_000, "{total:?}");
        assert!(total.raw() > 12_000_000, "{total:?}");
        // Occupancy is irrelevant to the full copy.
        let empty = switch_cost(CopyStrategy::Full, &cfg, 0, 0, 0, 0);
        assert_eq!(total, empty);
    }

    #[test]
    fn improved_switch_within_paper_bound_at_observed_occupancy() {
        let cfg = setup();
        // Fig. 8's worst case: ~110 receive + ~20 send packets per side.
        let total = switch_cost(CopyStrategy::ValidOnly, &cfg, 20, 110, 20, 110);
        // Paper: "less than 12.5 msecs (2,500,000 cycles)".
        assert!(total.raw() < 2_500_000, "{total:?}");
    }

    #[test]
    fn improved_switch_grows_linearly_with_occupancy() {
        let cfg = setup();
        let c0 = save_cost(CopyStrategy::ValidOnly, &cfg, 0, 0);
        let c50 = save_cost(CopyStrategy::ValidOnly, &cfg, 0, 50);
        let c100 = save_cost(CopyStrategy::ValidOnly, &cfg, 0, 100);
        let d1 = c50.raw() - c0.raw();
        let d2 = c100.raw() - c50.raw();
        // Equal increments (up to the per-copy setup constant).
        assert!(
            (d1 as i64 - d2 as i64).unsigned_abs() < 1000,
            "{d1} vs {d2}"
        );
    }

    #[test]
    fn improved_beats_full_by_an_order_of_magnitude_when_nearly_empty() {
        let cfg = setup();
        let full = switch_cost(CopyStrategy::Full, &cfg, 5, 20, 5, 20);
        let valid = switch_cost(CopyStrategy::ValidOnly, &cfg, 5, 20, 5, 20);
        assert!(full.raw() > 8 * valid.raw(), "{full:?} vs {valid:?}");
    }

    #[test]
    fn saving_send_queue_costs_more_than_restoring_it() {
        // WC read (14 MB/s) vs host-read-bound WC write (45 MB/s).
        let cfg = setup();
        let save = save_cost(CopyStrategy::ValidOnly, &cfg, 100, 0);
        let restore = restore_cost(CopyStrategy::ValidOnly, &cfg, 100, 0);
        assert!(save > restore);
    }

    #[test]
    fn static_division_geometry_shrinks_full_copy() {
        let cfg1 = FmConfig::parpar(16, 1, BufferPolicy::StaticDivision);
        let cfg4 = FmConfig::parpar(16, 4, BufferPolicy::StaticDivision);
        let c1 = save_cost(CopyStrategy::Full, &cfg1, 0, 0);
        let c4 = save_cost(CopyStrategy::Full, &cfg4, 0, 0);
        assert!(c4.raw() * 3 < c1.raw());
    }
}
