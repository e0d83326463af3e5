//! LANai firmware and DMA cost constants.
//!
//! The LANai 4.3 is a slow (~33 MHz) embedded processor: per-packet
//! firmware overheads of a few microseconds are what kept FM's small-
//! message bandwidth well under the 160 MB/s wire rate on real hardware.

use sim_core::time::Cycles;

/// Send-context firmware work per data packet (scan queues, build header,
/// program the wire DMA), in host cycles at 200 MHz.
pub const SEND_PER_PACKET: Cycles = Cycles::from_us(2);
/// Receive-context firmware work per data packet (interrupt, classify,
/// program host DMA).
pub const RECV_PER_PACKET: Cycles = Cycles::from_us(2);
/// PCI DMA bandwidth NIC→host for received payloads, bytes/s (32-bit/33 MHz
/// PCI ≈ 132 MB/s).
pub const DMA_BW: u64 = 132_000_000;
/// Firmware work to emit or count one specially-tagged control packet
/// (halt/ready); these bypass queues and credits entirely.
pub const CONTROL_PACKET: Cycles = Cycles::from_us(1);

/// Cycles the receive engine is busy landing one packet of `bytes` into
/// the host receive queue.
pub fn recv_cycles(bytes: u64) -> Cycles {
    RECV_PER_PACKET + Cycles::for_bytes_at(bytes, DMA_BW)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recv_cost_scales_with_bytes() {
        let small = recv_cycles(64);
        let large = recv_cycles(1536);
        assert!(large > small);
        // 1536 B over 132 MB/s ≈ 11.6 us ≈ 2328 cycles, plus overhead.
        assert!((2000..3500).contains(&large.raw()), "{large:?}");
    }

    #[test]
    fn per_packet_overheads_are_microseconds() {
        assert!(SEND_PER_PACKET.raw() >= Cycles::from_us(1).raw());
        assert!(SEND_PER_PACKET.raw() <= Cycles::from_us(10).raw());
    }
}
