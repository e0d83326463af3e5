//! Host-side FM library costs.
//!
//! The send path writes packets into the NIC send queue through the PCI
//! write-combining window (paper §4.2): at the measured ~80 MB/s this —
//! plus per-packet library overhead — is what bounds FM's peak bandwidth
//! near 75 MB/s on the paper's plots, well under the 160 MB/s wire rate.

use sim_core::time::Cycles;

/// Fixed cost of an FM_send call (argument marshalling, queue checks),
/// charged once per message.
pub const SEND_CALL: Cycles = Cycles(500);
/// Per-packet library work on the send path, excluding the byte copy.
pub const SEND_PER_PACKET: Cycles = Cycles(200);
/// Bandwidth of the host's streaming write into the NIC send queue through
/// the write-combining window, bytes/s.
pub const INJECT_BW: u64 = 80_000_000;
/// Per-packet cost of FM_extract delivering a packet to the handler (no
/// payload copy: FM handlers run in place on the pinned buffer).
pub const EXTRACT_PER_PACKET: Cycles = Cycles(500);
/// Reliability layer: per-packet cost of scanning the retransmit ring and
/// re-pushing one unacked packet into the NIC send queue.
pub const RETRANS_SCAN: Cycles = Cycles(300);

/// Host cycles to push one packet of `wire_bytes` into the send queue.
pub fn inject_cycles(wire_bytes: u64) -> Cycles {
    SEND_PER_PACKET + Cycles::for_bytes_at(wire_bytes, INJECT_BW)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PACKET_BYTES;

    #[test]
    fn full_packet_injection_bounds_peak_bandwidth() {
        let per_pkt = inject_cycles(PACKET_BYTES);
        // 1536 payload bytes per `per_pkt` cycles at 200 MHz:
        let mbps = 1536.0 / 1e6 / (per_pkt.raw() as f64 / 200e6);
        // The paper's peak plots sit in the 70–80 MB/s band.
        assert!((65.0..85.0).contains(&mbps), "peak model {mbps} MB/s");
    }

    #[test]
    fn small_packets_pay_mostly_overhead() {
        let small = inject_cycles(88); // 64 B message
        let big = inject_cycles(PACKET_BYTES);
        assert!(small.raw() * 2 < big.raw());
        assert!(small.raw() > SEND_PER_PACKET.raw());
    }
}
