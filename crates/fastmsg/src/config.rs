//! FM build-time configuration: buffer sizes, context counts, policy.

use sim_core::time::Cycles;

use crate::division::{BufferPolicy, ContextGeometry, CreditRounding};
use crate::packet::PACKET_BYTES;

/// Reliability layer: base retransmission timeout, how long a stream may sit
/// with unacked packets and no ack progress before the sender re-pushes its
/// window. ~2.5 ms at the 200 MHz host clock — a couple of orders above the
/// per-packet round trip (wire + extract + refill), so healthy streams
/// never fire it.
pub const RETRANS_TIMEOUT: Cycles = Cycles(500_000);
/// Reliability layer: exponential backoff cap. Consecutive fruitless
/// timeouts double the timeout up to `RETRANS_TIMEOUT << BACKOFF_CAP`.
pub const BACKOFF_CAP: u32 = 6;

/// Opt-in reliability layer configuration.
///
/// The paper's FM deliberately has no retransmission ("based on the
/// assumption of an insignificant error rate on a SAN", §2.2). This knob
/// cluster adds one as a counterfactual: go-back-N retransmission for the
/// data plane plus timed re-broadcast for the halt/ready switch protocols.
/// Default **off** — every figure and golden digest is recorded with FM's
/// original, retransmission-free semantics.
#[derive(Debug, Clone)]
pub struct RelConfig {
    /// Master switch for the whole subsystem.
    pub enabled: bool,
    /// Masterd-side watchdog period for a gang switch: if a switch epoch
    /// is still in flight this long after the SwitchSlot commands went
    /// out, every node is told to re-broadcast its halt/ready protocol
    /// messages (lost control frames otherwise deadlock the gang switch).
    pub switch_retry: Cycles,
}

impl Default for RelConfig {
    fn default() -> Self {
        RelConfig {
            enabled: false,
            // Half a typical quantum: stragglers are re-prodded well before
            // the next rotation would pile up behind the stuck epoch.
            switch_retry: Cycles::from_ms(100),
        }
    }
}

/// Knobs for the demand-driven credit allocator
/// ([`BufferPolicy::Demand`]); ignored under every other policy.
#[derive(Debug, Clone)]
pub struct DemandConfig {
    /// How often each node re-runs the window rebalance over its resident
    /// processes. Shorter reacts faster to traffic shifts; longer lets the
    /// EWMA integrate more evidence per move.
    pub rebalance_interval: Cycles,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            // 5 ms at the 200 MHz host clock: an order of magnitude under
            // typical quanta (30 ms – 1 s), so windows adapt within a
            // scheduling round, yet thousands of packets per channel can
            // land between moves.
            rebalance_interval: Cycles::from_ms(5),
        }
    }
}

/// Configuration of the FM installation on a cluster.
#[derive(Debug, Clone)]
pub struct FmConfig {
    /// Hosts on the data network (`p`). ParPar: 16.
    pub hosts: usize,
    /// Maximum communication contexts per host (`n`) — equals the gang
    /// matrix depth when integrated with ParPar (paper §4.1).
    pub max_contexts: usize,
    /// Whole send buffer in packet slots (NIC RAM). ParPar: 252 (~400 KB).
    pub send_slots_total: usize,
    /// Whole receive buffer in packet slots (pinned DMA). ParPar: 668 (1 MB).
    pub recv_slots_total: usize,
    /// Nominal send-buffer region size in bytes, used by the *full* buffer
    /// switch which copies the region wholesale. ParPar: 400 KB.
    pub send_region_bytes: u64,
    /// Nominal receive-buffer region size in bytes. ParPar: 1 MB.
    pub recv_region_bytes: u64,
    /// Buffer-division policy.
    pub policy: BufferPolicy,
    /// Credit rounding mode.
    pub rounding: CreditRounding,
    /// Demand-allocator knobs (`policy == Demand` only).
    pub demand: DemandConfig,
}

impl FmConfig {
    /// The ParPar configuration from the paper, parameterized by host count,
    /// context count and policy.
    pub fn parpar(hosts: usize, max_contexts: usize, policy: BufferPolicy) -> Self {
        FmConfig {
            hosts,
            max_contexts,
            send_slots_total: 252,
            recv_slots_total: 668,
            send_region_bytes: 400 * 1024,
            recv_region_bytes: 1024 * 1024,
            policy,
            rounding: CreditRounding::Floor,
            demand: DemandConfig::default(),
        }
    }

    /// Per-context queue geometry and credits under this configuration.
    pub fn geometry(&self) -> ContextGeometry {
        self.policy.geometry(
            self.send_slots_total,
            self.recv_slots_total,
            self.max_contexts,
            self.hosts,
            self.rounding,
        )
    }

    /// NIC contexts that must be resident simultaneously: all of them under
    /// static division and the demand allocator (both split the queues
    /// up front), one under the buffer-switching scheme, up to the cache
    /// size under virtual-networks endpoint caching.
    pub fn resident_contexts(&self) -> usize {
        match self.policy {
            BufferPolicy::StaticDivision | BufferPolicy::CachedEndpoints | BufferPolicy::Demand => {
                self.max_contexts
            }
            BufferPolicy::FullBuffer => 1,
        }
    }

    /// Bytes of NIC send RAM one context's queue occupies.
    pub fn send_q_bytes(&self) -> u64 {
        self.geometry().send_slots as u64 * PACKET_BYTES
    }

    /// Bytes of pinned host RAM one context's receive queue occupies.
    pub fn recv_q_bytes(&self) -> u64 {
        self.geometry().recv_slots as u64 * PACKET_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parpar_defaults_match_paper() {
        let c = FmConfig::parpar(16, 1, BufferPolicy::StaticDivision);
        assert_eq!(c.send_slots_total, 252);
        assert_eq!(c.recv_slots_total, 668);
        assert_eq!(c.send_region_bytes, 400 * 1024);
        assert_eq!(c.recv_region_bytes, 1 << 20);
        assert_eq!(c.geometry().credits, 41);
    }

    #[test]
    fn resident_context_counts() {
        assert_eq!(
            FmConfig::parpar(16, 8, BufferPolicy::StaticDivision).resident_contexts(),
            8
        );
        assert_eq!(
            FmConfig::parpar(16, 8, BufferPolicy::FullBuffer).resident_contexts(),
            1
        );
    }

    #[test]
    fn queue_byte_sizes_scale_with_division() {
        let one = FmConfig::parpar(16, 1, BufferPolicy::StaticDivision);
        let four = FmConfig::parpar(16, 4, BufferPolicy::StaticDivision);
        assert_eq!(four.send_q_bytes() * 4, one.send_q_bytes());
        let full = FmConfig::parpar(16, 4, BufferPolicy::FullBuffer);
        assert_eq!(full.send_q_bytes(), one.send_q_bytes());
    }
}
