//! Property tests: the Fig. 3 flush machine terminates from every
//! interleaving, and the buffer-switch cost model is monotone.

use fastmsg::config::FmConfig;
use fastmsg::division::BufferPolicy;
use gang_comm::flush::{BarrierKind, FlushMachine};
use gang_comm::switcher::{
    save_cost, switch_cost, CopyStrategy, PER_PACKET, SCAN_RECV_SLOT, SCAN_SEND_SLOT,
};
use proptest::prelude::*;

proptest! {
    /// Any interleaving of the local halt with peer halts reaches the
    /// terminal state H,p — and not before all events happened.
    #[test]
    fn flush_terminates_from_every_interleaving(
        peers in 0usize..16,
        local_pos in 0usize..17,
    ) {
        let local_pos = local_pos.min(peers);
        let mut m = FlushMachine::new(BarrierKind::Flush, peers);
        let mut events = 0;
        for i in 0..=peers {
            if i == local_pos {
                m.on_local();
            } else {
                m.on_message();
            }
            events += 1;
            prop_assert_eq!(m.complete(), events == peers + 1);
        }
        prop_assert!(m.complete());
        prop_assert_eq!(m.state_label(), format!("H,{}", peers + 1));
    }

    /// The state label always matches the Fig. 3 naming.
    #[test]
    fn state_labels_follow_fig3(peers in 1usize..16, msgs_before in 0usize..16) {
        let msgs_before = msgs_before.min(peers);
        let mut m = FlushMachine::new(BarrierKind::Release, peers);
        for k in 0..msgs_before {
            prop_assert_eq!(m.state_label(), format!("S,{k}"));
            m.on_message();
        }
        m.on_local();
        prop_assert_eq!(m.state_label(), format!("H,{}", msgs_before + 1));
    }

    /// Valid-only switch cost is monotone in occupancy and bounded by the
    /// full copy whenever occupancy is within the queue geometry.
    #[test]
    fn switch_cost_monotone_and_bounded(
        s1 in 0usize..252, r1 in 0usize..668,
    ) {
        let cfg = FmConfig::parpar(16, 2, BufferPolicy::FullBuffer);
        let c = save_cost(CopyStrategy::ValidOnly, &cfg, s1, r1);
        if s1 < 252 {
            let c2 = save_cost(CopyStrategy::ValidOnly, &cfg, (s1 + 1).min(252), r1);
            prop_assert!(c2 >= c);
        }
        let full = switch_cost(CopyStrategy::Full, &cfg, s1, r1, s1, r1);
        let valid = switch_cost(CopyStrategy::ValidOnly, &cfg, s1, r1, s1, r1);
        // Even at worst-case occupancy the scan+copy never exceeds the
        // whole-region copy by more than the scan overhead.
        let scan_slack = 2 * (SCAN_SEND_SLOT.raw() * 252
            + SCAN_RECV_SLOT.raw() * 668
            + PER_PACKET.raw() * 920)
            + 10_000;
        prop_assert!(valid.raw() <= full.raw() + scan_slack,
            "valid {} vs full {}", valid.raw(), full.raw());
    }
}
