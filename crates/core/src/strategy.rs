//! Context-switch coordination strategies.
//!
//! The paper's scheme is [`SwitchStrategy::GangFlush`]. The related-work
//! section (§5) describes two alternatives deployed by contemporary
//! systems, which we implement as ablation baselines:
//!
//! * **SHARE-style discard** (Franke/Pattnaik/Rudolph): no network flush at
//!   all — switch immediately; packets that arrive for a process that is
//!   no longer resident are matched against the NIC's current-process ID
//!   and dropped, leaving retransmission to higher-level software.
//! * **PM/SCore-style ack-drain** (Hori/Tezuka/Ishikawa): each node stops
//!   transmitting and waits until its own in-flight packets are all
//!   acknowledged — no halt/ready broadcasts, but every data packet costs
//!   an ack on the wire.
//!
//! All three run the same per-node machine,
//! [`crate::sequencer::SwitchSequencer`]: halt, buffer switch, release.
//! The baselines are its zero-peer case. With no peers, a node's own halt
//! completes the flush and its own ready completes the release, so their
//! `release` stage is always zero and only `AckDrain`'s halt waits (for
//! its acks).

/// How the cluster coordinates a gang context switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchStrategy {
    /// The paper's three-phase halt-broadcast / copy / ready-broadcast.
    GangFlush,
    /// SHARE-style: no flush; stragglers are discarded by job-ID check and
    /// left to a higher layer to retransmit.
    ShareDiscard,
    /// PM/SCore-style: per-node quiescence via acks; no global broadcast.
    AckDrain,
}

impl SwitchStrategy {
    /// Does this strategy run the Fig. 3 halt/ready broadcast protocols?
    pub fn uses_flush_protocol(&self) -> bool {
        matches!(self, SwitchStrategy::GangFlush)
    }

    /// Does this strategy require per-packet acknowledgements on the data
    /// network?
    pub fn uses_acks(&self) -> bool {
        matches!(self, SwitchStrategy::AckDrain)
    }

    /// Can this strategy drop packets at a switch? SHARE discards by ID
    /// check; PM/SCore nacks packets that find no receive-buffer context —
    /// both count on a higher layer (or the sender) to retransmit.
    pub fn may_drop(&self) -> bool {
        matches!(
            self,
            SwitchStrategy::ShareDiscard | SwitchStrategy::AckDrain
        )
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SwitchStrategy::GangFlush => "gang-flush",
            SwitchStrategy::ShareDiscard => "share-discard",
            SwitchStrategy::AckDrain => "ack-drain",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let g = SwitchStrategy::GangFlush;
        let s = SwitchStrategy::ShareDiscard;
        let a = SwitchStrategy::AckDrain;
        assert!(g.uses_flush_protocol() && !s.uses_flush_protocol() && !a.uses_flush_protocol());
        assert!(!g.uses_acks() && !s.uses_acks() && a.uses_acks());
        assert!(!g.may_drop() && s.may_drop() && a.may_drop());
        assert_eq!(g.name(), "gang-flush");
        assert_eq!(s.name(), "share-discard");
        assert_eq!(a.name(), "ack-drain");
    }
}
