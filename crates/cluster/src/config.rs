//! Whole-cluster simulation configuration.

use fastmsg::config::{FmConfig, RelConfig};
use fastmsg::costs::FmCosts;
use fastmsg::division::BufferPolicy;
use fastmsg::init::InitMode;
use gang_comm::strategy::SwitchStrategy;
use gang_comm::switcher::{CopyStrategy, SwitchCosts};
use hostsim::costs::HostCosts;
use myrinet::topology::FatTreeShape;
use parpar::control::ControlPlane;
use sim_core::mem::CopyCostModel;
use sim_core::time::Cycles;

/// Which interconnect the data network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// One crossbar, every host two hops from every other (ParPar).
    SingleSwitch,
    /// Two crossbars joined by `trunks` links; cross-traffic takes three
    /// hops and contends on the trunk.
    DualSwitch {
        /// Parallel inter-switch links.
        trunks: usize,
    },
    /// Three-tier k-ary fat-tree/Clos with table-free ECMP-deterministic
    /// routing; the datacenter-scale fabric of the scalability sweep.
    /// The degenerate one-pod one-edge shape is bit-identical to
    /// `SingleSwitch`.
    FatTree {
        /// Pods × edges × hosts-per-edge shape (see
        /// [`FatTreeShape::for_hosts`] for the canonical sizing).
        shape: FatTreeShape,
    },
}

/// Everything a simulated ParPar run is parameterized by.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Compute nodes (the paper's ParPar has 16 plus a master host).
    pub nodes: usize,
    /// Gang-matrix depth (time slots).
    pub slots: usize,
    /// Data-network topology.
    pub topology: TopologyKind,
    /// How masterd fan-out/fan-in traffic crosses the control Ethernet:
    /// the paper's flat multicast (default, digest-stable), an honest
    /// serial unicast loop, or the O(log N) combining tree. `Serial` and
    /// `Tree` change delivery timestamps, so they are never the default.
    pub control: ControlPlane,
    /// FM configuration (buffer sizes, contexts, division policy).
    pub fm: FmConfig,
    /// Gang-scheduling time quantum.
    pub quantum: Cycles,
    /// Whether the masterd rotates slots automatically each quantum.
    pub auto_rotate: bool,
    /// Coordinated gang scheduling (the paper's premise). When `false`,
    /// every noded time-slices its own processes on an unsynchronized
    /// local timer — the counterfactual that motivates gang scheduling.
    /// Requires an always-resident policy — `BufferPolicy::StaticDivision`
    /// or `BufferPolicy::Demand` — because without coordination no safe
    /// moment exists to switch buffers, which is the paper's §1 argument
    /// in one assertion.
    pub gang_scheduling: bool,
    /// Dynamic coscheduling (paper §5, Sobalvarro et al.): in
    /// uncoordinated mode, an arriving message preempts the node in favor
    /// of the process it is destined to. Ignored under gang scheduling.
    pub dynamic_coscheduling: bool,
    /// Switch coordination strategy (the paper's, or a §5 baseline).
    pub strategy: SwitchStrategy,
    /// Buffer-switch copy algorithm (Fig. 7 vs Fig. 9).
    pub copy: CopyStrategy,
    /// Host operation costs.
    pub host_costs: HostCosts,
    /// FM library costs.
    pub fm_costs: FmCosts,
    /// Memory copy-cost model.
    pub mem: CopyCostModel,
    /// Improved-switch scan costs.
    pub switch_costs: SwitchCosts,
    /// FM initialization protocol.
    pub init_mode: InitMode,
    /// Relative jitter applied to each buffer-copy duration (cache and
    /// memory-system variance on real hardware); the paper's release phase
    /// grows with node count because unsynchronized nodes finish copying
    /// at different times.
    pub copy_jitter_pct: f64,
    /// Injected wire loss, packets-per-million (0 = the reliable SAN FM
    /// assumes). FM has no retransmission: §2.2 warns that "a single
    /// packet loss can mess up the credit counters and the entire flow
    /// control algorithm" — the fault-injection tests demonstrate it.
    pub wire_loss_ppm: u32,
    /// Opt-in go-back-N reliability & protocol-recovery layer (not part of
    /// the paper's FM; the counterfactual that survives `wire_loss_ppm`).
    /// Default-off keeps every golden digest and figure CSV bit-identical.
    pub reliability: RelConfig,
    /// Eager slot reclaim (serving mode): when a job finishes and leaves
    /// the *current* gang-matrix slot empty while another slot still has
    /// jobs, the masterd orders the switch immediately instead of idling
    /// out the rest of the quantum. Default-off — it changes rotation
    /// timing, so every batch-figure golden keeps the paper's strict
    /// quantum clock.
    pub eager_reclaim: bool,
    /// RNG seed (daemon jitter etc.).
    pub seed: u64,
    /// Trace ring capacity; 0 disables tracing.
    pub trace_capacity: usize,
}

impl ClusterConfig {
    /// The paper's testbed: 16 nodes, FullBuffer policy with `slots`
    /// contexts, 1-second quantum, the gang-flush strategy with the
    /// improved (valid-packets-only) copy.
    pub fn parpar(nodes: usize, slots: usize, policy: BufferPolicy) -> Self {
        ClusterConfig {
            nodes,
            slots,
            topology: TopologyKind::SingleSwitch,
            control: ControlPlane::Flat,
            fm: FmConfig::parpar(nodes, slots, policy),
            quantum: Cycles::from_secs(1),
            auto_rotate: true,
            gang_scheduling: true,
            dynamic_coscheduling: false,
            strategy: SwitchStrategy::GangFlush,
            copy: CopyStrategy::ValidOnly,
            host_costs: HostCosts::default(),
            fm_costs: FmCosts::default(),
            mem: CopyCostModel::parpar(),
            switch_costs: SwitchCosts::default(),
            init_mode: InitMode::ParPar,
            copy_jitter_pct: 0.03,
            wire_loss_ppm: 0,
            eager_reclaim: false,
            reliability: RelConfig::default(),
            seed: 0x9a1b_2c3d,
            trace_capacity: 0,
        }
    }

    /// Number of NIC context slots each node needs resident at once.
    pub fn nic_context_slots(&self) -> usize {
        self.fm.resident_contexts().max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parpar_defaults() {
        let c = ClusterConfig::parpar(16, 4, BufferPolicy::FullBuffer);
        assert_eq!(c.nodes, 16);
        assert_eq!(c.fm.max_contexts, 4);
        assert_eq!(c.nic_context_slots(), 1);
        let s = ClusterConfig::parpar(16, 4, BufferPolicy::StaticDivision);
        assert_eq!(s.nic_context_slots(), 4);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn vn_policy_keeps_all_cache_slots_resident() {
        let mut c = ClusterConfig::parpar(8, 4, BufferPolicy::CachedEndpoints);
        c.fm.max_contexts = 3;
        assert_eq!(c.nic_context_slots(), 3);
    }

    #[test]
    fn quantum_and_costs_defaults_match_paper() {
        let c = ClusterConfig::parpar(16, 2, BufferPolicy::FullBuffer);
        assert_eq!(c.quantum, Cycles::from_secs(1)); // §4.2 overhead runs
        assert!(c.gang_scheduling);
        assert!(!c.dynamic_coscheduling);
        assert_eq!(c.wire_loss_ppm, 0); // FM's reliable-SAN assumption
        assert!(!c.reliability.enabled); // ...and no retransmission layer
        assert!(c.copy_jitter_pct > 0.0 && c.copy_jitter_pct < 0.2);
    }
}
