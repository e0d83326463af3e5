//! End-to-end randomized robustness: arbitrary workload mixes, quanta and
//! seeds — the gang-flush switch never loses a packet and always leaves
//! the system clean. This is the property behind the paper's "withstood
//! thorough testing without packet loss".

use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use gang_comm::switcher::CopyStrategy;
use proptest::prelude::*;
use sim_core::time::{Cycles, SimTime};
use workloads::p2p::P2pBandwidth;

fn run_case(
    quantum_ms: u64,
    msg_a: u64,
    msg_b: u64,
    count: u64,
    copy_full: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.quantum = Cycles::from_ms(quantum_ms);
    cfg.copy = if copy_full {
        CopyStrategy::Full
    } else {
        CopyStrategy::ValidOnly
    };
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let a = P2pBandwidth::with_count(msg_a, count);
    let b = P2pBandwidth::with_count(msg_b, count);
    sim.submit(&a, Some(vec![0, 1])).unwrap();
    sim.submit(&b, Some(vec![2, 3])).unwrap();
    // A third job sharing nodes with the first forces rotation.
    let c = P2pBandwidth::with_count(msg_a, count);
    sim.submit(&c, Some(vec![0, 1])).unwrap();
    let done = sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(60));
    prop_assert!(done, "jobs did not finish");
    let w = sim.world();
    prop_assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        prop_assert_eq!(n.nic.send_q_occupancy(), 0);
        prop_assert_eq!(n.nic.recv_q_occupancy(), 0);
        prop_assert!(n.backing.is_empty());
        for e in &n.exited {
            prop_assert_eq!(e.gaps, 0);
            if e.rank == 1 {
                prop_assert_eq!(e.stats.msgs_received, count);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // each case is a full cluster simulation
        .. ProptestConfig::default()
    })]

    #[test]
    fn random_mixes_never_lose_packets(
        quantum_ms in 10u64..60,
        msg_a in 1u64..20_000,
        msg_b in 1u64..20_000,
        count in 50u64..400,
        copy_full in any::<bool>(),
        seed in any::<u64>(),
    ) {
        run_case(quantum_ms, msg_a, msg_b, count, copy_full, seed)?;
    }
}
