//! The paper's §1 premise, as a test: without coordinated scheduling a
//! bulk-synchronous application slows down far beyond its fair time
//! share, because supersteps only complete when the ranks' local quanta
//! happen to overlap.

use cluster::measure::{bsp_completion, bsp_gang_vs_uncoordinated, SchedulingMode};
use cluster::{ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use sim_core::time::{Cycles, SimTime};
use workloads::bsp::Bsp;

#[test]
fn uncoordinated_scheduling_slows_bsp_substantially() {
    let r = bsp_gang_vs_uncoordinated(8, 120, Cycles::from_ms(2), Cycles::from_ms(50), 7);
    assert!(
        r.slowdown() > 1.3,
        "expected a clear gang-scheduling win, got {:.2}x ({} vs {})",
        r.slowdown(),
        r.gang,
        r.uncoordinated
    );
    // And the gang run is near its fair share: ~2x the dedicated compute
    // time (two slots), plus communication.
    let dedicated = Cycles::from_ms(2).raw() as f64 * 120.0;
    let fair = 2.0 * dedicated;
    assert!(
        (r.gang.raw() as f64) < fair * 1.6,
        "gang run too slow: {} vs fair share {}",
        r.gang,
        Cycles(fair as u64)
    );
}

#[test]
fn dynamic_coscheduling_recovers_communication_performance() {
    // Related work [12]: message arrivals preempt in favor of the
    // destination process. The BSP job then runs in near-dedicated time —
    // faster than its gang fair-share — because the compute-bound
    // competitor is starved. Both effects are the literature's.
    let q = Cycles::from_ms(50);
    let c = Cycles::from_ms(2);
    let gang = bsp_completion(8, 120, c, q, 7, SchedulingMode::Gang);
    let unco = bsp_completion(8, 120, c, q, 7, SchedulingMode::Uncoordinated);
    let dc = bsp_completion(8, 120, c, q, 7, SchedulingMode::DynamicCosched);
    assert!(dc < unco, "DC should beat uncoordinated: {dc} vs {unco}");
    assert!(dc < gang, "DC starves the competitor: {dc} vs {gang}");
    // Near-dedicated: within 2x of the pure compute time.
    let dedicated = c.raw() * 120;
    assert!(dc.raw() < 2 * dedicated + 100_000_000, "{dc}");
}

#[test]
fn uncoordinated_mode_still_loses_no_packets() {
    // Coordination affects *when* ranks run, not correctness: static
    // division keeps every context resident, so uncoordinated slicing is
    // slow but safe.
    let mut cfg = ClusterConfig::parpar(6, 2, BufferPolicy::StaticDivision);
    cfg.gang_scheduling = false;
    cfg.quantum = Cycles::from_ms(20);
    let mut sim = Sim::new(cfg);
    let bsp = Bsp {
        nprocs: 6,
        compute: Cycles::from_ms(1),
        msg_bytes: 512,
        supersteps: 50,
    };
    let all: Vec<usize> = (0..6).collect();
    sim.submit(&bsp, Some(all.clone())).unwrap();
    sim.submit(&bsp, Some(all)).unwrap();
    assert!(sim.run_until_jobs_done(SimTime::ZERO + Cycles::from_secs(120)));
    let w = sim.world();
    assert_eq!(w.stats.drops, 0);
    for n in &w.nodes {
        for e in &n.exited {
            assert_eq!(e.gaps, 0);
            assert_eq!(e.stats.msgs_received, 100); // 2 per superstep
        }
    }
}

#[test]
#[should_panic(expected = "uncoordinated scheduling cannot switch buffers")]
fn uncoordinated_full_buffer_is_rejected() {
    // The assertion *is* the paper's argument: without gang scheduling
    // there is no safe moment to hand the whole buffer to one process.
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::FullBuffer);
    cfg.gang_scheduling = false;
    let _ = Sim::new(cfg);
}
