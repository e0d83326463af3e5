//! Serving-cluster mode end to end: open-loop arrivals through the jobrep
//! admission queue, streaming latency percentiles, and the determinism
//! contract — p50/p99/p999 and the logical fingerprint are bit-identical
//! from run to run.

use cluster::measure::{Measurement, SchedulingMode, ServeCell};
use cluster::{ArrivalPlan, ArrivalSpec, ClusterConfig, Sim};
use fastmsg::division::BufferPolicy;
use proptest::prelude::*;
use sim_core::time::{Cycles, SimTime};

fn gang_cell() -> ServeCell {
    Measurement::serve(8, 2, SchedulingMode::Gang)
        .arrival_rate(3.0)
        .horizon(Cycles::from_secs(3))
        .seed(42)
        .run()
}

fn percentiles(c: &ServeCell) -> [u64; 9] {
    [
        c.wait_p50,
        c.wait_p99,
        c.wait_p999,
        c.service_p50,
        c.service_p99,
        c.service_p999,
        c.e2e_p50,
        c.e2e_p99,
        c.e2e_p999,
    ]
}

#[test]
fn serve_completes_and_records_latencies() {
    let c = gang_cell();
    assert!(c.submitted > 0, "{c:?}");
    assert_eq!(c.rejected, 0, "{c:?}");
    assert!(c.drained, "moderate load must drain: {c:?}");
    assert_eq!(c.completed, c.admitted, "{c:?}");
    // Percentiles are monotone within each metric.
    assert!(c.wait_p50 <= c.wait_p99 && c.wait_p99 <= c.wait_p999);
    assert!(c.service_p50 <= c.service_p99 && c.service_p99 <= c.service_p999);
    assert!(c.e2e_p50 <= c.e2e_p99 && c.e2e_p99 <= c.e2e_p999);
    // End-to-end dominates service (e2e = wait + service per job).
    assert!(c.e2e_p50 >= c.service_p50, "{c:?}");
    assert!(c.service_p50 > 0, "jobs take time: {c:?}");
    assert!((0.0..=1.0).contains(&c.slo_attainment));
    // The engine's logical-event count, not the job count.
    assert!(c.logical_events > c.completed, "{c:?}");
}

#[test]
fn serve_percentiles_reproduce_run_to_run() {
    let base = gang_cell();
    let c = gang_cell();
    assert_eq!(percentiles(&base), percentiles(&c));
    assert_eq!(base.fingerprint, c.fingerprint);
    assert_eq!(base.completed, c.completed);
    assert_eq!(base.logical_events, c.logical_events);
}

#[test]
fn serve_modes_differ_and_saturation_raises_latency() {
    let cell = |mode, rate| {
        Measurement::serve(8, 2, mode)
            .arrival_rate(rate)
            .horizon(Cycles::from_secs(3))
            .seed(42)
            .run()
    };
    let gang = cell(SchedulingMode::Gang, 3.0);
    let unco = cell(SchedulingMode::Uncoordinated, 3.0);
    assert!(gang.drained && unco.drained);
    assert_ne!(
        gang.fingerprint, unco.fingerprint,
        "coordination must be observable"
    );
    // Pushing the same cluster much harder lifts the tail.
    let hot = cell(SchedulingMode::Gang, 12.0);
    assert!(hot.submitted > gang.submitted);
    assert!(
        hot.e2e_p99 >= gang.e2e_p99,
        "hot {} < calm {}",
        hot.e2e_p99,
        gang.e2e_p99
    );
}

#[test]
fn serve_trace_overrides_poisson() {
    let t = vec![
        ArrivalSpec {
            at: Cycles::from_ms(100),
            nprocs: 2,
            size: 10,
            priority: 0,
        },
        ArrivalSpec {
            at: Cycles::from_ms(50),
            nprocs: 2,
            size: 10,
            priority: 0,
        },
    ];
    let c = Measurement::serve(4, 2, SchedulingMode::Gang)
        .trace(t)
        .horizon(Cycles::from_secs(1))
        .seed(1)
        .run();
    assert_eq!(c.submitted, 2);
    assert_eq!(c.admitted, 2);
    assert_eq!(c.completed, 2);
    assert!(c.drained);
}

/// Open-loop admission invariants under randomized rates, seeds, and
/// widths: no job is lost or double-dispatched, same-class admission is
/// FIFO, and the queue drains to empty once arrivals stop.
fn admission_case(rate_x10: u64, seed: u64, width: usize) -> Result<(), TestCaseError> {
    let mut cfg = ClusterConfig::parpar(4, 2, BufferPolicy::StaticDivision);
    cfg.quantum = Cycles::from_ms(100);
    cfg.eager_reclaim = true;
    cfg.seed = seed;
    let mut sim = Sim::new(cfg);
    let plan = ArrivalPlan::poisson(
        seed,
        rate_x10 as f64 / 10.0,
        Cycles::from_secs(2),
        width,
        5,
        20,
    );
    let planned = plan.len() as u64;
    sim.install_arrivals(&plan, |_, spec| {
        workloads::registry::build("p2p-small", spec.nprocs, 0, spec.size).unwrap()
    });
    let drained = sim.run_until_quiescent(SimTime::ZERO + Cycles::from_secs(120));
    prop_assert!(drained, "pipeline did not drain");
    let w = sim.world();
    // Conservation: every planned arrival was submitted; every submission
    // was admitted or rejected; every admitted job dispatched and finished
    // exactly once (PerJob slots make double-dispatch impossible to hide —
    // counts would diverge).
    prop_assert_eq!(w.jobrep.stats.submitted, planned);
    prop_assert_eq!(
        w.jobrep.stats.admitted + w.jobrep.stats.rejected,
        w.jobrep.stats.submitted
    );
    prop_assert_eq!(w.jobrep.stats.rejected, 0);
    prop_assert_eq!(w.stats.job_dispatched.len() as u64, w.jobrep.stats.admitted);
    prop_assert_eq!(w.stats.job_finished.len() as u64, w.jobrep.stats.admitted);
    prop_assert_eq!(w.stats.wait_latency.count(), w.jobrep.stats.admitted);
    prop_assert_eq!(w.stats.e2e_latency.count(), w.jobrep.stats.admitted);
    prop_assert_eq!(w.jobrep.waiting(), 0);
    // FIFO within the single priority class: JobIds are allocated at
    // admission, so dispatch times must be non-decreasing in JobId, and so
    // must submit times (an arrival can never overtake an earlier one).
    let dispatched: Vec<_> = w.stats.job_dispatched.iter().map(|(_, t)| *t).collect();
    for pair in dispatched.windows(2) {
        prop_assert!(pair[0] <= pair[1], "dispatch out of FIFO order");
    }
    let submitted: Vec<_> = w.stats.job_submitted.iter().map(|(_, t)| *t).collect();
    for pair in submitted.windows(2) {
        prop_assert!(pair[0] <= pair[1], "submit out of arrival order");
    }
    // Per job: submit <= dispatch <= finish.
    for (j, sub) in w.stats.job_submitted.iter() {
        let disp = w.stats.job_dispatched[&j];
        let fin = w.stats.job_finished[&j];
        prop_assert!(*sub <= disp && disp <= fin);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]
    #[test]
    fn open_loop_admission_invariants(
        rate_x10 in 5u64..60,
        seed in 0u64..1_000,
        width in 1usize..4,
    ) {
        admission_case(rate_x10, seed, width)?;
    }
}
