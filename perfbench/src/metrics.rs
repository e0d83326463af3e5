//! Metric values, the model counts a run leaves behind, the per-layer
//! table, and the result line.

use cluster::event::KIND_NAMES;
use cluster::Sim;
use sim_core::time::Cycles;

use crate::traced::{layer_of, Recorder, LAYERS};
use crate::workload::SERVE_SLO;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value of a non-empty sample.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        .reduce(f64::min)
        .expect("a non-empty sample")
}

/// Mean of a non-empty sample.
pub fn mean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "mean of an empty sample");
    v.iter().sum::<f64>() / v.len() as f64
}

/// A JSON number: every digit of a finite value, 0 otherwise.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn ms(cycles: u64) -> f64 {
    Cycles(cycles).as_secs() * 1e3
}

/// The simulated quantities one finished run leaves behind: deterministic
/// per input, so a speed-only change must leave every one unchanged.
#[derive(Debug)]
pub struct RunCounts {
    /// Dispatches per `KIND_NAMES` index.
    pub kinds: Vec<u64>,
    /// `Engine::logical_events`.
    pub logical: u64,
    /// `Engine::events_processed`.
    pub physical: u64,
    data_sent: u64,
    control_sent: u64,
    packets: u64,
    ctrl_msgs: u64,
    queue_depth_mean: f64,
    switches: u64,
    stage_samples: usize,
    switch_latency: usize,
    queue_samples: usize,
    retransmits: u64,
    /// Ledger samples and summed halt/buffer/release cycles.
    stage_n: u64,
    stage_sums: [f64; 3],
    e2e_p50_ms: f64,
    e2e_p99_ms: f64,
    slo_attainment: f64,
}

impl RunCounts {
    /// Read the counts off a finished simulation.
    pub fn of(sim: &Sim) -> Self {
        let w = sim.world();
        let s = &w.stats;
        let stage_n = s.ledger.samples();
        let (h, b, r) = s.ledger.mean_stages();
        let n = stage_n as f64;
        RunCounts {
            kinds: sim.engine.dispatch_counts().map(|(_, c)| c).collect(),
            logical: sim.engine.logical_events(),
            physical: sim.engine.events_processed(),
            data_sent: w.nodes.iter().map(|n| n.nic.stats.data_sent).sum(),
            control_sent: w.nodes.iter().map(|n| n.nic.stats.control_sent).sum(),
            packets: w.net.total_packets(),
            ctrl_msgs: w.ctrl.messages,
            queue_depth_mean: s.queue_depth.mean(),
            switches: s.switches,
            stage_samples: s.stage_samples.len(),
            switch_latency: s.switch_latency.len(),
            queue_samples: s.queue_samples.len(),
            retransmits: s.retransmits,
            stage_n,
            stage_sums: if stage_n > 0 {
                [h * n, b * n, r * n]
            } else {
                [0.0; 3]
            },
            e2e_p50_ms: ms(s.e2e_latency.quantile_ppk(500)),
            e2e_p99_ms: ms(s.e2e_latency.quantile_ppk(990)),
            // A run that served no jobs attained nothing: report 0, not the
            // sketch's vacuous 1.
            slo_attainment: if s.e2e_latency.count() == 0 {
                0.0
            } else {
                s.e2e_latency.fraction_le(SERVE_SLO.raw())
            },
        }
    }
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, from
/// an ascending sample (the median when there are too few samples for any).
pub fn tail(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    [999, 990, 900]
        .into_iter()
        .map(|ppk| (ppk * n).div_ceil(1000).max(1))
        .find(|&rank| n - rank >= 10)
        .map_or_else(|| median(sorted), |rank| sorted[rank - 1])
}

/// The per-layer table of a traced run. `runs` holds one entry per input
/// of a pass; times are per pass.
pub fn per_layer(
    runs: &[&RunCounts],
    rec: &Recorder,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    world_new_s: f64,
    submit_s: f64,
) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&RunCounts) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let avg = |f: &dyn Fn(&RunCounts) -> f64| sum(f) / runs.len() as f64;
    let kind_count = |k: usize| sum(&|r| r.kinds[k] as f64);
    let kind_busy_s = |k: usize| rec.kind_ns_mean(k) * kind_count(k) / 1e9;
    let layer = |name: &str| -> (f64, f64) {
        (0..KIND_NAMES.len())
            .filter(|&k| layer_of(KIND_NAMES[k]) == Some(name))
            .fold((0.0, 0.0), |(n, s), k| {
                (n + kind_count(k), s + kind_busy_s(k))
            })
    };
    let mut m = vec![
        Metric::new("engine.events_logical", sum(&|r| r.logical as f64), "count"),
        Metric::new(
            "engine.events_physical",
            sum(&|r| r.physical as f64),
            "count",
        ),
        Metric::new(
            "engine.pending_mean",
            rec.pending_sum as f64 / rec.pending_samples.max(1) as f64,
            "count",
        ),
        Metric::new("engine.pending_max", rec.pending_max as f64, "count"),
        Metric::new("engine.step_ns_mean", rec.step_ns_mean(), "ns"),
    ];
    let mut busy_total = 0.0;
    for (name, _) in LAYERS {
        let (events, busy) = layer(name);
        busy_total += busy;
        m.push(Metric::new(format!("{name}.events"), events, "count"));
        m.push(Metric::new(format!("{name}.busy_s"), busy, "s"));
        if *name != "fm" {
            m.push(Metric::new(
                format!("{name}.busy_frac"),
                busy / traced_wall_s,
                "frac",
            ));
        }
        match *name {
            "nic" => {
                m.push(Metric::new(
                    "lanai.data_sent",
                    sum(&|r| r.data_sent as f64),
                    "count",
                ));
                m.push(Metric::new(
                    "lanai.control_sent",
                    sum(&|r| r.control_sent as f64),
                    "count",
                ));
                m.push(Metric::new(
                    "myrinet.packets",
                    sum(&|r| r.packets as f64),
                    "count",
                ));
            }
            "daemon" => {
                m.push(Metric::new(
                    "parpar.ctrl_msgs",
                    sum(&|r| r.ctrl_msgs as f64),
                    "count",
                ));
                m.push(Metric::new(
                    "parpar.queue_depth_mean",
                    avg(&|r| r.queue_depth_mean),
                    "count",
                ));
            }
            "switch" => {
                let mut walls = rec.switch_wall_ms.clone();
                walls.sort_by(|a, b| a.total_cmp(b));
                let stage_n = sum(&|r| r.stage_n as f64).max(1.0);
                m.push(Metric::new(
                    "switch.count",
                    sum(&|r| r.switches as f64),
                    "count",
                ));
                m.push(Metric::new(
                    "switch.wall_ms_p50",
                    if walls.is_empty() {
                        0.0
                    } else {
                        median(&walls)
                    },
                    "ms",
                ));
                m.push(Metric::new("switch.wall_ms_tail", tail(&walls), "ms"));
                m.push(Metric::new("switch.wall_ms_n", walls.len() as f64, "count"));
                for (i, stage) in ["halt", "buffer", "release"].iter().enumerate() {
                    m.push(Metric::new(
                        format!("switch.{stage}_cycles_mean"),
                        sum(&|r| r.stage_sums[i]) / stage_n,
                        "cycles",
                    ));
                }
            }
            "fm" => {
                let retransmits = sum(&|r| r.retransmits as f64);
                m.push(Metric::new("fastmsg.retransmits", retransmits, "count"));
                m.push(Metric::new(
                    "fastmsg.retransmit_frac",
                    retransmits / sum(&|r| r.data_sent as f64).max(1.0),
                    "frac",
                ));
            }
            _ => {}
        }
    }
    m.extend([
        Metric::new(
            "stats.stage_samples_len",
            sum(&|r| r.stage_samples as f64),
            "count",
        ),
        Metric::new(
            "stats.switch_latency_len",
            sum(&|r| r.switch_latency as f64),
            "count",
        ),
        Metric::new(
            "stats.queue_samples_len",
            sum(&|r| r.queue_samples as f64),
            "count",
        ),
        Metric::new("setup.world_new_s", world_new_s, "s"),
        Metric::new("setup.submit_s", submit_s, "s"),
        Metric::new("serve.e2e_p50_ms", avg(&|r| r.e2e_p50_ms), "ms"),
        Metric::new("serve.e2e_p99_ms", avg(&|r| r.e2e_p99_ms), "ms"),
        Metric::new("serve.slo_attainment", avg(&|r| r.slo_attainment), "frac"),
    ]);
    for (k, name) in KIND_NAMES.iter().enumerate() {
        m.push(Metric::new(
            format!("kind.{name}.count"),
            kind_count(k),
            "count",
        ));
        m.push(Metric::new(
            format!("kind.{name}.ns_mean"),
            rec.kind_ns_mean(k),
            "ns",
        ));
    }
    m.extend([
        Metric::new(
            "trace.overhead_frac",
            traced_wall_s / untraced_wall_s - 1.0,
            "frac",
        ),
        Metric::new("trace.attributed_frac", busy_total / traced_wall_s, "frac"),
    ]);
    m
}
