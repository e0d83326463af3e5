//! The traced run: the benchmark drives the engine one event at a time
//! and attributes host time to the simulator's layers from outside it.
//!
//! The loop replaces `Engine::run_until_pred`: it checks the same stop
//! predicate, then calls `Engine::step_bounded(horizon)`. A seeded
//! pseudo-random gap (mean 64 steps, so sampling cannot alias with
//! periodic event patterns) picks the steps it times; the sampled event's
//! kind is the dispatch counter that moved. A kind's host time is its mean
//! sampled step time, less the calibrated cost of an empty timer, times
//! its exact dispatch count; a layer's is the sum over its kinds.

use std::time::Instant;

use cluster::event::KIND_NAMES;
use cluster::Sim;

use crate::workload::Prepared;

/// Each simulator layer that handles events, with the event kinds whose
/// handler it owns (the `cluster::event::Event` group each kind routes to).
pub const LAYERS: &[(&str, &[&str])] = &[
    (
        "daemon",
        &[
            "quantum_expired",
            "node_tick",
            "ctrl_to_node",
            "ctrl_to_master",
            "noded_act",
            "switch_retry_check",
            "ctrl_to_peer",
            "job_arrival",
        ],
    ),
    (
        "nic",
        &[
            "frame_arrive",
            "send_engine_done",
            "recv_engine_done",
            "halt_bcast_done",
            "ready_bcast_done",
        ],
    ),
    ("app", &["proc_kick", "host_op_done"]),
    ("switch", &["copy_done"]),
    ("fm", &["fault_done", "retrans_timeout", "demand_rebalance"]),
];

/// The layer owning event kind `kind`, if any.
pub fn layer_of(kind: &str) -> Option<&'static str> {
    LAYERS
        .iter()
        .find(|(_, kinds)| kinds.contains(&kind))
        .map(|(layer, _)| *layer)
}

/// Mean steps between samples.
const MEAN_GAP: u64 = 64;

/// xorshift64* — the sampling gaps' generator.
struct Gaps(u64);

impl Gaps {
    fn new(seed: u64) -> Self {
        Gaps(seed ^ 0x9e37_79b9_7f4a_7c15 | 1)
    }

    /// The next gap, uniform in `1..2 * MEAN_GAP`.
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        1 + self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % (2 * MEAN_GAP - 1)
    }
}

/// A named host-time interval, kept in memory until the run ends.
#[derive(Debug)]
pub struct Span {
    /// What the interval covers: `setup`, `run.traced` or
    /// `switch.interval`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// The input this span belongs to (its index within a pass).
    pub input: usize,
}

/// Sampled step times per event kind, the queue-depth samples and the
/// spans of every traced run.
pub struct Recorder {
    origin: Instant,
    gaps: Gaps,
    /// Cost of one `Instant::now` + `elapsed` pair with nothing between.
    pub timer_ns: f64,
    /// Sampled steps per kind index.
    pub sampled: Vec<u64>,
    /// Summed raw nanoseconds of the sampled steps, per kind index.
    pub sampled_ns: Vec<u64>,
    /// Sum and count of `Engine::pending()` at the sampled steps.
    pub pending_sum: u64,
    /// Steps whose queue depth went into `pending_sum`.
    pub pending_samples: u64,
    /// Deepest queue seen before any step.
    pub pending_max: usize,
    /// Host milliseconds between successive gang-switch completions.
    pub switch_wall_ms: Vec<f64>,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
    counts: Vec<u64>,
}

impl Recorder {
    /// A recorder whose sampling gaps are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let kinds = KIND_NAMES.len();
        Recorder {
            origin: Instant::now(),
            gaps: Gaps::new(seed),
            timer_ns: calibrate_timer(),
            sampled: vec![0; kinds],
            sampled_ns: vec![0; kinds],
            pending_sum: 0,
            pending_samples: 0,
            pending_max: 0,
            switch_wall_ms: Vec::new(),
            spans: Vec::new(),
            counts: vec![0; kinds],
        }
    }

    /// Record the interval `[start, end)` as a span.
    pub fn span(&mut self, name: &'static str, input: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: (start - self.origin).as_nanos() as u64,
            dur_ns: (end - start).as_nanos() as u64,
            input,
        });
    }

    /// Mean host nanoseconds of one event of kind index `k`, net of the
    /// timer's own cost; 0 when no step of that kind was sampled.
    pub fn kind_ns_mean(&self, k: usize) -> f64 {
        if self.sampled[k] == 0 {
            return 0.0;
        }
        (self.sampled_ns[k] as f64 / self.sampled[k] as f64 - self.timer_ns).max(0.0)
    }

    /// Mean host nanoseconds of one sampled step of any kind, net of the
    /// timer's cost.
    pub fn step_ns_mean(&self) -> f64 {
        let n: u64 = self.sampled.iter().sum();
        if n == 0 {
            return 0.0;
        }
        (self.sampled_ns.iter().sum::<u64>() as f64 / n as f64 - self.timer_ns).max(0.0)
    }

    fn snapshot_counts(&mut self, sim: &Sim) {
        for (slot, (_, c)) in self.counts.iter_mut().zip(sim.engine.dispatch_counts()) {
            *slot = c;
        }
    }

    /// The kind index whose dispatch counter moved since the snapshot.
    fn moved_kind(&self, sim: &Sim) -> Option<usize> {
        sim.engine
            .dispatch_counts()
            .zip(&self.counts)
            .position(|((_, now), before)| now != *before)
    }
}

/// Median cost of timing nothing, in nanoseconds.
fn calibrate_timer() -> f64 {
    let mut v: Vec<u64> = (0..20_001)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(t0).elapsed().as_nanos() as u64
        })
        .collect();
    v.sort_unstable();
    v[v.len() / 2] as f64
}

/// Run a prepared simulation to its end under sampling; `input` tags the
/// spans. Dispatches exactly the events `Prepared::run` would.
pub fn run_traced(p: &mut Prepared, rec: &mut Recorder, input: usize) {
    let (stop, horizon) = (p.stop, p.horizon);
    let sim = &mut p.sim;
    let start = Instant::now();
    let mut last_switch = start;
    let mut switches = sim.world().stats.switches;
    let mut gap = rec.gaps.next();
    loop {
        if stop.pred(sim.world()) {
            break;
        }
        let pending = sim.engine.pending();
        rec.pending_max = rec.pending_max.max(pending);
        gap -= 1;
        if gap == 0 {
            gap = rec.gaps.next();
            rec.pending_sum += pending as u64;
            rec.pending_samples += 1;
            rec.snapshot_counts(sim);
            let t0 = Instant::now();
            let fired = sim.engine.step_bounded(horizon);
            let ns = t0.elapsed().as_nanos() as u64;
            if fired.is_none() {
                break;
            }
            let k = rec
                .moved_kind(sim)
                .expect("a dispatched event moves exactly one kind counter");
            rec.sampled[k] += 1;
            rec.sampled_ns[k] += ns;
        } else if sim.engine.step_bounded(horizon).is_none() {
            break;
        }
        let now_switches = sim.world().stats.switches;
        if now_switches != switches {
            let now = Instant::now();
            // The first completion's interval includes the run's start-up,
            // not a switch-to-switch period.
            if switches > 0 {
                rec.switch_wall_ms
                    .push((now - last_switch).as_secs_f64() * 1e3);
            }
            rec.span("switch.interval", input, last_switch, now);
            last_switch = now;
            switches = now_switches;
        }
    }
    rec.span("run.traced", input, start, Instant::now());
}

/// The spans as Chrome trace-event JSON (opens in Perfetto or
/// `chrome://tracing`), with the host record as metadata.
pub fn spans_json(spans: &[Span], host: &str) -> String {
    let mut out = format!("{{\"host\":{host},\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"input\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.input + 1,
            s.input
        ));
    }
    out.push_str("]}\n");
    out
}
