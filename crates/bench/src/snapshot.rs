//! Wall-clock snapshot rows and their one writer.
//!
//! `perf_snapshot`, `scale_sweep` and `serve_sweep` each measure a set of
//! scenarios and, with `--out DIR`, write a `BENCH_*.json` file; CI reads
//! those files back with `grep`. [`Snapshot::to_json`] is the one JSON
//! writer (hand-rolled: the crate has no serde) and
//! [`crate::HarnessOpts::emit_snapshot`] the one place that prints the
//! `DIGEST` lines and writes the file, so the format is defined once.
//! [`median_wall_ms`] times the `perf_snapshot` and `scale_sweep` rows.

use std::fmt::Write as _;
use std::time::Instant;

/// Timed runs per row; the row keeps their median.
const REPS: usize = 3;

/// Time `run` on three fresh inputs from `setup` and return the median
/// wall time in milliseconds with the last run's output. Neither `setup`
/// nor dropping a previous output is timed.
pub fn median_wall_ms<S, T>(mut setup: impl FnMut() -> S, mut run: impl FnMut(S) -> T) -> (f64, T) {
    let mut times = [0.0; REPS];
    let mut out = None;
    for t in &mut times {
        drop(out.take());
        let input = setup();
        let t0 = Instant::now();
        out = Some(run(input));
        *t = t0.elapsed().as_secs_f64() * 1e3;
    }
    times.sort_by(f64::total_cmp);
    (times[REPS / 2], out.expect("REPS > 0"))
}

/// One measured run of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Scenario name (`ring_1mib`, `pairs64`, `serial_n16`, …).
    pub scenario: String,
    /// Wall time, milliseconds (3 decimals survive the JSON).
    pub wall_ms: f64,
    /// Logical events the run processed.
    pub logical_events: u64,
    /// Run digest: the engine's event-stream digest, or the logical
    /// fingerprint where the emitting bin says so.
    pub digest: u64,
}

impl Row {
    /// `logical_events / wall_ms`, in events per second.
    pub fn events_per_sec(&self) -> f64 {
        self.logical_events as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// A full snapshot file: header plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Benchmark family tag (`engine_throughput`, `scale_sweep`, …).
    pub bench: String,
    /// Simulation seed all rows used.
    pub seed: u64,
    /// Cores the measuring host offered.
    pub host_cores: usize,
    /// Measured rows, in sweep order.
    pub rows: Vec<Row>,
}

impl Snapshot {
    /// A snapshot of `rows` measured on this host.
    pub fn new(bench: &str, seed: u64, rows: Vec<Row>) -> Self {
        Snapshot {
            bench: bench.to_string(),
            seed,
            host_cores: crate::max_parallelism(),
            rows,
        }
    }

    /// Serialize in the committed `BENCH_*.json` shape.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(s, "  \"host_cores\": {},", self.host_cores);
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"scenario\": \"{}\", \"wall_ms\": {:.3}, \
                 \"logical_events\": {}, \"events_per_sec\": {:.0}, \
                 \"digest\": \"{:#018x}\"}}",
                r.scenario,
                r.wall_ms,
                r.logical_events,
                r.events_per_sec(),
                r.digest,
            );
            s.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_wall_ms_runs_each_fresh_input_once() {
        let mut built = 0;
        let mut ran = Vec::new();
        let (ms, last) = median_wall_ms(
            || {
                built += 1;
                built
            },
            |i| {
                ran.push(i);
                i * 10
            },
        );
        assert_eq!(ran, [1, 2, 3]);
        assert_eq!(last, 30);
        assert!(ms >= 0.0);
    }

    #[test]
    fn json_text_is_pinned() {
        let snap = Snapshot {
            bench: "engine_throughput".into(),
            seed: 42,
            host_cores: 2,
            rows: vec![
                Row {
                    scenario: "ring_1mib".into(),
                    wall_ms: 12.125,
                    logical_events: 1_234_567,
                    digest: 0xd76b_ef7d_1b3f_c15a,
                },
                Row {
                    scenario: "pairs64".into(),
                    wall_ms: 3.5,
                    logical_events: 99,
                    digest: 0x0000_0000_0000_0001,
                },
            ],
        };
        assert_eq!(
            snap.to_json(),
            r#"{
  "bench": "engine_throughput",
  "seed": 42,
  "host_cores": 2,
  "rows": [
    {"scenario": "ring_1mib", "wall_ms": 12.125, "logical_events": 1234567, "events_per_sec": 101819959, "digest": "0xd76bef7d1b3fc15a"},
    {"scenario": "pairs64", "wall_ms": 3.500, "logical_events": 99, "events_per_sec": 28286, "digest": "0x0000000000000001"}
  ]
}
"#
        );
    }
}
