//! Host-cost benchmark of the gang-scheduling simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pairs64_stream|gang_rotate256|serve_gang12 \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload single-threaded as a closed loop: build a
//! simulation, run it to its end, check it, repeat, for `--seconds`. A pass
//! runs each of the workload's inputs once; every input is derived from
//! `--seed`. With `--trace 0` the run reports the end-to-end metrics (from
//! the fastest run of each input); with `--trace 1` it runs each input
//! untraced and then traced (see [`traced`]) in every pass, reports the
//! per-layer metrics, and checks that tracing left every run's fingerprint
//! unchanged. The last line of standard output is the JSON result.

mod host;
mod metrics;
#[cfg(test)]
mod tests;
mod traced;
mod workload;

use std::time::Instant;

use metrics::{fastest, mean, Metric, RunCounts};
use traced::Recorder;
use workload::{check, Prepared, Scale, Workload};

/// Set-ups timed per run of an input; the run uses the last one. Set-up
/// takes well under a millisecond on two workloads, so it is sampled more
/// often than the run it precedes.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics `--trace 0` reports, with their units.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (known: {names:?})")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Per-input bookkeeping across the passes of one run.
struct Input {
    seed: u64,
    /// Fingerprint and stream digest of the first run of this input.
    first: Option<(u64, u64)>,
    wall_s: Vec<f64>,
    setup_s: Vec<f64>,
    world_new_s: Vec<f64>,
    submit_s: Vec<f64>,
    /// Model counts of the first run (identical on every run of the input).
    counts: Option<RunCounts>,
}

impl Input {
    fn new(seed: u64) -> Self {
        Input {
            seed,
            first: None,
            wall_s: Vec::new(),
            setup_s: Vec::new(),
            world_new_s: Vec::new(),
            submit_s: Vec::new(),
            counts: None,
        }
    }

    /// Set the input up `SETUP_REPS` times, record each set-up's timing,
    /// and return the last simulation.
    fn prepare(&mut self, w: Workload) -> Prepared {
        for _ in 1..SETUP_REPS {
            self.note_setup(&w.prepare(self.seed, Scale::Full));
        }
        let p = w.prepare(self.seed, Scale::Full);
        self.note_setup(&p);
        p
    }

    fn note_setup(&mut self, p: &Prepared) {
        self.setup_s.push(p.world_new_s + p.submit_s);
        self.world_new_s.push(p.world_new_s);
        self.submit_s.push(p.submit_s);
    }

    /// Check one finished run of this input and return its failures: the
    /// output checks plus agreement with the input's first run.
    fn check_run(&mut self, p: &Prepared, what: &str) -> Vec<String> {
        let mut failures = check(p);
        let got = (p.sim.logical_fingerprint(), p.sim.engine.stream_digest());
        match self.first {
            None => {
                println!(
                    "fingerprint seed={} logical={:#018x} digest={:#018x} events={}",
                    self.seed,
                    got.0,
                    got.1,
                    p.sim.engine.logical_events()
                );
                self.first = Some(got);
                self.counts = Some(RunCounts::of(&p.sim));
            }
            Some(first) if first != got => failures.push(format!(
                "{what} run of seed {} gave fingerprint {:#018x}/{:#018x}, first run {:#018x}/{:#018x}",
                self.seed, got.0, got.1, first.0, first.1
            )),
            Some(_) => {}
        }
        failures
    }
}

/// Tally of runs and their failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                eprintln!("check failed: {f}");
            }
        }
    }
}

/// Per-pass total over inputs of `agg` applied to each input's samples.
fn pass_total(
    inputs: &[Input],
    field: impl Fn(&Input) -> &Vec<f64>,
    agg: fn(&[f64]) -> f64,
) -> f64 {
    inputs.iter().map(|i| agg(field(i))).sum()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::record();
    println!("host {host}");
    let w = args.workload;
    let mut inputs: Vec<Input> = w
        .inputs(args.seed, Scale::Full)
        .into_iter()
        .map(Input::new)
        .collect();
    let mut tally = Tally::default();
    let start = Instant::now();
    let metrics = if args.trace {
        traced_run(w, &args, &mut inputs, &mut tally, start, &host)
    } else {
        untraced_run(w, &args, &mut inputs, &mut tally, start)
    };
    println!(
        "{} passes of {} input(s) in {:.2} s; failed_frac {} ({} of {} runs)",
        inputs[0].wall_s.len(),
        inputs.len(),
        start.elapsed().as_secs_f64(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for m in &metrics {
        println!("{:<28} {:>16} {}", m.name, metrics::number(m.value), m.unit);
    }
    println!(
        "{}",
        metrics::result_json(tally.failed == 0, tally.attempted, tally.failed, &metrics)
    );
}

/// `--trace 0`: closed-loop passes for `--seconds`, then the end-to-end
/// metrics.
fn untraced_run(
    w: Workload,
    args: &Args,
    inputs: &mut [Input],
    tally: &mut Tally,
    start: Instant,
) -> Vec<Metric> {
    // Peak memory is read after the first pass: later passes reuse freed
    // memory in an order that varies with the allocator's history, not
    // with the program.
    let mut peak_rss_mb = None;
    while peak_rss_mb.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        for input in inputs.iter_mut() {
            let mut p = input.prepare(w);
            let t0 = Instant::now();
            p.run();
            input.wall_s.push(t0.elapsed().as_secs_f64());
            tally.add(input.check_run(&p, "untraced"));
        }
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
    }
    // The library's packaged run of each input must agree with the
    // hand-built one (checked once per input, outside the timed loop).
    for input in inputs.iter() {
        if let Some(reference) = w.reference_fingerprint(input.seed, Scale::Full) {
            let ours = input.first.expect("every input ran").0;
            tally.add(if reference == ours {
                Vec::new()
            } else {
                vec![format!(
                    "seed {}: hand-built fingerprint {ours:#018x} != packaged {reference:#018x}",
                    input.seed
                )]
            });
        }
    }
    // The fastest run of each input: the simulation is deterministic, so
    // anything slower is time the host took away (see README.md).
    let wall_s = pass_total(inputs, |i| &i.wall_s, fastest);
    let events: u64 = inputs
        .iter()
        .map(|i| i.counts.as_ref().expect("every input ran").logical)
        .sum();
    let values = [
        wall_s,
        events as f64 / wall_s,
        pass_total(inputs, |i| &i.setup_s, fastest),
        peak_rss_mb.expect("one pass ran"),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

/// `--trace 1`: passes of one untraced and one traced run per input for
/// `--seconds`, then the per-layer metrics.
fn traced_run(
    w: Workload,
    args: &Args,
    inputs: &mut [Input],
    tally: &mut Tally,
    start: Instant,
    host: &str,
) -> Vec<Metric> {
    let mut rec = Recorder::new(args.seed);
    let mut untraced_s = vec![Vec::new(); inputs.len()];
    while inputs[0].wall_s.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for (i, input) in inputs.iter_mut().enumerate() {
            // Each traced run has an untraced twin: the twin's fingerprint is
            // the reference tracing must not change, and its time is the
            // baseline of the tracing overhead.
            let mut p = w.prepare(input.seed, Scale::Full);
            let t0 = Instant::now();
            p.run();
            untraced_s[i].push(t0.elapsed().as_secs_f64());
            tally.add(input.check_run(&p, "untraced"));
            drop(p);

            let t0 = Instant::now();
            let mut p = input.prepare(w);
            let t1 = Instant::now();
            rec.span("setup", i, t0, t1);
            traced::run_traced(&mut p, &mut rec, i);
            input.wall_s.push(t1.elapsed().as_secs_f64());
            tally.add(input.check_run(&p, "traced"));
        }
    }
    // Means, like the sampled step times behind every `busy_s`.
    let untraced_wall: f64 = untraced_s.iter().map(|v| mean(v)).sum();
    write_spans(w, args.seed, &rec, host);
    let traced_wall = pass_total(inputs, |i| &i.wall_s, mean);
    let counts: Vec<&RunCounts> = inputs
        .iter()
        .map(|i| i.counts.as_ref().expect("every input ran"))
        .collect();
    metrics::per_layer(
        &counts,
        &rec,
        traced_wall,
        untraced_wall,
        pass_total(inputs, |i| &i.world_new_s, fastest),
        pass_total(inputs, |i| &i.submit_s, fastest),
    )
}

/// Write the traced run's spans as a Chrome trace next to the benchmark.
fn write_spans(w: Workload, seed: u64, rec: &Recorder, host: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{seed}.trace.json", w.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&path, traced::spans_json(&rec.spans, host)));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}
