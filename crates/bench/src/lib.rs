//! # bench-harness — figure regeneration
//!
//! Every paper figure (`fig5` … `fig8_9`, `overheads`, `ablation`), every
//! extension table and the three wall-clock snapshots are experiments in
//! one registry ([`experiments::REGISTRY`]), run by the one `figs`
//! binary. Each experiment prints the same rows or series the paper plots
//! and can emit CSV:
//!
//! ```text
//! cargo run --release -p bench-harness -- [NAME…] [--full] [--csv DIR] \
//!     [--seed N] [--out DIR]
//! ```
//!
//! With no name, every experiment runs in registry order.
//!
//! * `--full`  — paper-scale message counts / quanta (slow; defaults are
//!   steady-state-converged quick runs);
//! * `--csv DIR` — also write `DIR/<table>.csv`;
//! * `--seed N` — override the deterministic seed;
//! * `--out DIR` — write the `BENCH_*.json` wall-clock snapshots into
//!   `DIR` (without it, no snapshot file is written).

#![warn(missing_docs)]

pub mod experiments;
pub mod snapshot;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sim_core::report::Table;

use snapshot::Snapshot;

/// The flags `figs` accepts, for usage and error messages.
const FLAGS: &str = "--full --csv DIR --seed N --out DIR";

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Experiments to run, by registry name, in run order.
    pub experiments: Vec<&'static str>,
    /// Run at the paper's full scale.
    pub full: bool,
    /// Directory to write CSV output into.
    pub csv: Option<PathBuf>,
    /// Simulation seed.
    pub seed: u64,
    /// Directory to write `BENCH_*.json` snapshots into.
    pub out: Option<PathBuf>,
}

/// Parse a flag's value, or fail naming the flag and the value.
fn value<T: std::str::FromStr>(flag: &str, what: &str, v: String) -> T
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .unwrap_or_else(|e| panic!("{flag} takes {what}, got {v:?} ({e})"))
}

impl HarnessOpts {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (exposed for tests). Bare
    /// words name experiments; with none, every registered experiment
    /// runs. A bad flag, value or name panics with a message that names
    /// it, before anything runs.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOpts {
            experiments: Vec::new(),
            full: false,
            csv: None,
            seed: 42,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            let mut val = || args.next().unwrap_or_else(|| panic!("{a} needs a value"));
            match a.as_str() {
                "--full" => opts.full = true,
                "--csv" => opts.csv = Some(PathBuf::from(val())),
                "--out" => opts.out = Some(PathBuf::from(val())),
                "--seed" => opts.seed = value(&a, "a non-negative integer", val()),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: figs [NAME…] [{FLAGS}]\nexperiments: {}",
                        experiments::names().join(" ")
                    );
                    std::process::exit(0);
                }
                flag if flag.starts_with('-') => panic!("unknown flag {flag} (flags: {FLAGS})"),
                name => {
                    let (name, _) = experiments::lookup(name).unwrap_or_else(|| {
                        panic!(
                            "unknown experiment {name:?} (experiments: {})",
                            experiments::names().join(" ")
                        )
                    });
                    opts.experiments.push(name);
                }
            }
        }
        if opts.experiments.is_empty() {
            opts.experiments = experiments::names();
        }
        opts
    }

    /// Print the table and, if requested, write it as CSV.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render());
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, table.to_csv()).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Print one stable `DIGEST` line per snapshot row (a fixed function
    /// of the seed, for CI to diff) and, if `--out` was given, write the
    /// snapshot as `DIR/<file>`.
    pub fn emit_snapshot(&self, file: &str, snap: &Snapshot) {
        for r in &snap.rows {
            println!(
                "DIGEST scenario={} events={} digest={:#018x}",
                r.scenario, r.logical_events, r.digest
            );
        }
        if let Some(dir) = &self.out {
            std::fs::create_dir_all(dir).expect("create snapshot dir");
            let path = dir.join(file);
            std::fs::write(&path, snap.to_json()).expect("write snapshot json");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// The machine's worker ceiling: `available_parallelism`, or 1 if the
/// runtime cannot tell.
pub fn max_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` over `params` on a bounded worker pool, preserving parameter
/// order in the results. Workers pull the next parameter from a shared
/// counter, so at most the pool size runs at once no matter how large the
/// sweep is. Sweeps never nest, so each one sizes its pool from the
/// machine alone.
pub fn par_sweep<P, R, F>(params: Vec<P>, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let workers = max_parallelism().min(params.len().max(1));
    let next = AtomicUsize::new(0);
    let mut batches: Vec<Vec<(usize, R)>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = params.get(i) else { break };
                        local.push((i, f(p)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            batches.push(h.join().expect("sweep worker panicked"));
        }
    });
    let mut out: Vec<Option<R>> = params.iter().map(|_| None).collect();
    for (i, r) in batches.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(Option::unwrap).collect()
}

/// The message sizes of the paper's Fig. 5 x-axis (64 B … 64 KB).
pub const FIG5_SIZES: [u64; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// The message sizes of the paper's Fig. 6 x-axis (96 B … 96 KB).
pub const FIG6_SIZES: [u64; 6] = [96, 384, 1536, 6144, 24576, 98304];

/// Node counts of the Figs. 7–9 x-axis.
pub const FIG7_NODES: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// Message count for a Fig. 5 cell: paper-scale or quick.
pub fn fig5_count(msg_bytes: u64, full: bool) -> u64 {
    if full {
        // Paper §4.1: 500,000 small / 100,000 large.
        if msg_bytes <= 1024 {
            500_000
        } else {
            100_000
        }
    } else {
        // Steady-state bandwidth converges within a few thousand messages.
        if msg_bytes <= 1024 {
            3000
        } else {
            400
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_sweep_preserves_order() {
        let r = par_sweep((0..20).collect(), |&x: &i32| x * x);
        assert_eq!(r, (0..20).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn par_sweep_never_exceeds_pool_size() {
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let r = par_sweep((0..1000).collect(), |&x: &i32| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            live.fetch_sub(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(r.len(), 1000);
        assert_eq!(r[999], 1000);
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            peak <= max_parallelism(),
            "{peak} live workers exceeds pool of {}",
            max_parallelism()
        );
    }

    fn parse(args: &[&str]) -> HarnessOpts {
        HarnessOpts::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_defaults_to_every_experiment() {
        let opts = parse(&[]);
        assert_eq!(opts.experiments, experiments::names());
        assert!(!opts.full);
        assert_eq!(opts.csv, None);
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.out, None);
    }

    #[test]
    fn parse_reads_names_and_typed_flags() {
        let opts = parse(&[
            "scale_sweep",
            "serve_sweep",
            "--out",
            "snap",
            "--csv",
            "figs",
            "--seed",
            "7",
            "--full",
            "fig5",
        ]);
        assert_eq!(opts.experiments, ["scale_sweep", "serve_sweep", "fig5"]);
        assert_eq!(opts.out, Some(PathBuf::from("snap")));
        assert_eq!(opts.csv, Some(PathBuf::from("figs")));
        assert_eq!(opts.seed, 7);
        assert!(opts.full);
    }

    #[test]
    #[should_panic(expected = "--seed takes a non-negative integer, got \"x\"")]
    fn parse_names_a_bad_value() {
        parse(&["--seed", "x"]);
    }

    #[test]
    fn fig5_counts() {
        assert_eq!(fig5_count(64, true), 500_000);
        assert_eq!(fig5_count(65536, true), 100_000);
        assert!(fig5_count(64, false) < 10_000);
    }
}
