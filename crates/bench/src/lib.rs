//! # bench-harness — figure regeneration and micro-benchmarks
//!
//! One binary per paper figure (`fig5` … `fig9`, `overheads`, `ablation`)
//! plus criterion micro-benchmarks. Each binary prints the same rows or
//! series the paper plots and can emit CSV.
//!
//! Common flags (all binaries):
//!
//! * `--full`  — paper-scale message counts / quanta (slow; defaults are
//!   steady-state-converged quick runs);
//! * `--csv DIR` — also write `DIR/<figure>.csv`;
//! * `--seed N` — override the deterministic seed.

#![warn(missing_docs)]

pub mod snapshot;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use sim_core::report::Table;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct HarnessOpts {
    /// Run at the paper's full scale.
    pub full: bool,
    /// Directory to write CSV output into.
    pub csv: Option<PathBuf>,
    /// Simulation seed.
    pub seed: u64,
}

impl HarnessOpts {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parse from an explicit argument list (exposed for tests).
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOpts {
            full: false,
            csv: None,
            seed: 42,
        };
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--csv" => {
                    opts.csv = Some(PathBuf::from(args.next().expect("--csv needs a directory")));
                }
                "--seed" => {
                    opts.seed = args
                        .next()
                        .expect("--seed needs a value")
                        .parse()
                        .expect("seed must be an integer");
                }
                "--help" | "-h" => {
                    eprintln!("flags: --full --csv DIR --seed N");
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
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
}

/// Ceiling on [`par_sweep`] workers: the machine-wide limit from
/// `sim_core::pool`.
pub fn sweep_pool_size() -> usize {
    sim_core::pool::max_parallelism()
}

/// Run `f` over `params` on a bounded worker pool, preserving parameter
/// order in the results. Workers pull the next parameter from a shared
/// counter, so at most the pool size runs at once no matter how large the
/// sweep is. The pool is leased from the global `sim_core::pool::Budget`,
/// so concurrent or nested sweeps share the machine's slots instead of
/// multiplying them.
pub fn par_sweep<P, R, F>(params: Vec<P>, f: F) -> Vec<R>
where
    P: Send + Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let grant = sim_core::pool::Budget::acquire(params.len().max(1));
    let workers = grant.count().min(params.len().max(1));
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
            peak <= sweep_pool_size(),
            "{peak} live workers exceeds pool of {}",
            sweep_pool_size()
        );
    }

    #[test]
    fn fig5_counts() {
        assert_eq!(fig5_count(64, true), 500_000);
        assert_eq!(fig5_count(65536, true), 100_000);
        assert!(fig5_count(64, false) < 10_000);
    }
}
