//! The `figs` command line: a bad flag value or an unknown experiment
//! fails before any experiment runs, with a message that names it.

use std::process::{Command, Output};

fn figs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args)
        .output()
        .expect("run figs")
}

#[test]
fn bad_numeric_flag_names_the_flag_and_value() {
    let out = figs(&["scale_sweep", "--max-n", "x"]);
    assert!(!out.status.success(), "figs accepted --max-n x");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-n"), "stderr: {stderr}");
    assert!(stderr.contains("\"x\""), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran: {out:?}");
}

#[test]
fn unknown_experiment_lists_the_known_ones() {
    let out = figs(&["fig5", "fig10"]);
    assert!(!out.status.success(), "figs accepted fig10");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"fig10\""), "stderr: {stderr}");
    assert!(stderr.contains("perf_snapshot"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "an experiment ran: {out:?}");
}

#[test]
fn unknown_flag_lists_the_flags() {
    let out = figs(&["--quick"]);
    assert!(!out.status.success(), "figs accepted --quick");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--quick"), "stderr: {stderr}");
    assert!(stderr.contains("--max-rate"), "stderr: {stderr}");
}
