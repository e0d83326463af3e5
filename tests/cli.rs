//! The `gang-sim` command line: a bad flag value fails fast with a message
//! that names the flag, instead of a bare parse error.

use std::process::Command;

#[test]
fn bad_numeric_flag_names_the_flag_and_value() {
    let out = Command::new(env!("CARGO_BIN_EXE_gang-sim"))
        .args(["--nodes", "x"])
        .output()
        .expect("run gang-sim");
    assert!(!out.status.success(), "gang-sim accepted --nodes x");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--nodes"), "stderr: {stderr}");
    assert!(stderr.contains("\"x\""), "stderr: {stderr}");
}

#[test]
fn unknown_workload_fails_before_any_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_gang-sim"))
        .args(["--workload", "nosuch"])
        .output()
        .expect("run gang-sim");
    assert!(!out.status.success(), "gang-sim accepted --workload nosuch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuch"), "stderr: {stderr}");
    assert!(
        stderr.contains("p2p|alltoall|barrier|allreduce|ring"),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn degenerate_sizes_fail_before_any_output() {
    for (flag, value) in [("--nodes", "0"), ("--nodes", "1"), ("--quantum-ms", "0")] {
        let out = Command::new(env!("CARGO_BIN_EXE_gang-sim"))
            .args([flag, value])
            .output()
            .expect("run gang-sim");
        assert!(!out.status.success(), "gang-sim accepted {flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "stdout: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
