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
