//! The `distscroll-eval` command line: targets are validated before
//! anything runs.

use std::process::Command;

#[test]
fn an_unknown_target_beside_all_is_rejected_before_anything_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_distscroll-eval"))
        .args(["--quick", "bogus", "all"])
        .output()
        .expect("the eval binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(2), "stdout: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("\"bogus\""));
    assert!(!stdout.contains("== summary"), "nothing may run: {stdout}");
}
