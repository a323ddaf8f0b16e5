//! `repro` command-line checks that need the built binary: malformed
//! input must end in a usage error (exit 2) before anything runs, not in
//! a panic and not in a silently static run.

use std::process::Command;

#[test]
fn mobility_trace_naming_a_missing_station_is_a_usage_error() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stray-node-trace.txt");
    std::fs::write(&path, "0 1 0 0\n1 9 50 0\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--quick")
        .arg("--mobility")
        .arg(format!("trace:file={}", path.display()))
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("node 9 is not one of the 4 stations"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
