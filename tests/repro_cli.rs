//! `repro` command-line checks that need the built binary: malformed
//! input must end in a usage error (exit 2) before anything runs, not in
//! a panic and not in a silently static run, and a sweep over a workload
//! that delivers nothing must say so.

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

/// One seed of the 4096-station disk delivers nothing in 300 ms: the
/// sweep still succeeds, and stderr names the group and the silent seeds.
#[test]
fn sweep_warns_about_a_group_that_delivers_nothing() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "--scenarios", "disk4096", "--seeds", "1..1"])
        .args(["--jobs", "1", "--duration", "300ms", "--warmup", "100ms"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(
        stderr.contains(
            "warning: disk/4096@12000m/t7/2000k/udp: every flow measured 0 kb/s in 1 of 1 seeds"
        ),
        "stderr: {stderr}"
    );
}

/// The usage line and the unknown-name error list the registry's names.
#[test]
fn unknown_sweep_scenario_lists_the_registered_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["sweep", "--scenarios", "fig8"])
        .output()
        .expect("repro runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let names = "fig7,fig9,fig11,fig12,chain16,chain64,grid16,disk20,disk4096,hidden3,\
                 mobile-disk64,mobile-disk64-slow,mobile-disk64-fast";
    assert!(
        stderr.contains(&format!("unknown scenario \"fig8\" (try {names})")),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains(&format!("[--scenarios {names}]")),
        "stderr: {stderr}"
    );
}
