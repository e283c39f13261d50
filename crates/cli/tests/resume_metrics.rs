//! A killed and resumed LFOC run reports the same `--metrics` counters
//! and gauges as the run that was never killed: a series missing from
//! `copart_telemetry::SERIES`, the table a snapshot's names are interned
//! through, would restart from zero on resume, and LFOC is the policy
//! that emits the cluster series.

use std::path::Path;
use std::process::Command;

/// Series that describe the persisting process, not the run.
const PROCESS_SERIES: [&str; 3] = ["snapshots_written", "recoveries", "snapshot_bytes"];

fn sim_run(state: &Path, extra: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args([
            "sim-run", "--policy", "lfoc", "--mix", "h-both", "--apps", "4",
        ])
        .args(["--epochs", "60", "--state-dir", state.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("run copart sim-run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "sim-run {extra:?}: {stderr}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
}

/// The `counter`/`gauge` lines of a `--metrics` block, process series
/// dropped.
fn run_series(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("counter ") || l.starts_with("gauge "))
        .filter(|l| {
            !PROCESS_SERIES
                .iter()
                .any(|s| l.contains(&format!(" {s} = ")))
        })
        .collect()
}

#[test]
fn lfoc_kill_and_resume_keeps_every_run_series() {
    let dir = std::env::temp_dir().join(format!("copart-resume-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (whole, _) = sim_run(&dir.join("whole"), &["--metrics"]);
    sim_run(&dir.join("killed"), &["--kill-at-epoch", "40"]);
    let (resumed, stderr) = sim_run(&dir.join("killed"), &["--resume", "--metrics"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!stderr.contains("unknown metric series"), "{stderr}");
    let expected = run_series(&whole);
    assert!(
        expected.iter().any(|l| l.contains(" cluster_replans = ")),
        "{whole}"
    );
    assert_eq!(run_series(&resumed), expected);
}
