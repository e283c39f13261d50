//! `copart compare` on a run shorter than four periods. The measured
//! window used to be empty there and all 35 cells — on stdout and in
//! `--out` — read `NaN`. The same short grid pins the digest of its
//! `--out` bytes, and holds the grid determinism contract: stdout and
//! `--out` are byte-identical at `--jobs 1` and `--jobs 8`. `--seconds`
//! values no run can take are refused.

use std::path::Path;
use std::process::Command;

/// Runs the 0.6 s grid at `jobs` workers, returning stdout and the
/// `--out` bytes.
fn short_grid(dir: &Path, jobs: &str) -> (String, String) {
    let cells = dir.join(format!("cells-{jobs}.jsonl"));
    // 0.6 s is three 200 ms periods: one to measure, the boundary case.
    let out = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args([
            "compare",
            "--seconds",
            "0.6",
            "--seed",
            "42",
            "--jobs",
            jobs,
        ])
        .arg("--out")
        .arg(&cells)
        .output()
        .expect("run copart compare");
    assert!(
        out.status.success(),
        "compare --jobs {jobs} failed: {out:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 table");
    let jsonl = std::fs::read_to_string(&cells).expect("cells written");
    (stdout, jsonl)
}

#[test]
fn a_three_period_grid_has_a_number_in_every_cell() {
    let dir = std::env::temp_dir().join(format!("copart-compare-short-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (stdout, jsonl) = short_grid(&dir, "1");
    let (stdout_8, jsonl_8) = short_grid(&dir, "8");
    assert_eq!(stdout, stdout_8, "the table differs at --jobs 1 and 8");
    assert_eq!(jsonl, jsonl_8, "--out differs at --jobs 1 and 8");
    assert!(!stdout.contains("NaN"), "NaN in the table:\n{stdout}");

    assert_eq!(jsonl.lines().count(), 35, "7 engines x 5 scenarios");
    for line in jsonl.lines() {
        let cell = copart_telemetry::json::Json::parse(line).expect("cell is JSON");
        let unfairness = cell.get("unfairness").and_then(|v| v.as_f64());
        assert!(
            unfairness.is_some_and(|u| u.is_finite() && u >= 0.0),
            "cell without a finite unfairness: {line}"
        );
    }
    // The whole grid's bytes, pinned before the grid runner moved into
    // copart-experiments and unchanged by it.
    assert_eq!(
        copart_telemetry::fnv1a64(jsonl.as_bytes()),
        0xf4ba_513a_d5f6_d92b
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// NaN used to run a silent two-period grid; `inf` and `1e12` aborted
/// on a 32 GiB timeline allocation.
#[test]
fn unusable_seconds_are_refused() {
    for seconds in ["nan", "inf", "1e12"] {
        let out = Command::new(env!("CARGO_BIN_EXE_copart"))
            .args(["compare", "--seconds", seconds])
            .output()
            .expect("run copart compare");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--seconds {seconds} accepted");
        assert!(stderr.contains("--seconds"), "no message: {stderr}");
    }
}
