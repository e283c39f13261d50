//! The one-shot `sim-run` trace: it holds the trace invariants
//! (`copart_telemetry::check_trace`), `--seed` seeds the explorer's
//! randomized θ-retries, so one seed reproduces its trace byte for byte
//! and two seeds part ways — on this path too, not only under
//! `--state-dir` — and a fault plan that never fires leaves the trace
//! byte-identical to a run without `--faults`.

use std::path::PathBuf;
use std::process::Command;

fn traced_run(tag: &str, seed: &str, extra: &[&str]) -> Vec<u8> {
    let trace: PathBuf = std::env::temp_dir().join(format!(
        "copart-seed-flag-{}-{tag}.jsonl",
        std::process::id()
    ));
    let status = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(["sim-run", "--mix", "h-both", "--apps", "4"])
        .args(["--seconds", "6", "--seed", seed])
        .args(["--trace-out", trace.to_str().unwrap()])
        .args(extra)
        .status()
        .expect("run copart sim-run");
    assert!(status.success(), "sim-run --seed {seed} {extra:?} failed");
    let bytes = std::fs::read(&trace).expect("trace was written");
    let _ = std::fs::remove_file(&trace);
    let events = copart_telemetry::parse_trace(&bytes[..]).expect("the trace parses");
    let (_, profiled) =
        copart_telemetry::check_trace(&events).expect("the trace holds its invariants");
    assert_eq!(profiled, 4, "one profiling probe per app");
    bytes
}

#[test]
fn seed_flag_reaches_the_one_shot_run() {
    let first = traced_run("a", "1", &[]);
    assert!(!first.is_empty());
    assert_eq!(first, traced_run("b", "1", &[]), "one seed, one trace");
    assert_ne!(
        first,
        traced_run("c", "2", &[]),
        "another seed, another trace"
    );
}

/// Every scenario runs behind the fault decorator, so a plan that can
/// never fire must not move a byte.
#[test]
fn a_plan_that_never_fires_is_byte_transparent() {
    assert_eq!(
        traced_run("clean", "3", &[]),
        traced_run("never", "3", &["--faults", "dropout=off"])
    );
}

/// NaN used to run and print `unfairness NaN`; `inf` and `1e12`
/// saturated the period count and aborted on a 32 GiB timeline.
#[test]
fn unusable_seconds_are_refused() {
    for seconds in ["nan", "inf", "1e12"] {
        let out = Command::new(env!("CARGO_BIN_EXE_copart"))
            .args(["sim-run", "--seconds", seconds])
            .output()
            .expect("run copart sim-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--seconds {seconds} accepted");
        assert!(stderr.contains("--seconds"), "no message: {stderr}");
    }
}
