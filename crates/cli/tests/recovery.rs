//! Kill and resume through the `copart` binary, clean and under a fault
//! plan (DESIGN.md §16): `sim-run --state-dir --kill-at-epoch 11`, then
//! `--resume`, finishes with the trace an uninterrupted run writes, byte
//! for byte. Under faults the recovery must restore the fault-stream
//! positions too, or the continuation diverges. The newest snapshot's
//! backend tag follows the fault plan (`sim` without one, `faulty` with
//! one) although both runs sit behind the same decorator, which is what
//! lets a fault-free state directory written before the builds were
//! unified still restore.

use std::path::{Path, PathBuf};
use std::process::Command;

use copart_persist::store::list_snapshots;

const FAULTS: &str = "seed=7,write=0.1,dropout=0.05";

fn copart(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(args)
        .output()
        .expect("run copart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "copart {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// `sim-run` of the 24-epoch H-Both scenario into `state`.
fn sim_run(state: &Path, extra: &[&str]) -> String {
    let mut args = vec![
        "sim-run",
        "--mix",
        "h-both",
        "--policy",
        "copart",
        "--apps",
        "4",
        "--epochs",
        "24",
        "--snapshot-every",
        "5",
        "--state-dir",
        state.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    copart(&args)
}

fn newest_snapshot(state: &Path) -> String {
    let (_, path) = list_snapshots(state)
        .expect("the state directory lists")
        .pop()
        .expect("the run left a snapshot");
    std::fs::read_to_string(path).expect("the snapshot reads")
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("copart-cli-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the reference, the kill and the resume with `faults` (empty:
/// none), checks what they print and that the resumed trace is the
/// reference's, and returns the reference's `--metrics` stdout and its
/// newest snapshot.
fn kill_and_resume(tag: &str, faults: &[&str]) -> (String, String) {
    let dir = scratch(tag);
    let (reference, killed) = (dir.join("ref"), dir.join("kr"));
    let ref_out = sim_run(&reference, &[faults, &["--metrics"]].concat());
    assert!(ref_out.contains("snapshots_written"), "{tag}: {ref_out}");

    let kill_out = sim_run(&killed, &[faults, &["--kill-at-epoch", "11"]].concat());
    assert!(kill_out.contains("killed at epoch 11"), "{tag}: {kill_out}");
    let resume_out = sim_run(&killed, &[faults, &["--resume", "--metrics"]].concat());
    assert!(
        resume_out.contains("run complete: 24 epochs"),
        "{tag}: {resume_out}"
    );
    assert!(resume_out.contains("recoveries = 1"), "{tag}: {resume_out}");

    let check = copart(&[
        "trace-check",
        "--path",
        killed.join("trace.jsonl").to_str().unwrap(),
        "--min-events",
        "1",
        "--reference",
        reference.join("trace.jsonl").to_str().unwrap(),
    ]);
    assert!(
        check.contains("byte-identical to reference"),
        "{tag}: {check}"
    );

    let snapshot = newest_snapshot(&reference);
    let _ = std::fs::remove_dir_all(&dir);
    (ref_out, snapshot)
}

#[test]
fn clean_kill_and_resume_is_byte_identical() {
    let (_, snapshot) = kill_and_resume("clean", &[]);
    assert!(snapshot.contains(r#""kind":"sim""#));
}

#[test]
fn faulted_kill_and_resume_is_byte_identical() {
    let (metrics, snapshot) = kill_and_resume("faulted", &["--faults", FAULTS]);
    assert!(
        metrics.contains("degraded_epochs"),
        "no degraded epochs under a 5% dropout plan: {metrics}"
    );
    assert!(snapshot.contains(r#""kind":"faulty""#));
}
