//! `copart fleet-run` end to end through the binary: an 8-node churn run
//! with per-node fault scoping and aggressive rebalancing writes a fleet
//! trace that `trace-check --fleet` replays cleanly and that covers the
//! migration path, a non-empty migration-ticket trail, and a snapshot per
//! live node under `--state-dir`. Byte identity across `--jobs` is held
//! in-process by `crates/fleet/tests/fleet_determinism.rs`.

use std::path::Path;
use std::process::Command;

use copart_persist::store::list_snapshots;

fn copart(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(args)
        .output()
        .expect("run copart");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "copart {args:?}: {stderr}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The snapshots under `state`, one directory per node.
fn snapshots(state: &Path) -> usize {
    std::fs::read_dir(state)
        .expect("the state dir lists")
        .map(|node| {
            let node = node.expect("a node dir reads").path();
            list_snapshots(&node).expect("a node dir lists").len()
        })
        .sum()
}

#[test]
fn faulted_churn_run_migrates_and_leaves_node_snapshots() {
    let dir = std::env::temp_dir().join(format!("copart-cli-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (trace, tickets, state) = (
        dir.join("fleet.jsonl"),
        dir.join("tickets.jsonl"),
        dir.join("state"),
    );
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = copart(&[
        "fleet-run",
        "--nodes",
        "8",
        "--apps",
        "60",
        "--seed",
        "1001",
        "--epochs",
        "24",
        "--faults",
        "seed=5,dropout=1/61,write=0.01,nodes=every/3",
        // Aggressive rebalancing, so the run covers the migration path.
        "--rebalance-threshold",
        "0.005",
        "--rebalance-patience",
        "1",
        "--trace-out",
        trace.to_str().unwrap(),
        "--tickets-out",
        tickets.to_str().unwrap(),
        "--state-dir",
        state.to_str().unwrap(),
        "--metrics",
    ]);
    assert!(report.contains("node snapshots in"), "{report}");
    assert!(report.contains("\"migrations\""), "no metrics: {report}");

    let check = copart(&[
        "trace-check",
        "--fleet",
        "--path",
        trace.to_str().unwrap(),
        "--min-events",
        "10",
    ]);
    assert!(check.contains(": OK — "), "{check}");

    let text = std::fs::read_to_string(&trace).expect("the trace was written");
    assert!(
        text.contains(r#""kind":"migration""#),
        "no migration events — the run covered nothing"
    );
    let trail = std::fs::metadata(&tickets).expect("the tickets were written");
    assert!(trail.len() > 0, "migrations happened but left no ticket");
    assert!(snapshots(&state) > 0, "the state dir holds no snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}
