//! The fleet determinism contract: one configuration, one byte stream —
//! regardless of how many workers drive the node phase.
//!
//! Everything cross-node is decided serially; the parallel phase only
//! steps disjoint per-node state and reassembles in node-id order. These
//! tests pin that down by running the same fleet at `--jobs 1` and
//! `--jobs 8` inside one process and comparing every output byte:
//! trace, metrics document, migration tickets, and each node's
//! `--state-dir` snapshot. The bytes of the first three are pinned too,
//! as FNV-1a digests of each output.
//!
//! Bless an intentional change with `UPDATE_FLEET_DIGESTS=1 cargo test -p
//! copart-fleet --test fleet_determinism -- --nocapture` and paste the
//! printed table over `PINNED`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use copart_fleet::{check_fleet_trace, run_fleet, FleetConfig, FleetOutcome};
use copart_telemetry::{fnv1a64, fnv1a64_update, FNV1A64_OFFSET};

/// `(run, output, digest)` — generated before the fleet encoders moved
/// onto the streaming writer, and unchanged by it.
const PINNED: &[(&str, &str, u64)] = &[
    ("clean", "trace", 0x156ddba14fd467b9),
    ("clean", "tickets", 0x7bdee8bea970567f),
    ("clean", "metrics_json", 0x6bab865eede22c85),
    ("faulted", "trace", 0xf5ea765ec1bf9ffa),
    ("faulted", "tickets", 0x87f11a28923735dc),
    ("faulted", "metrics_json", 0xa0cd89ced6955e3b),
];

/// The digest of each output: the trace and the metrics document as
/// written, the tickets as the newline-terminated `--tickets-out` file.
fn digests(run: &'static str, out: &FleetOutcome) -> [(&'static str, &'static str, u64); 3] {
    let tickets = out.tickets.iter().fold(FNV1A64_OFFSET, |hash, line| {
        fnv1a64_update(fnv1a64_update(hash, line.as_bytes()), b"\n")
    });
    [
        (run, "trace", fnv1a64(out.trace.as_bytes())),
        (run, "tickets", tickets),
        (run, "metrics_json", fnv1a64(out.metrics_json.as_bytes())),
    ]
}

/// One test drives both job counts: `set_jobs` is process-global, so
/// sequencing inside a single `#[test]` keeps the comparison honest.
#[test]
fn fleet_outputs_are_byte_identical_across_jobs() {
    let mut cfg = FleetConfig::new(6, 30, 97);
    cfg.horizon = 24;
    // Make rebalancing near-certain so the migration path is part of
    // what the comparison covers.
    cfg.rebalance.threshold = 0.005;
    cfg.rebalance.patience = 1;
    cfg.rebalance.cooldown = 2;

    copart_parallel::set_jobs(Some(1));
    let serial = run_fleet(&cfg).unwrap();
    copart_parallel::set_jobs(Some(8));
    let parallel = run_fleet(&cfg).unwrap();
    copart_parallel::set_jobs(None);

    assert_eq!(
        serial.trace, parallel.trace,
        "trace must not depend on jobs"
    );
    assert_eq!(serial.metrics_json, parallel.metrics_json);
    assert_eq!(serial.tickets, parallel.tickets);

    let stats = check_fleet_trace(&serial.trace).unwrap();
    assert_eq!(stats.epochs, 24);
    assert!(stats.placements > 0);
    assert!(
        stats.migrations > 0,
        "the comparison must cover the migration path"
    );
    let mut got = digests("clean", &serial).to_vec();

    // The faulted variant must hold the same contract: per-node fault
    // streams are seeded by node id, never by worker interleaving.
    let mut faulted = cfg.clone();
    faulted.faults = Some(
        copart_faults::ScopedFaultPlan::parse("seed=5,dropout=1/41,write=0.02,nodes=every/2")
            .unwrap(),
    );
    copart_parallel::set_jobs(Some(1));
    let serial = run_fleet(&faulted).unwrap();
    copart_parallel::set_jobs(Some(8));
    let parallel = run_fleet(&faulted).unwrap();
    copart_parallel::set_jobs(None);
    assert_eq!(serial.trace, parallel.trace, "faulted trace must match too");
    assert_eq!(serial.metrics_json, parallel.metrics_json);
    assert_eq!(serial.tickets, parallel.tickets);
    check_fleet_trace(&serial.trace).unwrap();
    got.extend(digests("faulted", &serial));

    // The wide fleet — many more nodes than tenants per node — with every
    // live node's snapshot written under `--state-dir`: the snapshots are
    // byte-identical at both job counts too.
    let scratch = std::env::temp_dir().join(format!("copart-fleet-wide-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let wide = |jobs: usize| {
        let mut cfg = FleetConfig::new(128, 80, 77);
        cfg.horizon = 8;
        let state = scratch.join(format!("state-j{jobs}"));
        std::fs::create_dir_all(&state).unwrap();
        cfg.state_dir = Some(state.clone());
        copart_parallel::set_jobs(Some(jobs));
        let out = run_fleet(&cfg).unwrap();
        copart_parallel::set_jobs(None);
        let mut files = BTreeMap::new();
        tree(&state, &state, &mut files);
        (out, files)
    };
    let (serial, serial_files) = wide(1);
    let (parallel, parallel_files) = wide(8);
    assert_eq!(serial.trace, parallel.trace);
    assert_eq!(serial.metrics_json, parallel.metrics_json);
    assert_eq!(serial.tickets, parallel.tickets);
    check_fleet_trace(&serial.trace).unwrap();

    assert!(
        serial.snapshots_written > 0,
        "the wide fleet wrote no snapshot"
    );
    assert_eq!(serial_files.len() as u64, serial.snapshots_written);
    assert!(
        serial_files == parallel_files,
        "node snapshots differ between --jobs 1 and --jobs 8"
    );
    let _ = std::fs::remove_dir_all(&scratch);

    if std::env::var("UPDATE_FLEET_DIGESTS").is_ok_and(|v| !v.is_empty() && v != "0") {
        for (run, output, digest) in &got {
            println!("    (\"{run}\", \"{output}\", {digest:#018x}),");
        }
        return;
    }
    assert_eq!(
        got, PINNED,
        "a fleet output's bytes changed (intentional? bless with UPDATE_FLEET_DIGESTS=1)"
    );
}

/// Every file under `dir`, by its path relative to `root`, with its bytes.
fn tree(root: &Path, dir: &Path, files: &mut BTreeMap<PathBuf, Vec<u8>>) {
    for entry in std::fs::read_dir(dir).expect("the state dir lists") {
        let path = entry.expect("an entry reads").path();
        if path.is_dir() {
            tree(root, &path, files);
        } else {
            let bytes = std::fs::read(&path).expect("a snapshot reads");
            files.insert(path.strip_prefix(root).unwrap().to_path_buf(), bytes);
        }
    }
}
