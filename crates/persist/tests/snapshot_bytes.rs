//! Byte digests of whole state directories: every file a persisted run
//! leaves behind — snapshots, event logs, the decision trace — hashed
//! with FNV-1a and compared to a pinned constant. The snapshot payload
//! is streamed straight into the file with no `Json` tree in between, so
//! this is the witness that the streamed bytes are the bytes the tree
//! renderer used to produce: the constants were generated at the commit
//! before the streaming writer existed and are unchanged by it.
//!
//! Each case runs 40 epochs with a snapshot every 8, is killed dead at
//! epoch 20 and resumed, so the digests cover the fresh path, the
//! recovery path (`recoveries` = 1 in the frozen metrics, a rewritten
//! trace prefix) and pruning.
//!
//! Bless an intentional format change with `UPDATE_SNAPSHOT_DIGESTS=1
//! cargo test -p copart-persist --test snapshot_bytes -- --nocapture` and
//! paste the printed table over `PINNED`.

use copart_core::policies::PolicyKind;
use copart_faults::FaultPlan;
use copart_persist::{harness_run, Scenario};
use copart_telemetry::fnv1a64;
use copart_workloads::MixKind;
use std::fs;
use std::path::PathBuf;

const EPOCHS: u64 = 40;
const SNAPSHOT_EVERY: u64 = 8;
const KILL_AT: u64 = 20;

/// `(case, file, digest)` — generated at the commit before the streaming
/// snapshot writer, except the two `lfoc/h-llc` snapshots: re-blessed
/// when `cluster_replans` and `clusters` became restorable, so the
/// resumed run's snapshots carry them as the uninterrupted run's do.
const PINNED: &[(&str, &str, u64)] = &[
    (
        "copart/h-both",
        "log-00000000000000000040.jsonl",
        0x6625ea42bae530dd,
    ),
    (
        "copart/h-both",
        "log-00000000000000000044.jsonl",
        0xcbf29ce484222325,
    ),
    (
        "copart/h-both",
        "snap-00000000000000000040.json",
        0x198ac9abf4d1b914,
    ),
    (
        "copart/h-both",
        "snap-00000000000000000044.json",
        0x97befc6cfe188576,
    ),
    ("copart/h-both", "trace.jsonl", 0x8001d99412d3301b),
    (
        "lfoc/h-llc",
        "log-00000000000000000040.jsonl",
        0x6625ea42bae530dd,
    ),
    (
        "lfoc/h-llc",
        "log-00000000000000000044.jsonl",
        0xcbf29ce484222325,
    ),
    (
        "lfoc/h-llc",
        "snap-00000000000000000040.json",
        0x859fc466da4bccfb,
    ),
    (
        "lfoc/h-llc",
        "snap-00000000000000000044.json",
        0xb4a1150e3f15a79e,
    ),
    ("lfoc/h-llc", "trace.jsonl", 0x872e325e6e8f6b39),
    (
        "mba-only/h-both/faulted",
        "log-00000000000000000040.jsonl",
        0x6625ea42bae530dd,
    ),
    (
        "mba-only/h-both/faulted",
        "log-00000000000000000044.jsonl",
        0xcbf29ce484222325,
    ),
    (
        "mba-only/h-both/faulted",
        "snap-00000000000000000040.json",
        0x9b104400b4d34cbf,
    ),
    (
        "mba-only/h-both/faulted",
        "snap-00000000000000000044.json",
        0xc74c13276a387ac1,
    ),
    ("mba-only/h-both/faulted", "trace.jsonl", 0xf0000e9fa0214103),
];

fn cases() -> Vec<(&'static str, Scenario)> {
    let faults = FaultPlan::parse("seed=7,write=0.1,dropout=0.05").expect("a valid fault spec");
    vec![
        (
            "copart/h-both",
            Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None).unwrap(),
        ),
        (
            "lfoc/h-llc",
            Scenario::new(MixKind::HighLlc, 4, PolicyKind::LfocCluster, 42, None).unwrap(),
        ),
        (
            "mba-only/h-both/faulted",
            Scenario::new(MixKind::HighBoth, 4, PolicyKind::MbaOnly, 42, Some(faults)).unwrap(),
        ),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copart-snapbytes-{}-{}",
        std::process::id(),
        tag.replace('/', "-")
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

/// Runs one case killed at [`KILL_AT`] and resumed, and digests every
/// file in its state directory (the trace lives there too), by name.
fn digests(case: &'static str, scenario: &Scenario) -> Vec<(&'static str, String, u64)> {
    let dir = scratch(case);
    let trace = dir.join("trace.jsonl");
    let killed = harness_run(
        scenario,
        EPOCHS,
        Some(KILL_AT),
        &dir,
        SNAPSHOT_EVERY,
        &trace,
        false,
        &[],
    )
    .expect("the killed leg runs");
    assert!(killed.killed, "{case}: the first leg stops at the kill");
    let done = harness_run(
        scenario,
        EPOCHS,
        None,
        &dir,
        SNAPSHOT_EVERY,
        &trace,
        true,
        &[],
    )
    .expect("the resumed leg runs");
    assert_eq!(done.epochs_done, EPOCHS, "{case}");

    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("listing the state directory")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let out = names
        .into_iter()
        .map(|name| {
            let bytes = fs::read(dir.join(&name)).expect("reading a state file");
            (case, name, fnv1a64(&bytes))
        })
        .collect();
    fs::remove_dir_all(&dir).expect("removing scratch dir");
    out
}

#[test]
fn state_directories_reproduce_their_pinned_bytes() {
    let bless = std::env::var("UPDATE_SNAPSHOT_DIGESTS").is_ok_and(|v| !v.is_empty() && v != "0");
    let got: Vec<(&str, String, u64)> = cases()
        .iter()
        .flat_map(|(case, scenario)| digests(case, scenario))
        .collect();
    if bless {
        for (case, file, digest) in &got {
            println!("    (\"{case}\", \"{file}\", {digest:#018x}),");
        }
        return;
    }
    let got: Vec<(&str, &str, u64)> = got.iter().map(|(c, f, d)| (*c, f.as_str(), *d)).collect();
    assert_eq!(
        got, PINNED,
        "a state directory's bytes changed (intentional? bless with UPDATE_SNAPSHOT_DIGESTS=1)"
    );
}
