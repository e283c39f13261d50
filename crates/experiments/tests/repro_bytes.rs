//! Byte witnesses for the `repro` evaluation grid: `fig12`'s table and
//! its seven CoPart decision traces (the `PolicyKind` column shape, with
//! the per-cell trace hook; each trace also holds the trace invariants
//! of `copart_telemetry::check_trace`), `fig4`'s table (the
//! unpartitioned baseline and the batch of fixed states behind the
//! heatmaps), `ablate-retry`'s table (the `CoPartParams` column shape),
//! `compare-utility`'s table (the one column that plans from offline
//! miss-ratio curves) and `compare-engines`' table (every engine over
//! every compare scenario, EQ-normalized), at smoke length on two
//! workers. An FNV-1a over each output must equal the pinned constant.
//!
//! Pinned at the commit before the grid runner moved into the library
//! and unchanged by it; `compare-utility` was pinned before its curves
//! became checked-in data and is unchanged by that; `fig4` was pinned
//! before policy dispatch became one `PolicyKind` table and is unchanged
//! by that. Bless an intentional
//! change with
//! `UPDATE_REPRO_DIGESTS=1 cargo test -p copart-experiments --test
//! repro_bytes -- --nocapture` and paste the printed rows over the
//! constants.

use std::path::Path;
use std::process::Command;

use copart_telemetry::{check_trace, fnv1a64, parse_trace};

const FIG12_STDOUT: u64 = 0xbde4bfec460afe91;
const FIG4_STDOUT: u64 = 0x9e45996e0c61f9ad;
const ABLATE_RETRY_STDOUT: u64 = 0x6edacda1ec2d2edc;
const COMPARE_UTILITY_STDOUT: u64 = 0xded482236e16145e;
const COMPARE_ENGINES_STDOUT: u64 = 0x536ad51e694cf57e;
const FIG12_TRACES: &[(&str, u64)] = &[
    ("h-llc", 0x55ba361c6a4df86e),
    ("h-bw", 0x48c16e9626b3530e),
    ("h-both", 0xec7ae2a0ae1d866d),
    ("m-llc", 0x606e4e43666c5fe0),
    ("m-bw", 0xbf6105e2cf92e6d1),
    ("m-both", 0x2ea90b6c4d0941a2),
    ("is", 0x57e3e1f269fcb196),
];

fn bless() -> bool {
    std::env::var("UPDATE_REPRO_DIGESTS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Runs `repro --jobs 2 <cmd>` at smoke length with traces under
/// `trace_dir`, returning its stdout.
fn repro(cmd: &str, trace_dir: &Path) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--jobs", "2", cmd])
        .env("REPRO_FAST", "1")
        .env("REPRO_TRACE_DIR", trace_dir)
        .env_remove("REPRO_CSV_DIR")
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro {cmd} failed: {out:?}");
    out.stdout
}

fn check(what: &str, bytes: &[u8], pinned: u64) {
    let got = fnv1a64(bytes);
    if bless() {
        println!("{what}: {got:#018x}");
    } else {
        assert_eq!(
            got, pinned,
            "{what} changed (intentional? bless with UPDATE_REPRO_DIGESTS=1)"
        );
    }
}

#[test]
fn fig12_table_and_traces_are_pinned() {
    let dir = std::env::temp_dir().join(format!("copart-repro-fig12-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = repro("fig12", &dir);
    check("fig12 stdout", &stdout, FIG12_STDOUT);
    for &(mix, pinned) in FIG12_TRACES {
        let path = dir.join(format!("fig12_{mix}.jsonl"));
        let bytes = std::fs::read(&path).expect("fig12 writes one trace per mix");
        check(&format!("fig12_{mix}.jsonl"), &bytes, pinned);
        let events = parse_trace(&bytes[..]).expect("the trace parses");
        check_trace(&events).unwrap_or_else(|e| panic!("fig12_{mix}.jsonl: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig4_table_is_pinned() {
    let dir = std::env::temp_dir().join(format!("copart-repro-fig4-{}", std::process::id()));
    let stdout = repro("fig4", &dir);
    check("fig4 stdout", &stdout, FIG4_STDOUT);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ablate_retry_table_is_pinned() {
    let dir = std::env::temp_dir().join(format!("copart-repro-retry-{}", std::process::id()));
    let stdout = repro("ablate-retry", &dir);
    check("ablate-retry stdout", &stdout, ABLATE_RETRY_STDOUT);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_utility_table_is_pinned() {
    let dir = std::env::temp_dir().join(format!("copart-repro-utility-{}", std::process::id()));
    let stdout = repro("compare-utility", &dir);
    check("compare-utility stdout", &stdout, COMPARE_UTILITY_STDOUT);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_engines_table_is_pinned() {
    let dir = std::env::temp_dir().join(format!("copart-repro-engines-{}", std::process::id()));
    let stdout = repro("compare-engines", &dir);
    check("compare-engines stdout", &stdout, COMPARE_ENGINES_STDOUT);
    let _ = std::fs::remove_dir_all(&dir);
}
