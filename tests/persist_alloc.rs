//! The exact persistence gates: a snapshot is streamed into one buffer
//! and read back by pulling members straight from the text, so writing
//! and reading one take a fixed number of heap allocations, and the
//! document a short persisted run leaves is a fixed number of bytes. The
//! `persist` bench reports the same three values as
//! `allocs_per_snapshot`, `allocs_per_read_snapshot` and
//! `snapshot_bytes`; this holds them exactly in the tier-1 suite.

#[path = "../crates/bench/benches/support/counting_alloc.rs"]
mod counting_alloc;

use std::fs;

use copart_core::policies::PolicyKind;
use copart_persist::{harness_run, latest_good, read_snapshot, write_snapshot, Scenario};
use copart_workloads::MixKind;

/// Heap allocations `f` makes.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = counting_alloc::allocs();
    let out = f();
    (counting_alloc::allocs() - before, out)
}

/// One test, so nothing else in this binary allocates while it counts
/// (the counter is process-wide). The persisted run's writer threads
/// have all been joined when `harness_run` returns.
#[test]
fn snapshot_write_and_read_allocate_exactly() {
    let dir = std::env::temp_dir().join(format!("copart-persist-alloc-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let state = dir.join("state");
    fs::create_dir_all(&state).expect("scratch directory is writable");
    let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None)
        .expect("a 4-app CoPart scenario is valid");
    harness_run(
        &scenario,
        24,
        None,
        &state,
        8,
        &state.join("trace.jsonl"),
        false,
        &[],
    )
    .expect("the persisted run completes");
    let (doc, _) = latest_good(&state)
        .expect("the state directory lists")
        .expect("a completed run leaves a final snapshot");

    let drive = dir.join("drive");
    // The first write sizes the payload buffer for the ones after it.
    let (_, bytes) = write_snapshot(&drive, &doc).expect("drive directory is writable");
    assert_eq!(bytes, 588_483, "snapshot_bytes");
    let (writes, (path, _)) =
        allocations(|| write_snapshot(&drive, &doc).expect("drive directory is writable"));
    assert_eq!(writes, 10, "allocs_per_snapshot");
    let (reads, back) = allocations(|| read_snapshot(&path).expect("the snapshot reads back"));
    assert_eq!(reads, 62, "allocs_per_read_snapshot");
    assert_eq!(back, doc);
    fs::remove_dir_all(&dir).expect("scratch directory is removable");
}
