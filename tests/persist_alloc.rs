//! The exact persistence gates: a snapshot is streamed into one buffer
//! and read back by pulling members straight from the text, so writing
//! and reading one take a fixed number of heap allocations, and the
//! document a short persisted run leaves is a fixed number of bytes. A
//! trace record renders into a buffer the recorder keeps, so once warm
//! it allocates nothing. The `persist` bench times the same operations.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::fs;

use copart_core::policies::PolicyKind;
use copart_persist::{harness_run, latest_good, read_snapshot, write_snapshot, Scenario};
use copart_telemetry::{read_trace_file, JsonlRecorder, Recorder};
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
    let trace = state.join("trace.jsonl");
    harness_run(&scenario, 24, None, &state, 8, &trace, false, &[])
        .expect("the persisted run completes");
    let (doc, _) = latest_good(&state)
        .expect("the state directory lists")
        .expect("a completed run leaves a final snapshot");

    let drive = dir.join("drive");
    // The first write sizes the payload buffer for the ones after it.
    let (_, bytes) = write_snapshot(&drive, &doc).expect("drive directory is writable");
    assert_eq!(bytes, 122_794, "snapshot bytes");
    let (writes, (path, _)) =
        allocations(|| write_snapshot(&drive, &doc).expect("drive directory is writable"));
    assert_eq!(writes, 10, "allocations in one snapshot write");
    let (reads, back) = allocations(|| read_snapshot(&path).expect("the snapshot reads back"));
    assert_eq!(reads, 51, "allocations in one snapshot read");
    assert_eq!(back, doc);

    let event = read_trace_file(&trace)
        .expect("the trace parses")
        .pop()
        .expect("the trace holds events");
    let mut sink = JsonlRecorder::new(std::io::sink());
    sink.record(&event);
    let (records, ()) = allocations(|| (0..1000).for_each(|_| sink.record(&event)));
    assert_eq!(records, 0, "allocations in 1000 warm trace records");
    fs::remove_dir_all(&dir).expect("scratch directory is removable");
}
