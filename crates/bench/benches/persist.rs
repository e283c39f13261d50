//! What crash safety costs: one snapshot cut stage by stage, a recovery
//! read, an event-log append, and a trace record — on the document and
//! trace a persisted 4-app H-Both run leaves behind.
//!
//! The numbers land in `BENCH_persist.json`, gated against its baseline
//! (see `copart_bench::artifact`). What the same operations allocate and
//! the snapshot's size are exact, so tier-1 `tests/persist_alloc.rs`
//! holds them. The two sub-microsecond timings (`log_append_ns`,
//! `trace_record_ns`) are the fastest of several `bench` runs: one run's
//! mean swings by up to 1.7× between consecutive runs on a shared host.

use std::hint::black_box;
use std::path::Path;

use copart_bench::{bench, Artifact};
use copart_core::policies::PolicyKind;
use copart_persist::{
    harness_run, latest_good, read_snapshot, write_snapshot, EventKind, EventLog, LogEntry,
    Scenario, SnapshotDoc,
};
use copart_telemetry::{read_trace_file, JsonWriter, JsonlRecorder, Recorder, TraceEvent};
use copart_workloads::MixKind;

/// Runs of `bench` the sub-microsecond timings take the minimum over.
const REPEATS: usize = 5;

/// The fastest mean of [`REPEATS`] `bench` runs of `f`, in ns.
fn fastest_of_runs(label: &str, mut f: impl FnMut()) -> f64 {
    (0..REPEATS)
        .map(|_| bench(label, &mut f).mean_ns)
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("copart-bench-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (doc, event) = persisted_run(&dir.join("state"));

    let mut art = Artifact::new("copart-bench-persist/v1");
    snapshot_stages(&dir.join("drive"), &doc, &mut art);
    log_and_trace(&dir.join("drive"), &event, &mut art);
    art.write("persist", env!("CARGO_TARGET_TMPDIR"));
    std::fs::remove_dir_all(&dir).expect("scratch directory is removable");
}

/// Runs `sim-run --mix h-both --apps 4 --state-dir …` for 24 epochs and
/// returns its final snapshot document and last trace event.
fn persisted_run(state_dir: &Path) -> (SnapshotDoc, TraceEvent) {
    let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None)
        .expect("a 4-app CoPart scenario is valid");
    let trace = state_dir.join("trace.jsonl");
    std::fs::create_dir_all(state_dir).expect("scratch directory is writable");
    harness_run(&scenario, 24, None, state_dir, 8, &trace, false, &[])
        .expect("the persisted run completes");
    let (doc, _) = latest_good(state_dir)
        .expect("the state directory lists")
        .expect("a completed run leaves a final snapshot");
    let event = read_trace_file(&trace)
        .expect("the trace parses")
        .pop()
        .expect("the trace holds events");
    (doc, event)
}

fn snapshot_stages(drive: &Path, doc: &SnapshotDoc, art: &mut Artifact) {
    println!("snapshot (4-app H-Both document)");
    // The encode the store performs: the document streamed as text into
    // a buffer that is already large enough.
    let mut text = String::new();
    let t = bench("snapshot/encode_streamed", || {
        text.clear();
        doc.emit(&mut JsonWriter::new(&mut text));
        black_box(text.len());
    });
    art.num("snapshot_encode_ns", t.mean_ns);

    let tree = doc.encode();
    let kb = text.len() as f64 / 1024.0;
    let t = bench("snapshot/render_tree", || {
        black_box(tree.to_string());
    });
    println!("{:<44} {:>14.1} ns/KB", "", t.mean_ns / kb);
    art.num("json_render_ns_per_kb", t.mean_ns / kb);

    let t = bench("snapshot/write_snapshot", || {
        write_snapshot(drive, doc).expect("drive directory is writable");
    });
    art.num("write_snapshot_ns", t.mean_ns);

    let path = copart_persist::store::snapshot_path(drive, doc.epoch());
    let t = bench("snapshot/read_snapshot", || {
        black_box(read_snapshot(&path).expect("the snapshot reads back"));
    });
    art.num("read_snapshot_ns", t.mean_ns);
}

fn log_and_trace(drive: &Path, event: &TraceEvent, art: &mut Artifact) {
    println!("\nevent log and trace");
    let mut log = EventLog::create(drive, 0).expect("drive directory is writable");
    let mut pre = 0;
    let ns = fastest_of_runs("event_log/append", || {
        pre += 1;
        log.append(&LogEntry {
            pre,
            kind: EventKind::Epoch,
        })
        .expect("event log appends");
    });
    art.num("log_append_ns", ns);

    let mut sink = JsonlRecorder::new(std::io::sink());
    let ns = fastest_of_runs("trace/record", || sink.record(black_box(event)));
    art.num("trace_record_ns", ns);
}
