//! The traced `node_persist`: the persisted run over a decorated
//! simulator and a decorated JSONL sink, a kill, recovery and replay,
//! and the codec and store functions alone.

use crate::cx::{durations, durations_in_epochs, Cx};
use crate::node;
use crate::timing::{once_ns, per_call_ns};
use crate::trace::{SpanBackend, SpanRecorder};
use bench_harness::stats::{self, percentile};
use copart_core::policies::PolicyKind;
use copart_core::runtime::ConsolidationRuntime;
use copart_core::{profile_with_retries, NodeBackend};
use copart_persist::{
    latest_good, read_snapshot, write_snapshot, BackendSnapshot, EventKind, EventLog, LogEntry,
    PersistableBackend, SnapshotDoc,
};
use copart_rdt::SimBackend;
use copart_serve::{
    recover_sim, resume_trace_file, PersistConfig, PersistedRun, Scenario, ScenarioEnv,
};
use copart_telemetry::{Json, JsonlRecorder};
use copart_workloads::MixKind;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The scenario `sim-run --mix h-both --apps 4 --state-dir … --seed S`
/// builds.
pub fn scenario(seed: u64) -> Scenario {
    Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, seed, None)
        .expect("a 4-app CoPart scenario is valid")
}

/// The scenario's runtime over any backend built from its simulator.
pub fn build<B: NodeBackend>(
    scenario: &Scenario,
    env: &ScenarioEnv,
    wrap: impl FnOnce(SimBackend) -> B,
) -> ConsolidationRuntime<B> {
    let (backend, named) = node::boot(&env.machine, &scenario.specs(env));
    ConsolidationRuntime::new(
        wrap(backend),
        named,
        env.runtime_config(scenario.n_apps, scenario.policy),
    )
    .expect("the equal split applies")
}

/// The snapshot cadence of the workload's shape.
const SNAPSHOT_EVERY: u64 = 8;

/// The persisted loop, the kill and recovery, and the function drives.
pub fn node_persist(cx: &mut Cx) {
    let epochs: u64 = if cx.quick { 64 } else { 800 };
    // The kill lands mid-cadence so recovery has a log tail to replay.
    let tail = SNAPSHOT_EVERY - 1;
    let scenario = scenario(cx.seed);
    let env = scenario.env();
    let state_dir = cx.scratch.join("state");
    let trace_path = cx.scratch.join("trace.jsonl");
    std::fs::create_dir_all(&cx.scratch).expect("scratch directory is writable");
    let log = cx.log.clone();

    let mut rt = build(&scenario, &env, |b| SpanBackend::new(b, log.clone()));
    let sink = JsonlRecorder::create(&trace_path).expect("trace file is writable");
    rt.set_recorder(Box::new(SpanRecorder::new(sink, log.clone())));
    profile_with_retries(&mut rt, 1).expect("simulator profiling cannot fail");
    let metrics = rt.metrics_handle();
    let mut run = PersistedRun::new(rt, env.clone());
    run.enable_persistence(PersistConfig {
        dir: state_dir.clone(),
        snapshot_every: SNAPSHOT_EVERY,
    })
    .expect("state directory is writable");

    let (mut plain, mut with_snapshot) = (Vec::new(), Vec::new());
    for e in 0..epochs + tail {
        log.set_epoch(e);
        let cut_before = metrics.counter("snapshots_written");
        let t = Instant::now();
        log.time("epoch", || run.run_epoch())
            .expect("the simulator cannot fail to advance");
        let ns = t.elapsed().as_nanos() as f64;
        if metrics.counter("snapshots_written") > cut_before {
            with_snapshot.push(ns);
        } else {
            plain.push(ns);
        }
    }
    run.flush_trace().expect("trace file is writable");
    // Simulated SIGKILL: no final snapshot, the run is just gone.
    drop(run);
    let spans = log.take();

    cx.put_opt("persist.plain_epoch_ns", stats::median(&plain), plain.len());
    cx.put_opt(
        "persist.snapshot_epoch_ns",
        stats::median(&with_snapshot),
        with_snapshot.len(),
    );
    let epoch_ns = durations(&spans, "epoch");
    let n = epoch_ns.len();
    // 807 epochs carry a median, not a p99.
    cx.put_opt("core.epoch_ns_p50", percentile(&epoch_ns, 50.0), n);
    let advance = durations_in_epochs(&spans, "sim.advance");
    cx.put_opt("sim.advance_ns", stats::median(&advance), advance.len());
    let epoch_total: f64 = epoch_ns.iter().sum();
    cx.put(
        "sim.advance_share",
        advance.iter().sum::<f64>() / epoch_total,
        n,
    );
    let records = durations(&spans, "telemetry.record");
    cx.put_opt(
        "telemetry.record_ns",
        stats::median(&records),
        records.len(),
    );
    let captures = durations(&spans, "sim.capture");
    cx.put_opt("sim.capture_ns", stats::median(&captures), captures.len());
    let trace = std::fs::read_to_string(&trace_path).unwrap_or_default();
    cx.put(
        "telemetry.trace_bytes_per_epoch",
        trace.len() as f64 / trace.lines().count().max(1) as f64,
        trace.lines().count(),
    );
    cx.absorb(spans);

    // The same loop with nothing persisted and nothing recorded: what is
    // left of the epoch when persistence is taken away.
    let mut bare = PersistedRun::new(
        {
            let mut rt = build(&scenario, &env, |b| b);
            profile_with_retries(&mut rt, 1).expect("simulator profiling cannot fail");
            rt
        },
        env.clone(),
    );
    let bare_epochs = epochs / 4;
    let (bare_ns, _) = once_ns(|| {
        (0..bare_epochs).for_each(|_| {
            bare.run_epoch()
                .expect("the simulator cannot fail to advance")
        })
    });
    let persisted_mean = epoch_total / n as f64;
    cx.put(
        "persist.share",
        1.0 - (bare_ns / bare_epochs as f64) / persisted_mean,
        n,
    );

    // Recovery, as `--resume` performs it: restore the newest snapshot,
    // reopen the trace below it, replay the log tail (which ends by
    // cutting a fresh snapshot).
    let (recover_ns, recovered) = once_ns(|| recover_sim(&scenario, &state_dir, SNAPSHOT_EVERY));
    let mut recovered = recovered
        .expect("the state directory restores")
        .expect("the state directory holds a snapshot");
    cx.put("persist.recover_ns", recover_ns, 1);
    let sink =
        resume_trace_file(&trace_path, recovered.snapshot_epoch()).expect("trace file reopens");
    recovered.set_recorder(Box::new(sink));
    let done_at_snapshot = recovered.epochs_done();
    let (replay_ns, resumed) = once_ns(|| recovered.replay(true));
    let resumed = resumed.expect("the log tail replays");
    let replayed = resumed.epochs_done() - done_at_snapshot;
    cx.report.check(replayed == tail, || {
        format!("replay covered {replayed} epochs, the kill left {tail}")
    });
    cx.put(
        "persist.replay_ns_per_epoch",
        replay_ns / replayed.max(1) as f64,
        replayed as usize,
    );
    drop(resumed);

    function_drives(cx, &scenario, &env, &state_dir);
}

/// `SnapshotDoc::encode`/`decode`, the store, the event log, the `Json`
/// codec under them, and backend restore — each alone, on the snapshot
/// the run above left behind.
fn function_drives(
    cx: &mut Cx,
    scenario: &Scenario,
    env: &ScenarioEnv,
    state_dir: &std::path::Path,
) {
    let budget = Duration::from_millis(if cx.quick { 30 } else { 150 });
    let (doc, path) = latest_good(state_dir)
        .expect("the state directory lists")
        .expect("the state directory holds a snapshot");
    let drive_dir = cx.scratch.join("drive");

    let (ns, batches) = per_call_ns(budget, || {
        black_box(doc.encode());
    });
    cx.put("persist.encode_ns", ns, batches);
    let encoded = doc.encode();
    let (ns, batches) = per_call_ns(budget, || {
        black_box(SnapshotDoc::decode(&encoded).expect("an encoded snapshot decodes"));
    });
    cx.put("persist.decode_ns", ns, batches);

    let text = encoded.to_string();
    let kb = text.len() as f64 / 1024.0;
    let (ns, batches) = per_call_ns(budget, || {
        black_box(encoded.to_string());
    });
    cx.put("telemetry.json_render_ns_per_kb", ns / kb, batches);
    let (ns, batches) = per_call_ns(budget, || {
        black_box(Json::parse(&text).expect("rendered JSON parses"));
    });
    cx.put("telemetry.json_parse_ns_per_kb", ns / kb, batches);

    let mut bytes = 0;
    let (ns, batches) = per_call_ns(budget, || {
        bytes = write_snapshot(&drive_dir, &doc)
            .expect("drive directory is writable")
            .1;
    });
    cx.put("persist.write_snapshot_ns", ns, batches);
    cx.put("persist.snapshot_bytes", bytes as f64, 1);
    let (ns, batches) = per_call_ns(budget, || {
        black_box(read_snapshot(&path).expect("the snapshot reads back"));
    });
    cx.put("persist.read_snapshot_ns", ns, batches);

    let mut event_log = EventLog::create(&drive_dir, 0).expect("drive directory is writable");
    let mut pre = 0;
    let (ns, batches) = per_call_ns(budget, || {
        pre += 1;
        event_log
            .append(&LogEntry {
                pre,
                kind: EventKind::Epoch,
            })
            .expect("event log appends");
    });
    cx.put("persist.log_append_ns", ns, batches);

    let mut rt = build(scenario, env, |b| b);
    let (ns, batches) = per_call_ns(budget, || {
        rt.backend_mut()
            .restore_from(&doc.backend)
            .expect("the backend restores its own snapshot");
    });
    cx.put("sim.restore_ns", ns, batches);
    let lines = match &doc.backend {
        BackendSnapshot::Sim { machine, .. } | BackendSnapshot::Faulty { machine, .. } => {
            machine.cache.lines.len()
        }
    };
    cx.put("sim.snapshot_cache_lines", lines as f64, 1);
}
