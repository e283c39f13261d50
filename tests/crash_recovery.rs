//! Kill-at-epoch-K crash recovery: the headline test for the
//! epoch-snapshot + event-log persistence layer.
//!
//! The contract under test (DESIGN.md §16): a run killed dead at *any*
//! epoch and resumed from its state directory finishes **byte-identical**
//! to a run that never died — same decision-trace bytes, same final
//! snapshot document, same metrics (modulo the wall-clock histograms and
//! the persistence bookkeeping series, which describe the process, not
//! the run). The sweep kills at every epoch K of the run, for a clean
//! scenario, a churned one (admissions, removals, live policy switches),
//! and a fault-injected one.

use copart_core::policies::PolicyKind;
use copart_faults::{FaultPlan, FaultTrigger};
use copart_persist::store::list_snapshots;
use copart_persist::{
    harness_run, latest_good, recover_sim, resume_trace_file, ChurnOp, HarnessOutcome,
    PersistConfig, PersistedRun, Scenario, SnapshotDoc,
};
use copart_rdt::RdtBackend;
use copart_serve::loadgen;
use copart_serve::ServeConfig;
use copart_telemetry::{parse_trace, JsonlRecorder, MetricsSnapshot, NullRecorder};
use copart_workloads::MixKind;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests that flip the global parallelism knob.
static JOBS_LOCK: Mutex<()> = Mutex::new(());

fn fast() -> bool {
    std::env::var("REPRO_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A fresh scratch directory (removed by the caller when the test ends).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("copart-crashrec-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("creating scratch dir");
    dir
}

const EPOCHS: u64 = 12;
const SNAP_EVERY: u64 = 3;

fn clean_scenario() -> Scenario {
    Scenario::new(MixKind::HighBoth, 3, PolicyKind::CoPart, 11, None).unwrap()
}

/// Transient fault noise on every site except `vanish` (a vanished group
/// would make the scheduled churn operations seed-dependent).
fn noisy_plan() -> FaultPlan {
    FaultPlan {
        seed: 5,
        counter_dropout: FaultTrigger::Prob { p: 0.05 },
        write_cbm: FaultTrigger::Prob { p: 0.05 },
        write_mba: FaultTrigger::Prob { p: 0.05 },
        vanish: FaultTrigger::Never,
        clock_stall: FaultTrigger::Prob { p: 0.02 },
    }
}

fn faulty_scenario() -> Scenario {
    Scenario::new(
        MixKind::HighBoth,
        3,
        PolicyKind::CoPart,
        11,
        Some(noisy_plan()),
    )
    .unwrap()
}

/// Admissions, a removal, and policy switches spread across the run, so
/// kills land before, between, and after every kind of logged event.
/// Boot groups of a 3-app mix are 1–3; the epoch-3 admission lands on 4.
fn churn_schedule() -> Vec<(u64, ChurnOp)> {
    vec![
        (2, ChurnOp::Policy("cat-only".into())),
        (3, ChurnOp::Admit("SW".into())),
        (5, ChurnOp::Policy("copart".into())),
        (8, ChurnOp::Remove(2)),
        (10, ChurnOp::Admit("EP".into())),
    ]
}

/// Everything a finished run leaves behind that must be reproducible.
struct RunResidue {
    trace: Vec<u8>,
    snapshot: SnapshotDoc,
    outcome: HarnessOutcome,
}

fn residue(trace_path: &Path, state_dir: &Path, outcome: HarnessOutcome) -> RunResidue {
    let trace = fs::read(trace_path).expect("reading trace");
    let (snapshot, _) = latest_good(state_dir)
        .expect("scanning state dir")
        .expect("a completed run leaves a final snapshot");
    RunResidue {
        trace,
        snapshot,
        outcome,
    }
}

/// Counters that legitimately differ between a resumed and an
/// uninterrupted run: they count the *persistence process* itself.
const PROCESS_COUNTERS: &[&str] = &["snapshots_written", "recoveries"];
const PROCESS_GAUGES: &[&str] = &["snapshot_bytes"];

/// Counters and debug-formatted gauges, as comparable lists.
type MetricLists = (Vec<(&'static str, u64)>, Vec<(&'static str, String)>);

/// The run-describing metrics: counters and gauges minus the process
/// series, histograms dropped entirely (every histogram is wall-clock).
fn run_metrics(m: &MetricsSnapshot) -> MetricLists {
    let counters = m
        .counters
        .iter()
        .filter(|(name, _)| !PROCESS_COUNTERS.contains(name))
        .copied()
        .collect();
    let gauges = m
        .gauges
        .iter()
        .filter(|(name, _)| !PROCESS_GAUGES.contains(name))
        .map(|(name, v)| (*name, format!("{v:?}")))
        .collect();
    (counters, gauges)
}

fn assert_same_residue(reference: &RunResidue, resumed: &RunResidue, label: &str) {
    assert!(
        !reference.trace.is_empty(),
        "{label}: the reference run must trace"
    );
    assert_eq!(
        reference.trace, resumed.trace,
        "{label}: resumed trace must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        format!("{:?}", reference.snapshot.runtime),
        format!("{:?}", resumed.snapshot.runtime),
        "{label}: final runtime snapshots diverge"
    );
    assert_eq!(
        format!("{:?}", reference.snapshot.backend),
        format!("{:?}", resumed.snapshot.backend),
        "{label}: final backend snapshots diverge"
    );
    assert_eq!(
        format!("{:?}", reference.snapshot.meta),
        format!("{:?}", resumed.snapshot.meta),
        "{label}: final snapshot metadata diverges"
    );
    assert_eq!(
        reference.outcome.epochs_done, resumed.outcome.epochs_done,
        "{label}: epoch counts diverge"
    );
    assert_eq!(
        run_metrics(&reference.outcome.metrics),
        run_metrics(&resumed.outcome.metrics),
        "{label}: run metrics diverge"
    );
}

/// The uninterrupted run of a scenario, used as the expected value.
fn reference(scenario: &Scenario, schedule: &[(u64, ChurnOp)], tag: &str) -> RunResidue {
    let dir = scratch(tag);
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let outcome = harness_run(
        scenario, EPOCHS, None, &state, SNAP_EVERY, &trace, false, schedule,
    )
    .expect("reference run");
    assert!(!outcome.killed);
    let r = residue(&trace, &state, outcome);
    let _ = fs::remove_dir_all(&dir);
    r
}

/// Kill at epoch `k`, resume, and return what the resumed run left.
fn kill_and_resume(
    scenario: &Scenario,
    schedule: &[(u64, ChurnOp)],
    k: u64,
    tag: &str,
) -> RunResidue {
    let dir = scratch(tag);
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let killed = harness_run(
        scenario,
        EPOCHS,
        Some(k),
        &state,
        SNAP_EVERY,
        &trace,
        false,
        schedule,
    )
    .expect("killed run");
    assert!(killed.killed, "kill at {k} should stop the run");
    assert_eq!(killed.epochs_done, k);
    let outcome = harness_run(
        scenario, EPOCHS, None, &state, SNAP_EVERY, &trace, true, schedule,
    )
    .expect("resumed run");
    assert!(!outcome.killed);
    let r = residue(&trace, &state, outcome);
    let _ = fs::remove_dir_all(&dir);
    r
}

fn sweep(scenario: &Scenario, schedule: &[(u64, ChurnOp)], tag: &str) {
    let expected = reference(scenario, schedule, &format!("{tag}-ref"));
    assert_eq!(expected.outcome.epochs_done, EPOCHS);
    let kills: Vec<u64> = if fast() {
        vec![0, 1, SNAP_EVERY, SNAP_EVERY + 1, 7, EPOCHS - 1]
    } else {
        (0..EPOCHS).collect()
    };
    for k in kills {
        let resumed = kill_and_resume(scenario, schedule, k, &format!("{tag}-k{k}"));
        assert_same_residue(&expected, &resumed, &format!("{tag} kill@{k}"));
        assert_eq!(
            resumed.outcome.metrics.counter("recoveries"),
            1,
            "{tag} kill@{k}: exactly one recovery"
        );
    }
}

#[test]
fn clean_run_survives_a_kill_at_every_epoch() {
    sweep(&clean_scenario(), &[], "clean");
}

#[test]
fn churned_run_survives_a_kill_at_every_epoch() {
    sweep(&clean_scenario(), &churn_schedule(), "churn");
}

#[test]
fn fault_injected_run_survives_a_kill_at_every_epoch() {
    sweep(&faulty_scenario(), &[], "faults");
}

#[test]
fn fault_injected_churned_run_survives_a_kill_at_every_epoch() {
    sweep(&faulty_scenario(), &churn_schedule(), "faults-churn");
}

/// Two kills in one run: the second incarnation is itself killed, so the
/// third recovers from a snapshot the *first recovery* wrote.
#[test]
fn double_kill_recovers_twice() {
    let scenario = clean_scenario();
    let schedule = churn_schedule();
    let expected = reference(&scenario, &schedule, "double-ref");
    let dir = scratch("double");
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let run = |kill_at: Option<u64>, resume: bool| {
        harness_run(
            &scenario, EPOCHS, kill_at, &state, SNAP_EVERY, &trace, resume, &schedule,
        )
        .expect("double-kill run")
    };
    assert!(run(Some(4), false).killed);
    assert!(run(Some(9), true).killed);
    let outcome = run(None, true);
    assert!(!outcome.killed);
    assert_eq!(outcome.metrics.counter("recoveries"), 2);
    let resumed = residue(&trace, &state, outcome);
    let _ = fs::remove_dir_all(&dir);
    assert_same_residue(&expected, &resumed, "double kill");
}

/// Resuming a state directory under the wrong scenario must be refused,
/// not silently continued.
#[test]
fn resume_rejects_a_foreign_state_directory() {
    let dir = scratch("foreign");
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let killed = harness_run(
        &clean_scenario(),
        EPOCHS,
        Some(4),
        &state,
        SNAP_EVERY,
        &trace,
        false,
        &[],
    )
    .expect("killed run");
    assert!(killed.killed);
    let other = Scenario::new(MixKind::HighBoth, 3, PolicyKind::CoPart, 12, None).unwrap();
    let err = harness_run(&other, EPOCHS, None, &state, SNAP_EVERY, &trace, true, &[])
        .expect_err("a different seed is a different run");
    assert!(
        err.contains("different run"),
        "unexpected error text: {err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot lands on a writer thread after the control thread has cut
/// it and rotated the event log onto it. A kill before the writer's
/// rename leaves the previous snapshot, the rotated log, and a torn temp
/// file — but no newest snapshot. Recovery must chain across the gap.
fn kill_mid_land_and_resume(scenario: &Scenario, tag: &str) -> RunResidue {
    let dir = scratch(tag);
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    // Just past the cadence cut at epoch 2 · SNAP_EVERY.
    let k = 2 * SNAP_EVERY + 1;
    let killed = harness_run(
        scenario,
        EPOCHS,
        Some(k),
        &state,
        SNAP_EVERY,
        &trace,
        false,
        &[],
    )
    .expect("killed run");
    assert!(killed.killed, "{tag}: kill at {k} should stop the run");
    let (epoch, newest) = list_snapshots(&state)
        .expect("listing the state dir")
        .pop()
        .expect("the killed run landed snapshots");
    let bytes = fs::read(&newest).expect("reading the newest snapshot");
    fs::remove_file(&newest).expect("removing the newest snapshot");
    let temp = state.join(format!(".snap-{epoch:020}.tmp"));
    fs::write(&temp, &bytes[..bytes.len() / 2]).expect("writing the torn temp file");
    assert!(
        copart_persist::log::log_path(&state, epoch).exists(),
        "{tag}: the rotated log outlives its snapshot"
    );
    // On a copy: replay chains through the orphaned log to the kill.
    let probe = dir.join("probe");
    fs::create_dir_all(&probe).expect("creating the probe dir");
    for entry in fs::read_dir(&state).expect("listing the state dir") {
        let path = entry.expect("listing the state dir").path();
        if path.is_file() {
            fs::copy(&path, probe.join(path.file_name().unwrap())).expect("copying");
        }
    }
    fs::copy(&trace, probe.join("trace.jsonl")).expect("copying the trace");
    let mut rec = recover_sim(scenario, &probe, SNAP_EVERY)
        .expect("recovery")
        .expect("the previous snapshot survives");
    assert_eq!(rec.snapshot_epoch(), epoch - SNAP_EVERY, "{tag}");
    let recorder =
        resume_trace_file(&probe.join("trace.jsonl"), rec.snapshot_epoch()).expect("trace reopens");
    rec.set_recorder(Box::new(recorder));
    let replayed = rec.replay(true).expect("replay");
    assert_eq!(replayed.epochs_done(), k, "{tag}: replay reaches the kill");
    drop(replayed);

    let outcome = harness_run(
        scenario,
        EPOCHS,
        None,
        &state,
        SNAP_EVERY,
        &trace,
        true,
        &[],
    )
    .expect("resumed run");
    assert!(!outcome.killed);
    assert!(!temp.exists(), "{tag}: the torn temp file is swept");
    let r = residue(&trace, &state, outcome);
    let _ = fs::remove_dir_all(&dir);
    r
}

#[test]
fn a_kill_before_the_newest_snapshot_lands_resumes_exactly() {
    for (scenario, tag) in [
        (clean_scenario(), "midland"),
        (faulty_scenario(), "midland-faults"),
    ] {
        let expected = reference(&scenario, &[], &format!("{tag}-ref"));
        let resumed = kill_mid_land_and_resume(&scenario, tag);
        assert_same_residue(&expected, &resumed, tag);
    }
}

/// A land that fails on the writer thread is reported at the next join —
/// the next cadence cut — which disables persistence; the run goes on,
/// and recovery still resumes from the last landed snapshot through the
/// logs rotated up to the failed cut and after it.
#[test]
fn a_failed_land_disables_persistence_at_the_next_join() {
    let scenario = clean_scenario();
    let dir = scratch("failed-land");
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let env = scenario.env();
    let recorder = JsonlRecorder::create(&trace).expect("creating trace");
    let runtime = scenario.launch(&env, Box::new(recorder)).expect("launch");
    let mut run = PersistedRun::new(runtime, env);
    run.enable_persistence(PersistConfig {
        dir: state.clone(),
        snapshot_every: SNAP_EVERY,
    })
    .expect("state dir");
    // A directory where the next cut's temp file goes: `File::create`
    // on the writer thread fails.
    let first = run.runtime().epoch();
    let blocker = state.join(format!(".snap-{:020}.tmp", first + SNAP_EVERY));
    fs::create_dir(&blocker).expect("creating the blocker");

    for _ in 0..2 * SNAP_EVERY - 1 {
        let _ = run.run_epoch();
    }
    assert!(
        run.persisting(),
        "the failed land is not reported before the next cut joins it"
    );
    let _ = run.run_epoch();
    assert!(
        !run.persisting(),
        "the next cut's join disables persistence"
    );
    while run.epochs_done() < EPOCHS {
        let _ = run.run_epoch();
    }
    run.flush_trace().expect("flushing trace");
    drop(run);

    // The landed snapshot and the logs after it reach the epoch whose
    // cut found the failure.
    let mut rec = recover_sim(&scenario, &state, SNAP_EVERY)
        .expect("recovery")
        .expect("the first snapshot landed");
    assert_eq!(rec.snapshot_epoch(), first);
    let recorder = resume_trace_file(&trace, first).expect("trace reopens");
    rec.set_recorder(Box::new(recorder));
    let recovered = rec.replay(true).expect("replay");
    assert_eq!(recovered.epochs_done(), 2 * SNAP_EVERY);
    assert_eq!(recovered.runtime().epoch(), first + 2 * SNAP_EVERY);
    let recovered_state = format!("{:?}", recovered.runtime().snapshot());
    drop(recovered);

    // The same epochs run without persistence.
    let env = scenario.env();
    let ref_trace = dir.join("ref.jsonl");
    let recorder = JsonlRecorder::create(&ref_trace).expect("creating trace");
    let mut plain = PersistedRun::new(
        scenario.launch(&env, Box::new(recorder)).expect("launch"),
        env,
    );
    for _ in 0..2 * SNAP_EVERY {
        let _ = plain.run_epoch();
    }
    plain.flush_trace().expect("flushing trace");
    assert_eq!(recovered_state, format!("{:?}", plain.runtime().snapshot()));
    let (got, want) = (fs::read(&trace).unwrap(), fs::read(&ref_trace).unwrap());
    let _ = fs::remove_dir_all(&dir);
    assert_eq!(
        got, want,
        "the replayed trace matches the uninterrupted one"
    );
}

/// The epoch of [`failed_admission_scenario`] before which the doomed
/// admission is attempted.
const ADMIT_AT: u64 = 4;

/// A scenario whose counter reads drop out in one burst, placed to begin
/// with the first read of an admission attempted after [`ADMIT_AT`]
/// epochs and sized to outlast that admission's whole retry budget.
fn failed_admission_scenario() -> Scenario {
    // Where the burst starts: the dropout-site calls boot and the first
    // ADMIT_AT epochs make. The decorator counts calls under any plan, so
    // a fault-free probe run measures it.
    let probe = clean_scenario();
    let mut runtime = probe
        .launch(&probe.env(), Box::new(NullRecorder))
        .expect("probe launch");
    for _ in 0..ADMIT_AT {
        runtime.run_period().expect("probe epoch");
    }
    let quiet_calls = runtime.backend().fault_state().sites[0].calls;
    // A profiling pass dies on its first counter read once that read has
    // failed `max_write_attempts` (4) times; PROFILE_ATTEMPTS (5) passes
    // make 20 reads. A few more spill into the next epochs as ordinary,
    // transient dropouts.
    let burst = (quiet_calls + 1..=quiet_calls + 24).collect();
    let plan = FaultPlan {
        counter_dropout: FaultTrigger::AtCalls(burst),
        ..FaultPlan::none()
    };
    Scenario::new(MixKind::HighBoth, 3, PolicyKind::CoPart, 11, Some(plan)).unwrap()
}

/// Drives [`failed_admission_scenario`] through `PersistedRun` directly
/// (the harness treats a rejected schedule operation as fatal), with an
/// optional kill-and-resume at `kill_at`. The admission is attempted —
/// and its failure asserted — by whichever incarnation reaches
/// [`ADMIT_AT`] live.
fn run_with_failed_admission(scenario: &Scenario, kill_at: Option<u64>, tag: &str) -> RunResidue {
    let dir = scratch(tag);
    let state = dir.join("state");
    let trace = dir.join("trace.jsonl");
    let persist = || PersistConfig {
        dir: state.clone(),
        snapshot_every: SNAP_EVERY,
    };
    let boot = || {
        let env = scenario.env();
        let recorder = JsonlRecorder::create(&trace).expect("creating trace");
        let runtime = scenario.launch(&env, Box::new(recorder)).expect("launch");
        let mut run = PersistedRun::new(runtime, env);
        run.enable_persistence(persist()).expect("state dir");
        run
    };
    let resume = || {
        let mut rec = recover_sim(scenario, &state, SNAP_EVERY)
            .expect("recovery")
            .expect("a snapshot to recover from");
        let recorder = resume_trace_file(&trace, rec.snapshot_epoch()).expect("trace reopens");
        rec.set_recorder(Box::new(recorder));
        rec.replay(true).expect("replay")
    };

    let mut run = boot();
    let mut kill_at = kill_at;
    while run.epochs_done() < EPOCHS {
        let at = run.epochs_done();
        if kill_at == Some(at) {
            kill_at = None;
            drop(run); // Simulated SIGKILL.
            run = resume();
            assert_eq!(
                run.epochs_done(),
                at,
                "{tag}: replay reaches the kill point"
            );
        }
        if at == ADMIT_AT {
            let groups_before = run.runtime().backend().groups();
            let (status, why) = run.admit("SW").expect_err("re-profiling must not survive");
            assert_eq!(status, 500, "{tag}: {why}");
            assert_eq!(run.runtime().apps().len(), 3, "{tag}: no ghost app");
            assert_eq!(
                run.runtime().backend().groups(),
                groups_before,
                "{tag}: no orphaned group"
            );
        }
        let _ = run.run_epoch();
    }
    run.snapshot_now().expect("final snapshot");
    run.flush_trace().expect("flushing trace");
    let outcome = HarnessOutcome {
        epochs_done: run.epochs_done(),
        killed: false,
        metrics: run.runtime().metrics_handle().snapshot(),
    };
    let r = residue(&trace, &state, outcome);
    let _ = fs::remove_dir_all(&dir);
    r
}

/// PR 16 bugfix pin: a daemon admission whose re-profiling fails used to
/// evict the workload from the backend but leave its `ManagedApp` in the
/// controller — a ghost whose counters could never be read again, and a
/// run that could no longer replay. Membership now goes through
/// `copart_core::node::admit_app`, which rolls back both sides; the
/// failed attempt (it advanced time and drew from the fault streams) is
/// made durable by a snapshot, so kill/resume across it stays exact.
#[test]
fn failed_admission_leaves_nothing_behind_and_survives_a_kill() {
    let scenario = failed_admission_scenario();
    let expected = run_with_failed_admission(&scenario, None, "ghost-ref");
    assert_eq!(
        expected.outcome.metrics.counter("admitted_apps"),
        0,
        "the admission was rolled back, not counted"
    );

    // The burst degrades the epochs it spills into, then it is over: an
    // app the controller still tracked without a group would stay
    // degraded forever.
    let events = parse_trace(expected.trace.as_slice()).expect("trace parses");
    assert!(
        events.iter().any(|e| e.fault.is_some()),
        "the burst must be visible"
    );
    for e in &events[events.len() - 4..] {
        assert!(e.fault.is_none(), "epoch {} is still degraded", e.epoch);
    }

    // Killed before the admission (the resumed incarnation attempts it),
    // right after it, and a snapshot cadence later.
    for k in [ADMIT_AT, ADMIT_AT + 1, ADMIT_AT + SNAP_EVERY + 1] {
        let resumed = run_with_failed_admission(&scenario, Some(k), &format!("ghost-k{k}"));
        assert_same_residue(&expected, &resumed, &format!("failed admission kill@{k}"));
    }
}

/// Boots a free-running daemon over `scenario` with persistence and a
/// rotating on-disk trace, waits until the runtime's epoch counter
/// reaches `target_periods`, and drains it cleanly.
fn daemon_run(
    scenario: &Scenario,
    max_epochs: u64,
    target_periods: u64,
    state: &Path,
    trace: &Path,
) -> copart_serve::ServeReport {
    let cfg = ServeConfig {
        tick: Duration::ZERO,
        max_epochs: Some(max_epochs),
        snapshot_every: 4,
        state_dir: Some(state.to_path_buf()),
        trace_dir: Some(trace.to_path_buf()),
        trace_file_events: 6,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(scenario, cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    wait_for_periods(&addr, target_periods);
    handle.shutdown();
    handle.join()
}

/// Polls `/metrics` until `copart_epochs_total` (control periods run,
/// including periods a recovered daemon restored) reaches `target`.
fn wait_for_periods(addr: &str, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = loadgen::fetch(addr, "GET", "/metrics", "").expect("GET /metrics");
        assert_eq!(status, 200);
        let done = body
            .lines()
            .find_map(|l| l.strip_prefix("copart_epochs_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .is_some_and(|n| n >= target);
        if done {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not reach {target} periods in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Concatenates a rotating trace directory's files in order: the
/// logical trace, independent of where rotation happened to cut it.
fn read_rotated(dir: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    for idx in 0.. {
        match fs::read(dir.join(format!("trace-{idx:04}.jsonl"))) {
            Ok(bytes) => out.extend(bytes),
            Err(_) => break,
        }
    }
    out
}

/// A rotating trace directory's files by name, with their bytes.
fn rotated_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("reading the trace dir")
        .map(|entry| {
            let path = entry.expect("listing the trace dir").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, fs::read(&path).expect("reading a trace file"))
        })
        .collect();
    files.sort();
    files
}

/// A daemon shut down cleanly and rebooted over the same state directory
/// continues the run: the two incarnations' rotating traces concatenate
/// to exactly the bytes one uninterrupted daemon writes, cut into the
/// same files.
#[test]
fn daemon_restart_continues_the_run() {
    let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 21, None).unwrap();
    let dir = scratch("daemon-restart");
    let (ref_state, ref_trace) = (dir.join("ref-state"), dir.join("ref-trace"));
    let (state, trace) = (dir.join("state"), dir.join("trace"));

    let reference = daemon_run(&scenario, 12, 12, &ref_state, &ref_trace);
    assert_eq!(reference.epochs, 12);

    let first = daemon_run(&scenario, 6, 6, &state, &trace);
    assert_eq!(first.epochs, 6);
    // The reboot resumes from the clean-shutdown snapshot: the epoch cap
    // keeps counting from 6, and `copart_epochs_total` reboots at 6.
    let second = daemon_run(&scenario, 12, 12, &state, &trace);
    assert_eq!(second.epochs, 12);
    assert_eq!(second.snapshot.counter("recoveries"), 1);

    let expected = read_rotated(&ref_trace);
    let restarted = read_rotated(&trace);
    let (expected_files, restarted_files) = (rotated_files(&ref_trace), rotated_files(&trace));
    let _ = fs::remove_dir_all(&dir);
    assert!(!expected.is_empty());
    assert_eq!(
        expected, restarted,
        "restarted daemon's trace must be byte-identical to an uninterrupted daemon's"
    );
    assert!(
        expected_files.len() > 2,
        "the trace must span several files"
    );
    assert!(
        expected_files == restarted_files,
        "restarted daemon's trace files must match an uninterrupted daemon's file for file: {:?} vs {:?}",
        expected_files.iter().map(|(n, b)| (n, b.len())).collect::<Vec<_>>(),
        restarted_files.iter().map(|(n, b)| (n, b.len())).collect::<Vec<_>>(),
    );
}

/// `POST /snapshot` cuts a snapshot on demand when persistence is on and
/// answers 409 when the daemon was started without a state directory.
#[test]
fn snapshot_endpoint_cuts_on_demand() {
    let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 23, None).unwrap();
    let dir = scratch("daemon-snapshot");

    let without = copart_serve::serve_scenario(
        &scenario,
        ServeConfig {
            tick: Duration::ZERO,
            max_epochs: Some(4),
            ..ServeConfig::default()
        },
    )
    .expect("daemon boots");
    let addr = without.addr().to_string();
    let (status, body) = loadgen::fetch(&addr, "POST", "/snapshot", "").expect("POST /snapshot");
    assert_eq!(status, 409, "no state dir: {body}");
    without.shutdown();
    without.join();

    let state = dir.join("state");
    let with = copart_serve::serve_scenario(
        &scenario,
        ServeConfig {
            tick: Duration::ZERO,
            max_epochs: Some(6),
            state_dir: Some(state.clone()),
            snapshot_every: 0, // explicit snapshots only
            ..ServeConfig::default()
        },
    )
    .expect("daemon boots");
    let addr = with.addr().to_string();
    wait_for_periods(&addr, 6);
    let (status, body) = loadgen::fetch(&addr, "GET", "/snapshot", "").expect("GET /snapshot");
    assert_eq!(status, 405, "{body}");
    let (status, body) = loadgen::fetch(&addr, "POST", "/snapshot", "").expect("POST /snapshot");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"snapshot\"") && body.contains("\"bytes\""));
    let (doc, path) = latest_good(&state)
        .expect("scanning state dir")
        .expect("the endpoint left a snapshot");
    assert!(path.exists());
    assert!(doc.meta.daemon_epochs >= 6);
    with.shutdown();
    with.join();
    let _ = fs::remove_dir_all(&dir);
}

/// The recovery contract cannot depend on the parallelism knob: a run
/// killed and resumed under `--jobs 8` reproduces the uninterrupted
/// `--jobs 1` run byte for byte.
#[test]
fn recovery_is_jobs_invariant() {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = clean_scenario();
    let schedule = churn_schedule();
    copart_parallel::set_jobs(Some(1));
    let serial = reference(&scenario, &schedule, "jobs1-ref");
    copart_parallel::set_jobs(Some(8));
    let parallel = reference(&scenario, &schedule, "jobs8-ref");
    let resumed = kill_and_resume(&scenario, &schedule, 5, "jobs8-kill");
    copart_parallel::set_jobs(None);
    assert_same_residue(&serial, &parallel, "jobs 1 vs jobs 8");
    assert_same_residue(&serial, &resumed, "jobs 1 reference vs jobs 8 kill/resume");
}
