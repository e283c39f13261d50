//! Crash-safe execution: the shared driver that makes a run resumable.
//!
//! [`PersistedRun`] wraps the runtime and is the **single** mutation
//! path shared by the daemon's control thread, the `copart sim-run`
//! kill/resume harness, and the recovery tests. Every input that steers
//! the run — an epoch, an admission, a removal, a policy switch — goes
//! through it, so every input is (a) executed and (b) appended to the
//! state directory's event log, with a full [`SnapshotDoc`] cut every
//! `snapshot_every` epochs. Recovery ([`recover_sim`]) inverts the
//! process: [`restore`] rebuilds the boot-time runtime and restores the
//! newest good snapshot over it, then [`Recovered::replay`] re-executes
//! the log tail, and the run continues — byte-identical to a run that
//! never died.
//!
//! Recovery invariants (DESIGN.md §16):
//!
//! * The trace recorder is flushed *before* a snapshot lands, so every
//!   trace event from epochs below the snapshot is durable the moment
//!   the snapshot is; events at or above it are regenerated by replay
//!   (resume truncates the trace file to the snapshot boundary first).
//! * A snapshot is **cut** on the control thread (trace flush, capture,
//!   event-log rotation) and **landed** on a writer thread (write,
//!   metrics, prune), at most one land in flight. The log rotates before
//!   its snapshot lands, so a kill mid-land leaves the previous snapshot
//!   and a log chain through the missing one's epoch, which recovery
//!   already replays across.
//! * Wall-clock histograms (`*_ns`) and the persistence bookkeeping
//!   series (`snapshots_written`, `recoveries`, `snapshot_bytes`)
//!   describe *processes*, not the run — they are the only metrics a
//!   resumed run may legitimately disagree on.
//! * Persistence failures never take the run down: a failed log append
//!   or snapshot disables persistence with a warning and the run keeps
//!   going, exactly as fast as before.
//! * The log holds only inputs that took effect. A mutation that fails
//!   after it reached the platform (a `500`: an admission whose
//!   re-profiling did not survive the fault plan advanced virtual time
//!   and drew from the fault streams before it was rolled back) leaves
//!   state no log entry describes, so it is made durable by a snapshot
//!   instead — replay then starts *after* it.

use std::fs;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use copart_core::node::{self, AdmitError, NodeBackend};
use copart_core::policies::PolicyKind;
use copart_core::runtime::ConsolidationRuntime;
use copart_faults::FaultyBackend;
use copart_rdt::{ClosId, RdtError, SimBackend};
use copart_telemetry::{cut_trace_file, JsonlRecorder, MetricsRegistry, MetricsSnapshot, Recorder};

use crate::log::{load_log, verify_chain};
use crate::scenario::{parse_dynamic_policy, Scenario, ScenarioEnv, PROFILE_ATTEMPTS};
use crate::{
    latest_good, prune, write_snapshot, EventKind, EventLog, LogEntry, PersistableBackend,
    SnapshotDoc, SnapshotMeta, KEEP_SNAPSHOTS,
};

/// Where and how often to persist.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The state directory (snapshots + event logs).
    pub dir: PathBuf,
    /// Epochs between automatic snapshots (0 = only explicit
    /// [`PersistedRun::snapshot_now`] calls).
    pub snapshot_every: u64,
}

/// A snapshot's land on the writer thread: its file and size, or why
/// it did not land.
type Landing = JoinHandle<Result<(PathBuf, u64), String>>;

/// The open persistence state of a run.
struct Persister {
    cfg: PersistConfig,
    log: EventLog,
    epochs_since_snapshot: u64,
    /// The cut whose land is in flight, if any.
    landing: Option<Landing>,
}

impl Persister {
    /// Waits for the land in flight, if any.
    fn join(&mut self) -> Result<Option<(PathBuf, u64)>, String> {
        match self.landing.take() {
            None => Ok(None),
            Some(landing) => landing
                .join()
                .map_err(|_| "the snapshot writer panicked".to_string())?
                .map(Some),
        }
    }
}

impl Drop for Persister {
    /// Persistence going away — shutdown, a simulated kill, a failure
    /// elsewhere — lets the land in flight finish, so no write races
    /// whatever opens the state directory next.
    fn drop(&mut self) {
        if let Err(e) = self.join() {
            eprintln!("copart persist: snapshot failed: {e}");
        }
    }
}

/// A runtime plus the event-sourcing that makes it crash-safe. All
/// mutations — epochs, admissions, removals, policy switches — must go
/// through this type so the event log stays complete.
pub struct PersistedRun<B: NodeBackend + PersistableBackend> {
    runtime: ConsolidationRuntime<B>,
    env: ScenarioEnv,
    epochs_done: u64,
    /// The app count the *live configuration* was built for: the boot
    /// count, updated only by a policy switch (admissions and removals
    /// keep the standing configuration, so its `n_apps`-derived fields
    /// — like the equal-share MBA cap — stay at their built-for value).
    /// Snapshots record this, not the current app count, so recovery
    /// rebuilds exactly the configuration the dead process ran under.
    cfg_apps: usize,
    metrics: Arc<MetricsRegistry>,
    persist: Option<Persister>,
}

impl<B: NodeBackend + PersistableBackend> PersistedRun<B> {
    /// Wraps a built (and profiled) runtime. Persistence starts
    /// disabled; call [`PersistedRun::enable_persistence`].
    pub fn new(runtime: ConsolidationRuntime<B>, env: ScenarioEnv) -> PersistedRun<B> {
        let metrics = runtime.metrics_handle();
        let cfg_apps = runtime.apps().len();
        PersistedRun {
            runtime,
            env,
            epochs_done: 0,
            cfg_apps,
            metrics,
            persist: None,
        }
    }

    /// The wrapped runtime (read-only; mutations must go through the
    /// run so they land in the event log).
    pub fn runtime(&self) -> &ConsolidationRuntime<B> {
        &self.runtime
    }

    /// The scenario environment (the live policy lives here).
    pub fn env(&self) -> &ScenarioEnv {
        &self.env
    }

    /// Control epochs completed (attempts count, like the daemon's cap).
    pub fn epochs_done(&self) -> u64 {
        self.epochs_done
    }

    /// Whether persistence is currently active.
    pub fn persisting(&self) -> bool {
        self.persist.is_some()
    }

    /// Attaches the trace recorder every later epoch (and a replay)
    /// records into.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder + Send>) {
        self.runtime.set_recorder(recorder);
    }

    /// Flushes the trace recorder.
    ///
    /// # Errors
    ///
    /// Surfaces the recorder's deferred write errors.
    pub fn flush_trace(&mut self) -> std::io::Result<()> {
        self.runtime.recorder_mut().flush()
    }

    /// Turns persistence on: cuts an initial snapshot into `cfg.dir`,
    /// opens its event log, and waits for the snapshot to land. Call
    /// right after profiling, so the very first epoch is already covered.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot or log cannot be written; persistence
    /// stays disabled in that case.
    pub fn enable_persistence(&mut self, cfg: PersistConfig) -> Result<(), String> {
        self.persist = None;
        let (log, landing) = self.cut(&cfg.dir)?;
        let mut p = Persister {
            cfg,
            log,
            epochs_since_snapshot: 0,
            landing: Some(landing),
        };
        p.join()?;
        self.persist = Some(p);
        Ok(())
    }

    /// Cuts a snapshot right now, rotates the event log onto it, and
    /// waits until it has landed (written, then old snapshots pruned).
    /// Returns the snapshot path and size.
    ///
    /// # Errors
    ///
    /// Fails when persistence is disabled or the snapshot, or the one
    /// still landing before it, fails; a failure disables persistence.
    pub fn snapshot_now(&mut self) -> Result<(PathBuf, u64), String> {
        self.snapshot(true)
            .map(|landed| landed.expect("a waited-for land reports its file"))
    }

    /// Waits for the land in flight, then cuts a snapshot and, with
    /// `wait`, waits for its land too. The persister is taken out for
    /// the duration, so any failure leaves persistence disabled.
    fn snapshot(&mut self, wait: bool) -> Result<Option<(PathBuf, u64)>, String> {
        let mut p = self
            .persist
            .take()
            .ok_or("persistence is not enabled (no state directory)")?;
        p.join()?;
        let (log, landing) = self.cut(&p.cfg.dir)?;
        p.log = log;
        p.epochs_since_snapshot = 0;
        p.landing = Some(landing);
        let landed = if wait { p.join()? } else { None };
        self.persist = Some(p);
        Ok(landed)
    }

    /// The control thread's part of a snapshot: flush the trace
    /// (recovery invariant: everything below the snapshot epoch is
    /// durable before the snapshot is), capture the document, and open
    /// the event log at its epoch. The land — write, metrics, prune —
    /// runs on a writer thread.
    fn cut(&mut self, dir: &Path) -> Result<(EventLog, Landing), String> {
        let started = Instant::now();
        self.runtime
            .recorder_mut()
            .flush()
            .map_err(|e| format!("flushing trace before snapshot: {e}"))?;
        let doc = SnapshotDoc::capture(
            &self.runtime,
            SnapshotMeta {
                mix: self.env.identity.mix.clone(),
                n_apps: self.cfg_apps as u64,
                policy: self.env.policy.label().to_string(),
                seed: self.env.identity.seed,
                faults: self.env.identity.faults.clone(),
                daemon_epochs: self.epochs_done,
            },
        );
        let log = EventLog::create(dir, doc.epoch()).map_err(|e| format!("rotating log: {e}"))?;
        let metrics = Arc::clone(&self.metrics);
        let dir = dir.to_path_buf();
        let landing = thread::Builder::new()
            .name("copart-snapshot".into())
            .spawn(move || {
                let (path, bytes) =
                    write_snapshot(&dir, &doc).map_err(|e| format!("writing snapshot: {e}"))?;
                metrics.inc("snapshots_written");
                metrics.set_gauge("snapshot_bytes", bytes as f64);
                metrics.observe_ns("snapshot_ns", started.elapsed().as_nanos() as u64);
                if let Err(e) = prune(&dir, KEEP_SNAPSHOTS) {
                    eprintln!("copart persist: pruning {}: {e}", dir.display());
                }
                Ok((path, bytes))
            })
            .map_err(|e| format!("spawning the snapshot writer: {e}"))?;
        self.metrics
            .observe_ns("snapshot_cut_ns", started.elapsed().as_nanos() as u64);
        Ok((log, landing))
    }

    /// Appends one entry to the event log. A failed append disables
    /// persistence (with a warning) rather than taking the run down.
    fn log_append(&mut self, entry: &LogEntry) {
        if let Some(p) = self.persist.as_mut() {
            if let Err(e) = p.log.append(entry) {
                eprintln!("copart persist: event log append failed: {e}; disabling persistence");
                self.persist = None;
            }
        }
    }

    /// Runs one control period. The log entry is appended *before* the
    /// period runs, so a kill mid-epoch replays the whole epoch.
    ///
    /// # Errors
    ///
    /// Propagates the period's backend error. The epoch still counts
    /// (attempts count toward caps, as in the daemon), and so does the
    /// failure: `epoch_failures` is counted here, before a snapshot due
    /// at this boundary is cut, so a live run, its snapshots and a replay
    /// of its log agree on it.
    pub fn run_epoch(&mut self) -> Result<(), RdtError> {
        self.log_append(&LogEntry {
            pre: self.runtime.epoch(),
            kind: EventKind::Epoch,
        });
        self.epochs_done += 1;
        let result = self.runtime.run_period().map(|_| ());
        if result.is_err() {
            self.metrics.inc("epoch_failures");
        }
        self.maybe_snapshot();
        result
    }

    fn maybe_snapshot(&mut self) {
        let due = match self.persist.as_mut() {
            Some(p) if p.cfg.snapshot_every > 0 => {
                p.epochs_since_snapshot += 1;
                p.epochs_since_snapshot >= p.cfg.snapshot_every
            }
            _ => false,
        };
        if due {
            if let Err(e) = self.snapshot(false) {
                eprintln!("copart persist: snapshot failed: {e}; disabling persistence");
            }
        }
    }

    /// Finishes a mutation that was executed at epoch `pre`: a success
    /// is appended to the event log; a `500` left state the log cannot
    /// describe (see the module docs) and forces a snapshot instead.
    fn settle<T>(
        &mut self,
        pre: u64,
        result: Result<T, (u16, String)>,
        kind: impl FnOnce(&T) -> EventKind,
    ) -> Result<T, (u16, String)> {
        match &result {
            Ok(done) => self.log_append(&LogEntry {
                pre,
                kind: kind(done),
            }),
            Err((500, _)) if self.persisting() => {
                if let Err(e) = self.snapshot(true) {
                    eprintln!("copart persist: snapshot failed: {e}; disabling persistence");
                }
            }
            Err(_) => {}
        }
        result
    }

    /// Admits a benchmark by Table 2 short name. Errors carry the HTTP
    /// status the daemon maps them to.
    ///
    /// # Errors
    ///
    /// `400` for an unknown name, `409` when no resources are left,
    /// `500` when re-profiling fails after admission (the application is
    /// rolled back out of the controller and the backend again).
    pub fn admit(&mut self, bench: &str) -> Result<ClosId, (u16, String)> {
        let pre = self.runtime.epoch();
        let result = self.do_admit(bench);
        self.settle(pre, result, |group| EventKind::Admit {
            bench: bench.to_string(),
            group: group.0,
        })
    }

    fn do_admit(&mut self, bench: &str) -> Result<ClosId, (u16, String)> {
        let spec = self.env.spec_for(bench).map_err(|e| (400, e))?;
        let name = spec.name.clone();
        let budget = self.runtime.config().budget;
        let n = self.runtime.apps().len() as u32;
        if n + 1 > budget.total_ways {
            return Err((
                409,
                format!(
                    "no LLC way left for another application ({n} managed, {} ways)",
                    budget.total_ways
                ),
            ));
        }
        let group = node::admit_app(&mut self.runtime, spec, name, PROFILE_ATTEMPTS).map_err(
            |e| match e {
                AdmitError::Refused(_) => (409, e.to_string()),
                AdmitError::Profiling(_) => (500, e.to_string()),
            },
        )?;
        self.metrics.inc("admitted_apps");
        Ok(group)
    }

    /// Removes a managed application by group id.
    ///
    /// # Errors
    ///
    /// `404` for an unknown group, `409` for the last application,
    /// `500` when the removal fails mid-way.
    pub fn remove(&mut self, group: u16) -> Result<(), (u16, String)> {
        let pre = self.runtime.epoch();
        let result = self.do_remove(group);
        self.settle(pre, result, |()| EventKind::Remove { group })
    }

    fn do_remove(&mut self, id: u16) -> Result<(), (u16, String)> {
        let group = ClosId(id);
        if !self.runtime.apps().iter().any(|a| a.group == group) {
            return Err((404, format!("no managed application in group {id}")));
        }
        if self.runtime.apps().len() == 1 {
            return Err((
                409,
                "refusing to remove the last application; shut the daemon down instead".into(),
            ));
        }
        node::evict_app(&mut self.runtime, group)
            .map_err(|e| (500, format!("removal failed: {e}")))?;
        self.metrics.inc("removed_apps");
        Ok(())
    }

    /// Switches the partitioning policy live (wire name: `cat-only`,
    /// `mba-only`, `copart`, `lfoc`).
    ///
    /// # Errors
    ///
    /// `400` for an unknown or static policy, `500` when the switch
    /// fails mid-apply.
    pub fn set_policy(&mut self, policy: &str) -> Result<PolicyKind, (u16, String)> {
        let pre = self.runtime.epoch();
        let result = self.do_set_policy(policy);
        self.settle(pre, result, |_| EventKind::Policy {
            name: policy.to_string(),
        })
    }

    fn do_set_policy(&mut self, policy: &str) -> Result<PolicyKind, (u16, String)> {
        let kind = parse_dynamic_policy(policy).map_err(|e| (400, e))?;
        self.cfg_apps = self.runtime.apps().len();
        let cfg = self.env.runtime_config(self.cfg_apps, kind);
        // `reconfigure` swaps the configuration in before it re-applies
        // and re-profiles, so even a switch that then fails leaves the
        // run under `kind` — which is what status and snapshots must say.
        self.env.policy = kind;
        self.runtime
            .reconfigure(cfg)
            .map_err(|e| (500, format!("policy switch failed mid-apply: {e}")))?;
        self.metrics.inc("policy_switches");
        Ok(kind)
    }
}

/// A restored run that has not replayed its log tail yet. Attach the
/// trace recorder first (replay re-emits the tail's events through
/// it), then call [`Recovered::replay`].
pub struct Recovered<B: NodeBackend + PersistableBackend> {
    run: PersistedRun<B>,
    snapshot_epoch: u64,
    cfg: PersistConfig,
}

impl<B: NodeBackend + PersistableBackend> Recovered<B> {
    /// The epoch the restored snapshot was cut at: trace events at or
    /// above it will be re-emitted by replay (truncate resumed trace
    /// files to below it).
    pub fn snapshot_epoch(&self) -> u64 {
        self.snapshot_epoch
    }

    /// Control epochs the dead process had completed at the snapshot.
    pub fn epochs_done(&self) -> u64 {
        self.run.epochs_done
    }

    /// Attaches the trace recorder replay will re-emit into.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder + Send>) {
        self.run.set_recorder(recorder);
    }

    /// The restored runtime's metrics registry (already carrying the
    /// dead process's restored counters).
    pub fn metrics_handle(&self) -> Arc<MetricsRegistry> {
        self.run.runtime.metrics_handle()
    }

    /// Re-executes the event log tail, chaining across log files when
    /// the newest snapshot was torn, then re-enables persistence with a
    /// fresh snapshot at the recovered epoch.
    ///
    /// `tolerate_epoch_failures` selects daemon semantics (a failed
    /// period is counted, as [`PersistedRun::run_epoch`] counts it live,
    /// and replay continues) over strict semantics (first failure aborts
    /// recovery) — it must match what the dead process did, or replay
    /// diverges.
    ///
    /// # Errors
    ///
    /// Fails when the log does not chain onto the snapshot, replay
    /// diverges from the recorded outcomes, or persistence cannot be
    /// re-enabled afterwards.
    pub fn replay(mut self, tolerate_epoch_failures: bool) -> Result<PersistedRun<B>, String> {
        let dir = self.cfg.dir.clone();
        let mut log_epoch = self.snapshot_epoch;
        loop {
            let entries = load_log(&dir, log_epoch)
                .map_err(|e| format!("loading event log at epoch {log_epoch}: {e}"))?;
            verify_chain(log_epoch, &entries).map_err(|e| format!("stale event log: {e}"))?;
            if entries.is_empty() {
                break;
            }
            self.replay_entries(&entries, tolerate_epoch_failures)?;
            // If the dead process cut a later snapshot that did not
            // survive (torn write), its log picks up exactly where this
            // one left off — chain into it.
            let now = self.run.runtime.epoch();
            if now == log_epoch {
                break;
            }
            log_epoch = now;
        }
        self.run.metrics.inc("recoveries");
        // Recovery is complete: cut a fresh snapshot here so the next
        // crash replays from this point, not from the dead process's
        // last snapshot.
        self.run
            .enable_persistence(self.cfg.clone())
            .map_err(|e| format!("re-enabling persistence after recovery: {e}"))?;
        Ok(self.run)
    }

    fn replay_entries(
        &mut self,
        entries: &[LogEntry],
        tolerate_epoch_failures: bool,
    ) -> Result<(), String> {
        for entry in entries {
            let live = self.run.runtime.epoch();
            if entry.pre != live {
                return Err(format!(
                    "replay diverged: log entry executed at epoch {}, runtime is at {live}",
                    entry.pre
                ));
            }
            match &entry.kind {
                // Persistence is off until replay ends, so this logs
                // nothing and cuts nothing.
                EventKind::Epoch => {
                    if let Err(e) = self.run.run_epoch() {
                        if !tolerate_epoch_failures {
                            return Err(format!("replaying the epoch at {live}: {e}"));
                        }
                        eprintln!("copart persist: replayed epoch failed: {e}");
                    }
                }
                EventKind::Admit { bench, group } => {
                    let got = self
                        .run
                        .do_admit(bench)
                        .map_err(|(_, e)| format!("replaying admission of {bench:?}: {e}"))?;
                    if got.0 != *group {
                        return Err(format!(
                            "replay diverged: admission of {bench:?} landed on group {} \
                             (log recorded {group})",
                            got.0
                        ));
                    }
                }
                EventKind::Remove { group } => {
                    self.run
                        .do_remove(*group)
                        .map_err(|(_, e)| format!("replaying removal of group {group}: {e}"))?;
                }
                EventKind::Policy { name } => {
                    self.run
                        .do_set_policy(name)
                        .map_err(|(_, e)| format!("replaying policy switch to {name:?}: {e}"))?;
                }
            }
        }
        Ok(())
    }
}

/// Checks that a snapshot belongs to this scenario before restoring it.
fn check_identity(doc: &SnapshotDoc, env: &ScenarioEnv) -> Result<(), String> {
    let id = &env.identity;
    if doc.meta.mix != id.mix || doc.meta.seed != id.seed || doc.meta.faults != id.faults {
        return Err(format!(
            "state directory belongs to a different run: snapshot is mix {:?} seed {} \
             faults {:?}, scenario is mix {:?} seed {} faults {:?}",
            doc.meta.mix, doc.meta.seed, doc.meta.faults, id.mix, id.seed, id.faults
        ));
    }
    Ok(())
}

/// Attempts recovery of a scenario from `dir`: scan for the newest good
/// snapshot and [`restore`] it. `Ok(None)` means no usable snapshot
/// exists (boot fresh).
///
/// # Errors
///
/// Fails when the directory cannot be scanned, belongs to a different
/// run, or its snapshot cannot be restored.
pub fn recover_sim(
    scenario: &Scenario,
    dir: &Path,
    snapshot_every: u64,
) -> Result<Option<Recovered<FaultyBackend<SimBackend>>>, String> {
    let Some((doc, _)) =
        latest_good(dir).map_err(|e| format!("scanning {}: {e}", dir.display()))?
    else {
        return Ok(None);
    };
    Ok(Some(Recovered {
        run: restore(scenario, &doc)?,
        snapshot_epoch: doc.epoch(),
        cfg: PersistConfig {
            dir: dir.to_path_buf(),
            snapshot_every,
        },
    }))
}

/// Restores `doc` as a run of `scenario`: check that the snapshot
/// belongs to the scenario, rebuild the boot-time runtime through the
/// normal path, and restore the snapshot over it.
/// The run comes back with persistence off and no recorder attached.
///
/// The runtime is rebuilt with the fault decorator *disarmed* so
/// construction consumes no fault-stream draws, then the recorded stream
/// positions are restored and the decorator re-armed (a no-op for a
/// fault-free scenario, whose decorator never fires anyway).
///
/// # Errors
///
/// Fails when the snapshot belongs to a different run or cannot be
/// restored.
pub fn restore(
    scenario: &Scenario,
    doc: &SnapshotDoc,
) -> Result<PersistedRun<FaultyBackend<SimBackend>>, String> {
    let env = scenario.env();
    check_identity(doc, &env)?;
    let mut backend = scenario.backend(&env);
    backend.set_armed(false);
    let runtime = node::build(
        backend,
        &scenario.specs(&env),
        env.runtime_config(scenario.n_apps, scenario.policy),
    )?;
    let mut run = restore_over(runtime, env, doc)?;
    run.runtime.backend_mut().set_armed(true);
    Ok(run)
}

/// Restores `doc` over `runtime`, a freshly built boot-time runtime of
/// the snapshot's scenario: the backend, the controller, the
/// configuration the dead process was actually running under, and the
/// metrics.
fn restore_over<B: NodeBackend + PersistableBackend>(
    mut runtime: ConsolidationRuntime<B>,
    mut env: ScenarioEnv,
    doc: &SnapshotDoc,
) -> Result<PersistedRun<B>, String> {
    runtime
        .backend_mut()
        .restore_from(&doc.backend)
        .map_err(|e| format!("restoring the backend: {e}"))?;
    runtime.restore_snapshot(&doc.runtime);
    // The dead process may have switched policy or churned apps since
    // boot; the restored state must run under *its* configuration —
    // rebuilt for the app count that configuration was built for
    // (`meta.n_apps`), not the current app count, because admissions
    // never rebuild the standing configuration.
    let policy = PolicyKind::from_label(&doc.meta.policy)
        .filter(|k| k.is_dynamic())
        .ok_or_else(|| format!("snapshot records unknown policy {:?}", doc.meta.policy))?;
    runtime.restore_config(env.runtime_config(doc.meta.n_apps as usize, policy));
    env.policy = policy;
    let skipped = doc.metrics.restore(&runtime.metrics_handle());
    if !skipped.is_empty() {
        eprintln!("copart persist: snapshot carries unknown metric series {skipped:?}; skipped");
    }
    let mut run = PersistedRun::new(runtime, env);
    run.epochs_done = doc.meta.daemon_epochs;
    run.cfg_apps = doc.meta.n_apps as usize;
    Ok(run)
}

/// One scheduled churn operation for the [`harness_run`] loop, applied
/// just before the epoch with the matching `epochs_done` count runs.
#[derive(Debug, Clone)]
pub enum ChurnOp {
    /// Admit a benchmark by Table 2 short name.
    Admit(String),
    /// Remove the application in a group.
    Remove(u16),
    /// Switch the policy (wire name).
    Policy(String),
}

/// What a harness run finished with.
#[derive(Debug, Clone)]
pub struct HarnessOutcome {
    /// Control epochs completed over the run's whole life (including
    /// epochs completed by a previous incarnation, on resume).
    pub epochs_done: u64,
    /// Whether the run stopped at the simulated kill point.
    pub killed: bool,
    /// The final metrics.
    pub metrics: MetricsSnapshot,
}

/// The kill/resume harness behind `copart sim-run --state-dir` and the
/// crash-recovery tests: run `scenario` for `total_epochs` control
/// epochs with persistence into `state_dir` and the decision trace in
/// `trace_path`, applying `schedule`d churn along the way.
///
/// With `kill_at = Some(k)` the run stops dead after `k` epochs — no
/// final snapshot, no clean shutdown — simulating a `SIGKILL`. With
/// `resume` the run recovers from `state_dir` (truncating and then
/// extending `trace_path`) and continues to `total_epochs`. A completed
/// (non-killed) run cuts a final snapshot, so a finished state
/// directory restores to exactly the final state.
///
/// # Errors
///
/// Fails on build/recovery errors, a schedule operation that the live
/// run rejects, or I/O failures on the state directory.
#[allow(clippy::too_many_arguments)] // Mirrors the CLI flag surface one-to-one.
pub fn harness_run(
    scenario: &Scenario,
    total_epochs: u64,
    kill_at: Option<u64>,
    state_dir: &Path,
    snapshot_every: u64,
    trace_path: &Path,
    resume: bool,
    schedule: &[(u64, ChurnOp)],
) -> Result<HarnessOutcome, String> {
    let mut run = if resume {
        let Some(mut rec) = recover_sim(scenario, state_dir, snapshot_every)? else {
            return Err(format!(
                "--resume: no usable snapshot in {}",
                state_dir.display()
            ));
        };
        let recorder = resume_trace_file(trace_path, rec.snapshot_epoch())?;
        rec.set_recorder(Box::new(recorder));
        rec.replay(true)?
    } else {
        let env = scenario.env();
        let recorder = JsonlRecorder::create(trace_path)
            .map_err(|e| format!("cannot create {}: {e}", trace_path.display()))?;
        let runtime = scenario.launch(&env, Box::new(recorder))?;
        let mut run = PersistedRun::new(runtime, env);
        run.enable_persistence(PersistConfig {
            dir: state_dir.to_path_buf(),
            snapshot_every,
        })?;
        run
    };

    while run.epochs_done() < total_epochs {
        let at = run.epochs_done();
        if kill_at.is_some_and(|k| at >= k) {
            // Simulated SIGKILL: stop dead. No final snapshot, no trace
            // flush beyond what snapshots already forced — recovery must
            // work from exactly what a real kill would leave behind.
            // Dropping the persister lets the last cut's land finish
            // first, so the directory and the metrics do not depend on
            // how far a racing write got.
            run.persist = None;
            return Ok(HarnessOutcome {
                epochs_done: at,
                killed: true,
                metrics: run.runtime().metrics_handle().snapshot(),
            });
        }
        // A resumed run skips operations it already replayed from the
        // log: `epochs_done` restarts beyond their schedule slots.
        for (_, op) in schedule.iter().filter(|(when, _)| *when == at) {
            match op {
                ChurnOp::Admit(bench) => {
                    run.admit(bench)
                        .map_err(|(_, e)| format!("scheduled admit of {bench:?}: {e}"))?;
                }
                ChurnOp::Remove(group) => {
                    run.remove(*group)
                        .map_err(|(_, e)| format!("scheduled removal of group {group}: {e}"))?;
                }
                ChurnOp::Policy(name) => {
                    run.set_policy(name)
                        .map_err(|(_, e)| format!("scheduled policy switch to {name:?}: {e}"))?;
                }
            }
        }
        // Daemon semantics: a failed period is counted and the run goes on.
        if let Err(e) = run.run_epoch() {
            eprintln!("copart persist: epoch failed: {e}");
        }
    }
    // Clean shutdown: a final snapshot, so the directory restores to
    // exactly this state.
    if run.persisting() {
        run.snapshot_now()?;
    }
    run.flush_trace()
        .map_err(|e| format!("flushing trace: {e}"))?;
    Ok(HarnessOutcome {
        epochs_done: run.epochs_done(),
        killed: false,
        metrics: run.runtime().metrics_handle().snapshot(),
    })
}

/// Reopens a one-shot trace file for a resumed run: keeps the byte-exact
/// prefix of events below `below_epoch` (replay re-emits the rest),
/// drops any torn tail, and returns an append-positioned recorder. The
/// cut is [`cut_trace_file`], the one every rotated daemon trace file
/// goes through too: in place, never a rewrite, so a second kill at any
/// point in here leaves every event below the snapshot epoch on disk.
///
/// # Errors
///
/// Fails when the file cannot be read or cut.
pub fn resume_trace_file(
    path: &Path,
    below_epoch: u64,
) -> Result<JsonlRecorder<BufWriter<fs::File>>, String> {
    cut_trace_file(path, below_epoch)
        .map(|(recorder, _)| recorder)
        .map_err(|e| format!("cutting trace file {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendSnapshot;
    use crate::PersistError;
    use copart_core::profile_with_retries;
    use copart_rdt::{CbmMask, MbaLevel, RdtBackend, RdtCapabilities};
    use copart_sim::AppSpec;
    use copart_telemetry::{CounterSnapshot, TraceDecision, TraceEvent, TracePhase};
    use copart_workloads::MixKind;
    use std::time::Duration;

    /// A platform whose periods fail: from `from_ns` on, every third and
    /// every fifth period moves time and then reports an error. The
    /// failures are keyed on the platform clock, so a restored run fails
    /// exactly the periods the dead one did.
    struct Flaky {
        inner: FaultyBackend<SimBackend>,
        from_ns: u64,
    }

    impl RdtBackend for Flaky {
        fn capabilities(&self) -> RdtCapabilities {
            self.inner.capabilities()
        }
        fn groups(&self) -> Vec<ClosId> {
            self.inner.groups()
        }
        fn set_cbm(&mut self, group: ClosId, mask: CbmMask) -> Result<(), RdtError> {
            self.inner.set_cbm(group, mask)
        }
        fn set_mba(&mut self, group: ClosId, level: MbaLevel) -> Result<(), RdtError> {
            self.inner.set_mba(group, level)
        }
        fn clos_config(&self, group: ClosId) -> Result<(CbmMask, MbaLevel), RdtError> {
            self.inner.clos_config(group)
        }
        fn read_counters(&mut self, group: ClosId) -> Result<CounterSnapshot, RdtError> {
            self.inner.read_counters(group)
        }
        fn advance(&mut self, period: Duration) -> Result<(), RdtError> {
            self.inner.advance(period)?;
            let k = self.inner.now_ns().saturating_sub(self.from_ns) / period.as_nanos() as u64;
            if k > 0 && (k.is_multiple_of(3) || k.is_multiple_of(5)) {
                return Err(RdtError::Busy("injected period failure"));
            }
            Ok(())
        }
        fn now_ns(&self) -> u64 {
            self.inner.now_ns()
        }
    }

    impl NodeBackend for Flaky {
        fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError> {
            self.inner.admit(spec)
        }
        fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
            self.inner.evict(group)
        }
    }

    impl PersistableBackend for Flaky {
        fn capture(&self) -> BackendSnapshot {
            self.inner.capture()
        }
        fn restore_from(&mut self, snap: &BackendSnapshot) -> Result<(), PersistError> {
            self.inner.restore_from(snap)
        }
    }

    /// A failed period is counted once, by the run: a live run and the
    /// same run killed and replayed from its state directory read the
    /// same `epoch_failures`.
    #[test]
    fn failed_epochs_count_the_same_live_and_after_replay() {
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let env = scenario.env();
        let boot = |from_ns| {
            let backend = Flaky {
                inner: scenario.backend(&env),
                from_ns,
            };
            let cfg = env.runtime_config(scenario.n_apps, scenario.policy);
            node::build(backend, &scenario.specs(&env), cfg).unwrap()
        };
        let dir =
            std::env::temp_dir().join(format!("copart-epoch-failures-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let failures =
            |run: &PersistedRun<Flaky>| run.runtime().metrics_handle().counter("epoch_failures");

        let mut runtime = boot(u64::MAX);
        profile_with_retries(&mut runtime, PROFILE_ATTEMPTS).unwrap();
        let from_ns = runtime.backend().now_ns();
        runtime.backend_mut().from_ns = from_ns;
        let mut live = PersistedRun::new(runtime, env.clone());
        live.enable_persistence(PersistConfig {
            dir: dir.clone(),
            snapshot_every: 5,
        })
        .unwrap();
        // 23 is mid-cadence: the kill leaves a log tail to replay. The
        // newest snapshot is cut right after a failed period (the 20th).
        let failed = (0..23).filter(|_| live.run_epoch().is_err()).count() as u64;
        assert!(failed > 0, "the platform failed no period");
        assert_eq!(failures(&live), failed, "counted live");
        drop(live); // Simulated SIGKILL.

        let (doc, _) = latest_good(&dir).unwrap().unwrap();
        let recovered = Recovered {
            run: restore_over(boot(from_ns), env, &doc).unwrap(),
            snapshot_epoch: doc.epoch(),
            cfg: PersistConfig {
                dir: dir.clone(),
                snapshot_every: 5,
            },
        };
        let replayed = recovered.replay(true).unwrap();
        assert_eq!(replayed.epochs_done(), 23);
        assert_eq!(failures(&replayed), failed, "counted after kill and replay");
        drop(replayed);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn event(epoch: u64) -> TraceEvent {
        TraceEvent {
            epoch,
            time_ns: epoch * 1000,
            phase: TracePhase::Exploring,
            decision: TraceDecision::Transfer,
            retry_count: 0,
            matching_rounds: 1,
            unfairness: 0.25,
            apps: Vec::new(),
            proposed: Vec::new(),
            applied: Vec::new(),
            fault: None,
        }
    }

    fn line(epoch: u64) -> String {
        format!("{}\n", event(epoch).to_json_line())
    }

    /// Writes `before`, resumes below epoch 3, and returns what the file
    /// holds once the reopened recorder has appended epoch 3.
    fn resumed(tag: &str, before: Option<&str>) -> String {
        let path =
            std::env::temp_dir().join(format!("copart-resume-trace-{}-{tag}", std::process::id()));
        let _ = fs::remove_file(&path);
        if let Some(text) = before {
            fs::write(&path, text).unwrap();
        }
        let mut recorder = resume_trace_file(&path, 3).unwrap();
        // The cut happens in place, before anything is appended.
        let kept = fs::read_to_string(&path).unwrap();
        recorder.record(&event(3));
        recorder.flush().unwrap();
        let after = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        assert_eq!(
            after,
            format!("{kept}{}", line(3)),
            "{tag}: appends after the kept prefix"
        );
        kept
    }

    #[test]
    fn resume_trace_file_keeps_exactly_the_prefix_below_the_boundary() {
        let prefix = format!("{}{}{}", line(0), line(1), line(2));
        // Clean file: everything is below the boundary.
        assert_eq!(resumed("clean", Some(&prefix)), prefix);
        // Torn last line: the kill interrupted the write of epoch 3.
        let torn = format!("{prefix}{}", &line(3)[..17]);
        assert_eq!(resumed("torn", Some(&torn)), prefix);
        // Events at and above the boundary: replay regenerates them.
        let beyond = format!("{prefix}{}{}", line(3), line(4));
        assert_eq!(resumed("beyond", Some(&beyond)), prefix);
        // Missing file: created empty.
        assert_eq!(resumed("missing", None), "");
        // A kept last line that lost only its newline gets it back.
        assert_eq!(resumed("unterminated", Some(prefix.trim_end())), prefix);
    }

    /// The double-kill window: the file must never be shorter than the
    /// kept prefix, so the cut may only ever `set_len` downwards to it.
    /// A resume over an already-cut file is therefore a no-op on the
    /// bytes — the state a kill right after the cut leaves behind.
    #[test]
    fn resume_trace_file_is_idempotent_on_its_own_output() {
        let prefix = format!("{}{}{}", line(0), line(1), line(2));
        let path =
            std::env::temp_dir().join(format!("copart-resume-trace-{}-twice", std::process::id()));
        fs::write(&path, format!("{prefix}{}", &line(3)[..9])).unwrap();
        drop(resume_trace_file(&path, 3).unwrap());
        assert_eq!(fs::read_to_string(&path).unwrap(), prefix);
        drop(resume_trace_file(&path, 3).unwrap());
        assert_eq!(fs::read_to_string(&path).unwrap(), prefix);
        fs::remove_file(&path).unwrap();
    }
}
