//! The resource manager's execution flow (Figure 10, Algorithm 1).
//!
//! [`ConsolidationRuntime`] drives a set of application groups on an
//! [`RdtBackend`] through the paper's three phases:
//!
//! 1. **Application profiling** (§5.4.1) — each application briefly runs
//!    with full resources (establishing `IPS_full` for Eq 1), with
//!    `(l_P, 100 %)` to probe LLC sensitivity, and with `(L, M_P)` to
//!    probe bandwidth sensitivity; the probes pick the classifiers'
//!    initial states.
//! 2. **System state space exploration** (§5.4.2, Algorithm 1) — each
//!    period the FSMs are updated from counters and Algorithm 2 proposes a
//!    new state; when the state stops changing, up to θ random neighbor
//!    states are tried before the manager goes idle.
//! 3. **Idle** (§5.4.3) — monitoring only; membership or budget changes
//!    (and sustained unfairness drift) trigger re-adaptation.
//!
//! The runtime itself is a thin epoch driver over the four control-plane
//! layers (DESIGN.md §12): each period it feeds counter reads to the
//! per-application [`Sensor`]s, steps the [`Classifier`]s, asks the
//! [`Explorer`] for one Algorithm 1 step, and
//! hands the proposal to the [`Actuator`]. Cross-cutting concerns —
//! tracing, metrics, fault accounting — live here, at the seams.

use std::sync::Arc;
use std::time::Instant;

use copart_rdt::{ClosId, MbaLevel, RdtBackend, RdtError};
use copart_telemetry::{
    AllocSample, AppSample, FaultSample, MetricsRegistry, MetricsSnapshot, NullRecorder, Rates,
    Recorder, TraceClass, TraceDecision, TraceEvent, TracePhase,
};
use copart_workloads::stream::StreamReference;

use crate::actuator::{retry_transient, Actuator, ApplyReport, TransactionalActuator};
use crate::classifier::{
    initial_states, Classifier, DualFsmClassifier, Measurement, ProfileProbes,
};
use crate::fsm::AppState;
use crate::metrics;
use crate::next_state::{AppClassification, AppliedEvents};
use crate::planner::{layout_masks_into, Explorer, ExplorerSnapshot, Plan, PlanDecision};
use crate::sensor::{Sensor, SensorSnapshot, WindowedSensor};
use crate::state::{SystemState, WaysBudget};
use crate::CoPartParams;

/// Which phase the resource manager is in (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Measuring per-application profiles.
    Profiling,
    /// Exploring the system state space (Algorithm 1).
    Exploring,
    /// Converged; monitoring only.
    Idle,
}

/// Samples the sensor keeps per application (a little over the paper's
/// adaptation horizon; only the last two matter for period rates).
const SENSOR_WINDOW: usize = 8;

/// One consolidated application under management: its identity plus its
/// sensing and classification layers.
#[derive(Debug)]
pub struct ManagedApp {
    /// The application's resource group (CLOS).
    pub group: ClosId,
    /// Display name.
    pub name: String,
    /// `IPS_full` measured during profiling (Eq 1 numerator).
    pub ips_full: f64,
    /// Fairness weight (default 1): the controller equalizes
    /// `slowdown / weight`, so a weight-2 application is entitled to run
    /// twice as close to its solo speed (see
    /// [`crate::metrics::weighted_unfairness`]).
    pub weight: f64,
    sensor: WindowedSensor,
    classifier: DualFsmClassifier,
    prev_ips: f64,
    last_ips: f64,
    last_events: AppliedEvents,
}

impl ManagedApp {
    fn new(group: ClosId, name: String) -> ManagedApp {
        ManagedApp {
            group,
            name,
            ips_full: 0.0,
            weight: 1.0,
            sensor: WindowedSensor::new(SENSOR_WINDOW),
            classifier: DualFsmClassifier::new(),
            prev_ips: 0.0,
            last_ips: 0.0,
            last_events: AppliedEvents::default(),
        }
    }

    /// Current slowdown estimate (Eq 1).
    pub fn slowdown(&self) -> f64 {
        metrics::slowdown(self.ips_full, self.last_ips)
    }

    /// Weight-normalized slowdown — the quantity the controller equalizes.
    pub fn weighted_slowdown(&self) -> f64 {
        self.slowdown() * self.weight
    }

    /// Current classifier states `(LLC, MBA)`.
    pub fn classifier_states(&self) -> (AppState, AppState) {
        self.classifier.states()
    }
}

/// Per-application data recorded each period.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPeriod {
    /// Application name.
    pub name: String,
    /// IPS over the period.
    pub ips: f64,
    /// Slowdown estimate (Eq 1).
    pub slowdown: f64,
    /// LLC classifier state after the update.
    pub llc_state: AppState,
    /// MBA classifier state after the update.
    pub mba_state: AppState,
}

/// The record of one adaptation period.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodRecord {
    /// Backend time at the end of the period, nanoseconds.
    pub time_ns: u64,
    /// Phase during the period.
    pub phase: Phase,
    /// System state in force during the period.
    pub state: SystemState,
    /// Per-application measurements.
    pub apps: Vec<AppPeriod>,
    /// Unfairness (Eq 2) of the current slowdown estimates.
    pub unfairness: f64,
}

/// Which planning algorithm drives the exploration phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlannerMode {
    /// The paper's Algorithm 1: per-application disjoint partitions,
    /// Hospitals/Residents matching with θ-retry random restarts.
    #[default]
    Explore,
    /// LFOC-style clustering ([`crate::cluster`]): applications with the
    /// same dual-FSM classification share one CAT partition; the plan is
    /// a deterministic apportionment recomputed each exploring epoch
    /// (no RNG draws).
    LfocCluster,
}

/// Configuration of a consolidation run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Controller parameters.
    pub params: CoPartParams,
    /// Whether the controller may move LLC ways (false for MBA-only).
    pub manage_llc: bool,
    /// Whether the controller may move MBA levels (false for CAT-only).
    pub manage_mba: bool,
    /// The machine slice available to the controller.
    pub budget: WaysBudget,
    /// STREAM reference miss rates per MBA level (§5.3).
    pub stream: StreamReference,
    /// The planning algorithm of the exploration phase.
    pub planner: PlannerMode,
}

impl RuntimeConfig {
    /// Whether profiling under `self` and under `other` is the same
    /// computation. Construction and profiling read the parameters, the
    /// budget and the STREAM table; what the controller manages and how
    /// it plans are read only once exploration starts. Runs whose
    /// configurations agree here may profile once and
    /// [`fork`](ConsolidationRuntime::fork).
    pub fn profiles_like(&self, other: &RuntimeConfig) -> bool {
        let RuntimeConfig {
            params,
            manage_llc: _,
            manage_mba: _,
            budget,
            stream,
            planner: _,
        } = self;
        *params == other.params && *budget == other.budget && *stream == other.stream
    }
}

/// Frozen controller state of one managed application inside a
/// [`RuntimeSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppRuntimeSnapshot {
    /// Raw CLOS id of the application's group.
    pub group: u16,
    /// Display name.
    pub name: String,
    /// `IPS_full` from profiling.
    pub ips_full: f64,
    /// Fairness weight.
    pub weight: f64,
    /// Sensing state (window samples + degraded-mode smoothers).
    pub sensor: SensorSnapshot,
    /// LLC classifier FSM state.
    pub llc_state: AppState,
    /// MBA classifier FSM state.
    pub mba_state: AppState,
    /// IPS of the period before last.
    pub prev_ips: f64,
    /// IPS of the last period.
    pub last_ips: f64,
    /// Transfer events applied at the end of the last period.
    pub last_events: AppliedEvents,
}

/// Frozen controller state of a [`ConsolidationRuntime`], captured at an
/// epoch boundary. Together with a faithfully restored backend this
/// resumes the control loop bit-identically: same decisions, same RNG
/// draws, same trace events.
///
/// Deliberately *not* captured (recovery invariants, DESIGN.md §16):
/// planner/epoch scratch buffers (purely derived; rebuilt from defaults)
/// and the wall-clock latency histograms (`*_ns` metrics, which measure
/// the host, not the simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeSnapshot {
    /// The epoch counter (periods + profiling probes so far).
    pub epoch: u64,
    /// Controller phase.
    pub phase: Phase,
    /// System state currently in force.
    pub state: SystemState,
    /// Per-application cluster assignment when the cluster planner laid
    /// out the partition (empty = disjoint per-application layout).
    pub clusters: Vec<u16>,
    /// Exploration state (RNG position, retries, best seen).
    pub explorer: ExplorerSnapshot,
    /// Per-application controller state, in management order.
    pub apps: Vec<AppRuntimeSnapshot>,
}

/// Reusable per-epoch buffers, so the hot path does not reallocate the
/// same vectors every period.
#[derive(Debug, Default)]
struct EpochScratch {
    /// Classifier verdicts + slowdowns, rebuilt each period.
    classifications: Vec<AppClassification>,
    /// Weighted slowdowns for the unfairness computation.
    slowdowns: Vec<f64>,
    /// Mask layout of the state being applied.
    masks: Vec<copart_rdt::CbmMask>,
    /// Mask layout of the rollback target during a failed transaction.
    rollback_masks: Vec<copart_rdt::CbmMask>,
    /// The epoch's plan (and the planner's reusable buffers).
    plan: Plan,
}

/// The CoPart resource manager: a thin epoch driver over the sensing,
/// classification, planning, and actuation layers.
pub struct ConsolidationRuntime<B: RdtBackend> {
    backend: B,
    apps: Vec<ManagedApp>,
    /// The apps' group ids, cached in app order for the actuator.
    groups: Vec<ClosId>,
    cfg: RuntimeConfig,
    state: SystemState,
    /// Per-application cluster assignment currently in force (empty =
    /// the per-application disjoint layout of the exploration planner).
    clusters: Vec<u16>,
    phase: Phase,
    explorer: Explorer,
    actuator: TransactionalActuator,
    scratch: EpochScratch,
    /// Monotone event counter: one per control period plus one per
    /// profiling probe, advanced whether or not a recorder listens.
    epoch: u64,
    recorder: Box<dyn Recorder + Send>,
    metrics: Arc<MetricsRegistry>,
}

impl<B: RdtBackend> ConsolidationRuntime<B> {
    /// Creates a runtime managing the given groups, applies the equal
    /// split as the initial state, and leaves the manager in the
    /// profiling phase ([`ConsolidationRuntime::profile`] runs it).
    ///
    /// # Errors
    ///
    /// Fails when the initial state cannot be applied to the backend.
    ///
    /// # Panics
    ///
    /// Panics when `groups` is empty or the budget cannot give every
    /// application a way.
    pub fn new(
        backend: B,
        groups: Vec<(ClosId, String)>,
        cfg: RuntimeConfig,
    ) -> Result<Self, RdtError> {
        assert!(!groups.is_empty(), "need at least one application");
        cfg.params.assert_valid();
        let apps: Vec<ManagedApp> = groups
            .into_iter()
            .map(|(g, name)| ManagedApp::new(g, name))
            .collect();
        let group_ids: Vec<ClosId> = apps.iter().map(|a| a.group).collect();
        let state = SystemState::equal_split(apps.len(), &cfg.budget, cfg.budget.mba_cap);
        let explorer = Explorer::new(cfg.params.seed);
        let actuator = TransactionalActuator;
        let mut runtime = ConsolidationRuntime {
            backend,
            apps,
            groups: group_ids,
            cfg,
            state,
            clusters: Vec::new(),
            phase: Phase::Profiling,
            explorer,
            actuator,
            scratch: EpochScratch::default(),
            epoch: 0,
            recorder: Box::new(NullRecorder),
            metrics: Arc::new(MetricsRegistry::new()),
        };
        // The retry-aware path, so a transiently busy backend does not
        // fail construction.
        let mut retries = 0u32;
        runtime.apply_current(&mut retries)?;
        if retries > 0 {
            runtime
                .metrics
                .add("fault_write_retries", u64::from(retries));
        }
        Ok(runtime)
    }

    /// The backend (e.g. to inspect simulator ground truth).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (e.g. for the case study's outer manager).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The managed applications.
    pub fn apps(&self) -> &[ManagedApp] {
        &self.apps
    }

    /// The current system state.
    pub fn state(&self) -> &SystemState {
        &self.state
    }

    /// The cluster assignment currently in force — one cluster id per
    /// application, empty when the exploration planner's disjoint
    /// per-application layout applies.
    pub fn clusters(&self) -> &[u16] {
        &self.clusters
    }

    /// The CAT masks currently programmed, one per application — the
    /// layout of [`state`](Self::state) under [`clusters`](Self::clusters)
    /// (members of one cluster carry the identical mask).
    pub fn masks(&self) -> Vec<copart_rdt::CbmMask> {
        let mut out = Vec::with_capacity(self.apps.len());
        layout_masks_into(
            &self.state,
            &self.clusters,
            &self.cfg.budget,
            self.backend.capabilities().llc_ways,
            &mut out,
        );
        out
    }

    /// The current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The monotone epoch counter (one per control period plus one per
    /// profiling probe) — the chaining key for event-sourced recovery.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Installs a trace recorder (the default is the disabled
    /// [`NullRecorder`]) and returns the previous one, so callers can
    /// recover a buffering sink they handed in earlier.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder + Send>) -> Box<dyn Recorder + Send> {
        std::mem::replace(&mut self.recorder, recorder)
    }

    /// The active trace recorder (e.g. to flush a JSONL sink).
    pub fn recorder_mut(&mut self) -> &mut dyn Recorder {
        self.recorder.as_mut()
    }

    /// The runtime's metrics registry (counters, gauges, latency
    /// histograms fed by [`ConsolidationRuntime::run_period`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A shared handle to the metrics registry, for concurrent readers
    /// such as a `/metrics` listener thread. The registry is internally
    /// synchronized, so the handle can be cloned across threads while
    /// the runtime keeps writing.
    pub fn metrics_handle(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// A point-in-time copy of every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Captures the controller's complete state for crash recovery.
    /// Meant to be taken at an epoch boundary (between `run_period`
    /// calls); pair with a backend snapshot taken at the same moment.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        RuntimeSnapshot {
            epoch: self.epoch,
            phase: self.phase,
            state: self.state.clone(),
            clusters: self.clusters.clone(),
            explorer: self.explorer.snapshot(),
            apps: self
                .apps
                .iter()
                .map(|a| {
                    let (llc_state, mba_state) = a.classifier.states();
                    AppRuntimeSnapshot {
                        group: a.group.0,
                        name: a.name.clone(),
                        ips_full: a.ips_full,
                        weight: a.weight,
                        sensor: a.sensor.snapshot(),
                        llc_state,
                        mba_state,
                        prev_ips: a.prev_ips,
                        last_ips: a.last_ips,
                        last_events: a.last_events,
                    }
                })
                .collect(),
        }
    }

    /// Overwrites the controller's state from a snapshot. The backend
    /// must already hold the matching state (partition table, clock,
    /// application state) — this method touches only the controller side
    /// and performs no backend writes. Scratch buffers are reset to
    /// defaults; they are purely derived and rebuilt on the next period.
    pub fn restore_snapshot(&mut self, snap: &RuntimeSnapshot) {
        self.apps = snap
            .apps
            .iter()
            .map(|a| {
                let mut app = ManagedApp::new(ClosId(a.group), a.name.clone());
                app.ips_full = a.ips_full;
                app.weight = a.weight;
                app.sensor = WindowedSensor::from_snapshot(&a.sensor);
                app.classifier.reset(a.llc_state, a.mba_state);
                app.prev_ips = a.prev_ips;
                app.last_ips = a.last_ips;
                app.last_events = a.last_events;
                app
            })
            .collect();
        self.groups = self.apps.iter().map(|a| a.group).collect();
        self.state = snap.state.clone();
        self.clusters = snap.clusters.clone();
        self.phase = snap.phase;
        self.explorer = Explorer::from_snapshot(&snap.explorer);
        self.epoch = snap.epoch;
        self.scratch = EpochScratch::default();
    }

    /// Replaces the configuration without the [`reconfigure`] restart:
    /// no equal split, no backend writes, no re-profiling. This is the
    /// recovery path's companion to [`restore_snapshot`] — a live policy
    /// switch before the snapshot leaves the dead process running under a
    /// different configuration than the boot scenario describes, and the
    /// restored state must be interpreted under *that* configuration, not
    /// re-adapted from scratch.
    ///
    /// The explorer is untouched (restore it from the snapshot).
    ///
    /// [`reconfigure`]: ConsolidationRuntime::reconfigure
    /// [`restore_snapshot`]: ConsolidationRuntime::restore_snapshot
    ///
    /// # Panics
    ///
    /// Panics when the new parameters are invalid.
    pub fn restore_config(&mut self, cfg: RuntimeConfig) {
        cfg.params.assert_valid();
        self.cfg = cfg;
    }

    /// An independent copy of the runtime at this epoch boundary: the
    /// backend cloned, the controller state carried across by
    /// [`snapshot`](Self::snapshot) and
    /// [`restore_snapshot`](Self::restore_snapshot) (the crash-recovery
    /// path, which resumes bit-identically), the configuration, the
    /// actuator and every metric copied, and a [`NullRecorder`]
    /// installed. The copy and the original then run on independently,
    /// each exactly as the original alone would have.
    pub fn fork(&self) -> ConsolidationRuntime<B>
    where
        B: Clone,
    {
        let mut fork = ConsolidationRuntime {
            backend: self.backend.clone(),
            apps: Vec::new(),
            groups: Vec::new(),
            cfg: self.cfg.clone(),
            state: SystemState::default(),
            clusters: Vec::new(),
            phase: self.phase,
            explorer: Explorer::new(self.cfg.params.seed),
            actuator: self.actuator.clone(),
            scratch: EpochScratch::default(),
            epoch: self.epoch,
            recorder: Box::new(NullRecorder),
            metrics: Arc::new(MetricsRegistry::clone(&self.metrics)),
        };
        fork.restore_snapshot(&self.snapshot());
        fork
    }

    /// Sets an application's fairness weight (default 1.0). Takes effect
    /// from the next period.
    ///
    /// # Errors
    ///
    /// Fails on an unknown group.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive weight (configuration error).
    pub fn set_weight(&mut self, group: ClosId, weight: f64) -> Result<(), RdtError> {
        assert!(weight > 0.0, "weights must be positive");
        let app = self
            .apps
            .iter_mut()
            .find(|a| a.group == group)
            .ok_or(RdtError::UnknownGroup(group))?;
        app.weight = weight;
        // A weight change alters the fairness objective: re-explore.
        if self.phase == Phase::Idle {
            self.phase = Phase::Exploring;
            self.explorer.restart();
        }
        Ok(())
    }

    /// Measures average IPS (and access rate / miss ratio / miss rate) of
    /// one application over `periods` periods, discarding the first.
    /// Transient counter dropouts are retried (profiling has no previous
    /// estimate to fall back on); persistent failures propagate.
    fn probe(
        &mut self,
        idx: usize,
        periods: u32,
        retries: &mut u32,
    ) -> Result<(f64, f64, f64, f64), RdtError> {
        let period = self.cfg.params.period;
        let group = self.apps[idx].group;
        self.backend.advance(period)?; // Settle.
        let start = retry_transient(&mut self.backend, retries, |b| b.read_counters(group))?;
        for _ in 0..periods.max(1) {
            self.backend.advance(period)?;
        }
        let end = retry_transient(&mut self.backend, retries, |b| b.read_counters(group))?;
        let rates = end
            .delta_since(&start)
            .and_then(|d| d.rates())
            .unwrap_or_default();
        Ok((
            rates.ips,
            rates.llc_accesses_per_sec,
            rates.miss_ratio,
            rates.llc_misses_per_sec,
        ))
    }

    /// Runs the application profiling phase (§5.4.1): per application,
    /// measure `IPS_full`, the `(l_P, 100 %)` LLC probe, and the
    /// `(L, M_P)` bandwidth probe; derive initial classifier states; then
    /// enter the exploration phase from the equal-split state.
    ///
    /// # Errors
    ///
    /// Propagates backend failures (transient ones are first retried
    /// with backoff); the phase can be retried.
    pub fn profile(&mut self) -> Result<(), RdtError> {
        let p = self.cfg.params.clone();
        let mut retries = 0u32;
        let budget = self.cfg.budget;
        let machine_ways = self.backend.capabilities().llc_ways;
        let full_mask =
            copart_rdt::CbmMask::contiguous(budget.first_way, budget.total_ways, machine_ways)
                .expect("budget fits the machine");
        let probe_mask = copart_rdt::CbmMask::contiguous(
            budget.first_way,
            p.profile_ways.min(budget.total_ways),
            machine_ways,
        )
        .expect("budget fits the machine");

        for i in 0..self.apps.len() {
            let group = self.apps[i].group;

            // LLC probe first — (l_P, 100 %) — while the application's
            // footprint is still confined to its equal-split region.
            // Probing *after* a full-mask stint would let stale lines in
            // other CLOSes' ways keep serving hits (CAT restricts
            // allocation, not lookup), masking the app's LLC sensitivity.
            retry_transient(&mut self.backend, &mut retries, |b| {
                b.set_cbm(group, probe_mask)
            })?;
            retry_transient(&mut self.backend, &mut retries, |b| {
                b.set_mba(group, budget.mba_cap)
            })?;
            let (ips_llc, probe_access_rate, probe_miss_ratio, _) =
                self.probe(i, p.profile_periods, &mut retries)?;

            // Full resources: IPS_full (the app's mask may overlap the
            // others' during the probe, exactly as CAT allows).
            retry_transient(&mut self.backend, &mut retries, |b| {
                b.set_cbm(group, full_mask)
            })?;
            let (ips_full, _, _, miss_rate) = self.probe(i, p.profile_periods, &mut retries)?;

            // Bandwidth probe: (L, M_P).
            let probe_level = MbaLevel::new(p.profile_mba_percent).min(budget.mba_cap);
            retry_transient(&mut self.backend, &mut retries, |b| {
                b.set_mba(group, probe_level)
            })?;
            let (ips_mba, _, _, _) = self.probe(i, p.profile_periods, &mut retries)?;

            // Restore the shared equal-split allocation for this app.
            self.apply_current(&mut retries)?;

            let probes = ProfileProbes {
                ips_full,
                ips_llc_probe: ips_llc,
                ips_mba_probe: ips_mba,
                probe_access_rate,
                probe_miss_ratio,
                traffic_full: self.cfg.stream.traffic_ratio(miss_rate, budget.mba_cap),
            };
            let (llc_initial, mba_initial) = initial_states(&p, &probes);

            let app = &mut self.apps[i];
            app.ips_full = ips_full;
            app.prev_ips = ips_full;
            app.last_ips = ips_full;
            app.classifier.reset(llc_initial, mba_initial);
            app.last_events = AppliedEvents::default();
            // Seed the degraded-mode estimate so even a first-epoch
            // dropout has something to bridge with.
            app.sensor.reset();
            app.sensor.seed(&Rates {
                ips: ips_full,
                llc_accesses_per_sec: probe_access_rate,
                llc_misses_per_sec: miss_rate,
                miss_ratio: probe_miss_ratio,
            });

            self.metrics.inc("apps_profiled");
            if self.recorder.enabled() {
                // One event per profiled application: its probe
                // measurements and the initial classifier verdicts.
                let name = self.apps[i].name.clone();
                let rates = Rates {
                    ips: ips_full,
                    llc_accesses_per_sec: probe_access_rate,
                    llc_misses_per_sec: miss_rate,
                    miss_ratio: probe_miss_ratio,
                };
                let sample = AppSample::from_rates(
                    &name,
                    1.0, // Fresh IPS_full ⇒ slowdown is 1 by definition.
                    trace_class(llc_initial),
                    trace_class(mba_initial),
                    &rates,
                );
                self.emit(
                    Phase::Profiling,
                    TraceDecision::Profiled,
                    0,
                    0.0,
                    vec![sample],
                    Vec::new(),
                    None,
                );
            }
            self.epoch += 1;
        }

        if retries > 0 {
            self.metrics.add("fault_write_retries", u64::from(retries));
        }
        self.phase = Phase::Exploring;
        self.explorer.restart();
        Ok(())
    }

    /// Runs one adaptation period: advance the platform, sample counters,
    /// update classifiers and slowdowns, and (in the exploration phase)
    /// apply Algorithm 1's next step.
    ///
    /// Per-application counter failures are tolerated: the application is
    /// marked *degraded* for the period — its classifier FSMs and slowdown
    /// estimate hold their previous values and the trace shows its EWMA'd
    /// rates (a counter dropout must not crash the resource manager).
    /// Transient schemata write failures are retried with backoff; a
    /// persistently failing partition apply is rolled back to the previous
    /// partition (never left half-applied) and the exploration simply
    /// continues from the old state next period. Backend `advance`
    /// failures propagate.
    ///
    /// # Errors
    ///
    /// Fails only when the platform cannot advance.
    pub fn run_period(&mut self) -> Result<PeriodRecord, RdtError> {
        let mut record = PeriodRecord {
            time_ns: 0,
            phase: self.phase,
            state: SystemState::default(),
            apps: Vec::new(),
            unfairness: 0.0,
        };
        self.run_period_into(&mut record)?;
        Ok(record)
    }

    /// [`ConsolidationRuntime::run_period`] writing into a caller-held
    /// record whose buffers (per-app entries, their name strings, the
    /// state's allocation vector) are reused in place. With a disabled
    /// recorder, steady-state epochs through this path perform no heap
    /// allocation (gated by `benches/explore_overhead.rs`).
    ///
    /// # Errors
    ///
    /// Fails only when the platform cannot advance.
    pub fn run_period_into(&mut self, record: &mut PeriodRecord) -> Result<(), RdtError> {
        let t_epoch = Instant::now();
        let tracing = self.recorder.enabled();
        let mut fault = FaultSample::new();
        self.backend.advance(self.cfg.params.period)?;

        // Sense and classify.
        self.scratch.classifications.clear();
        record.apps.truncate(self.apps.len());
        let mut trace_apps: Vec<AppSample> = Vec::new();
        for (i, app) in self.apps.iter_mut().enumerate() {
            let mba_level = self.state.allocs[i].mba;
            let reading = app.sensor.ingest(self.backend.read_counters(app.group));
            if reading.dropped {
                self.metrics.inc("fault_counter_dropouts");
                fault.degraded.push(app.name.clone());
            }
            if let Some(r) = reading.rates {
                let perf_delta = if app.prev_ips > 0.0 {
                    (r.ips - app.prev_ips) / app.prev_ips
                } else {
                    0.0
                };
                let m = Measurement {
                    perf_delta,
                    access_rate: r.llc_accesses_per_sec,
                    miss_ratio: r.miss_ratio,
                    traffic_ratio: self
                        .cfg
                        .stream
                        .traffic_ratio(r.llc_misses_per_sec, mba_level),
                };
                app.classifier
                    .observe(&self.cfg.params, &m, app.last_events);
                app.prev_ips = app.last_ips;
                app.last_ips = r.ips;
            }
            app.last_events = AppliedEvents::default();
            let (llc_state, mba_state) = app.classifier.states();
            self.scratch.classifications.push(AppClassification {
                llc: llc_state,
                mba: mba_state,
                // Weight-normalized: a high-priority application competes
                // as if it were more slowed than it is.
                slowdown: app.weighted_slowdown(),
            });
            if let Some(slot) = record.apps.get_mut(i) {
                slot.name.clear();
                slot.name.push_str(&app.name);
                slot.ips = app.last_ips;
                slot.slowdown = app.slowdown();
                slot.llc_state = llc_state;
                slot.mba_state = mba_state;
            } else {
                record.apps.push(AppPeriod {
                    name: app.name.clone(),
                    ips: app.last_ips,
                    slowdown: app.slowdown(),
                    llc_state,
                    mba_state,
                });
            }
            if tracing {
                // A degraded app is traced with its smoothed estimate; an
                // app that merely lacks two samples (startup, clock stall)
                // is traced as zero-rates, exactly as before.
                let shown = app.sensor.display_rates(&reading);
                trace_apps.push(AppSample::from_rates(
                    &app.name,
                    app.slowdown(),
                    trace_class(llc_state),
                    trace_class(mba_state),
                    &shown,
                ));
            }
        }
        if !fault.degraded.is_empty() {
            self.metrics.inc("degraded_epochs");
        }

        self.scratch.slowdowns.clear();
        self.scratch
            .slowdowns
            .extend(self.scratch.classifications.iter().map(|c| c.slowdown));
        let current_unfairness = metrics::unfairness(&self.scratch.slowdowns);

        // What the trace event for this epoch will say.
        let mut decision = TraceDecision::Monitor;
        let mut matching_rounds = 0u32;
        let mut proposed: Vec<AllocSample> = Vec::new();

        match self.phase {
            Phase::Exploring => {
                let measured = self.apps.iter().all(|a| a.sensor.samples() >= 2);
                let t_explore = Instant::now();
                self.explorer.plan_into(
                    &self.cfg,
                    &self.state,
                    &self.clusters,
                    &self.scratch.classifications,
                    current_unfairness,
                    measured,
                    &mut self.scratch.plan,
                );
                self.metrics
                    .observe_ns("explore_ns", t_explore.elapsed().as_nanos() as u64);
                if let Some(rounds) = self.scratch.plan.matching_rounds {
                    matching_rounds = rounds;
                    self.metrics.add("matching_rounds", u64::from(rounds));
                }
                if tracing {
                    proposed = alloc_samples(&self.scratch.plan.proposal);
                }
                // A rolled-back apply leaves the old partition in force:
                // the planner proposes again next period (or, converging,
                // the manager idles where it is).
                let landed =
                    self.scratch.plan.target().is_some() && self.apply_planned_txn(&mut fault);
                if landed {
                    for (app, ev) in self.apps.iter_mut().zip(&self.scratch.plan.events) {
                        app.last_events = *ev;
                    }
                }
                self.explorer
                    .commit(&self.scratch.plan, landed, current_unfairness);
                decision = match self.scratch.plan.decision {
                    PlanDecision::Transfer => {
                        if landed {
                            self.metrics.inc("transfers");
                            if let Some(n) = self.scratch.plan.cluster_count() {
                                self.metrics.inc("cluster_replans");
                                self.metrics.set_gauge("clusters", n as f64);
                            }
                        }
                        TraceDecision::Transfer
                    }
                    PlanDecision::ThetaRetry => {
                        if landed {
                            self.metrics.inc("theta_retries");
                        }
                        TraceDecision::ThetaRetry
                    }
                    PlanDecision::Converge => {
                        self.phase = Phase::Idle;
                        self.metrics.inc("convergences");
                        TraceDecision::Converged
                    }
                };
            }
            Phase::Idle => {
                // §5.4.3: monitor only, but resume adaptation when the
                // fairness picture drifts substantially.
                if self.explorer.should_reexplore(current_unfairness) {
                    self.phase = Phase::Exploring;
                    self.explorer.restart();
                    self.metrics.inc("re_explorations");
                    decision = TraceDecision::ReExplore;
                }
            }
            Phase::Profiling => {
                // run_period before profile(): measure only.
            }
        }

        self.metrics.inc("epochs");
        self.metrics.set_gauge("unfairness", current_unfairness);
        if tracing {
            // Report the phase the controller ends the epoch in, matching
            // the PeriodRecord below.
            let fault = if fault.is_empty() { None } else { Some(fault) };
            self.emit(
                self.phase,
                decision,
                matching_rounds,
                current_unfairness,
                trace_apps,
                proposed,
                fault,
            );
        }
        self.epoch += 1;
        self.metrics
            .observe_ns("epoch_ns", t_epoch.elapsed().as_nanos() as u64);

        record.time_ns = self.backend.now_ns();
        record.phase = self.phase;
        record.state.allocs.clone_from(&self.state.allocs);
        record.unfairness = current_unfairness;
        Ok(())
    }

    /// Runs `n` periods, collecting the records.
    ///
    /// # Errors
    ///
    /// Stops at the first backend failure.
    pub fn run_periods(&mut self, n: u32) -> Result<Vec<PeriodRecord>, RdtError> {
        (0..n).map(|_| self.run_period()).collect()
    }

    /// Installs a new resource budget (the §6.3 outer server manager
    /// shrinking or growing the batch partition) and triggers
    /// re-adaptation from the equal split within the new budget.
    ///
    /// # Errors
    ///
    /// Fails when the new state cannot be applied.
    pub fn set_budget(&mut self, budget: WaysBudget) -> Result<(), RdtError> {
        self.cfg.budget = budget;
        self.state = SystemState::equal_split(self.apps.len(), &budget, budget.mba_cap);
        self.clusters.clear();
        self.apply_state()?;
        for app in &mut self.apps {
            app.last_events = AppliedEvents::default();
            app.sensor.clear_window();
        }
        self.phase = Phase::Exploring;
        self.explorer.restart();
        Ok(())
    }

    /// Removes a terminated application and re-adapts the remainder (the
    /// idle phase's change detection, §5.4.3).
    ///
    /// # Errors
    ///
    /// Fails on an unknown group or when the shrunken state cannot be
    /// applied.
    pub fn remove_app(&mut self, group: ClosId) -> Result<(), RdtError> {
        let idx = self
            .apps
            .iter()
            .position(|a| a.group == group)
            .ok_or(RdtError::UnknownGroup(group))?;
        self.apps.remove(idx);
        self.groups.remove(idx);
        if self.apps.is_empty() {
            return Ok(());
        }
        // Hand the departed application's resources back via equal split
        // and re-explore.
        self.state =
            SystemState::equal_split(self.apps.len(), &self.cfg.budget, self.cfg.budget.mba_cap);
        self.clusters.clear();
        self.apply_state()?;
        self.phase = Phase::Exploring;
        self.explorer.restart();
        Ok(())
    }

    /// Adds a newly launched application. The whole consolidation is
    /// re-profiled (§5.4.3: a launch triggers the adaptation process).
    ///
    /// # Errors
    ///
    /// Fails when the re-profiled initial state cannot be applied.
    pub fn add_app(&mut self, group: ClosId, name: String) -> Result<(), RdtError> {
        self.apps.push(ManagedApp::new(group, name));
        self.groups.push(group);
        self.state =
            SystemState::equal_split(self.apps.len(), &self.cfg.budget, self.cfg.budget.mba_cap);
        self.clusters.clear();
        self.apply_state()?;
        self.phase = Phase::Profiling;
        self.explorer.restart();
        self.profile()
    }

    /// Replaces the whole runtime configuration and restarts adaptation
    /// from scratch: the equal split is re-applied under the new budget
    /// and every application is re-profiled, exactly as if the
    /// consolidation had just been launched. This is the live
    /// policy-switch path (`POST /policy` on the serve daemon).
    ///
    /// # Errors
    ///
    /// Fails when the re-profiled initial state cannot be applied.
    ///
    /// # Panics
    ///
    /// Panics when the new parameters are invalid or the new budget
    /// cannot give every application a way.
    pub fn reconfigure(&mut self, cfg: RuntimeConfig) -> Result<(), RdtError> {
        cfg.params.assert_valid();
        self.cfg = cfg;
        self.explorer = Explorer::new(self.cfg.params.seed);
        self.state =
            SystemState::equal_split(self.apps.len(), &self.cfg.budget, self.cfg.budget.mba_cap);
        self.clusters.clear();
        self.apply_state()?;
        self.phase = Phase::Profiling;
        self.profile()
    }

    /// Writes `self.state`'s allocation for every group through the
    /// actuator, accumulating transient-retry counts into `retries`. The
    /// first persistent failure propagates — membership and budget
    /// changes use this and surface the error to their caller, who owns
    /// the recovery decision.
    ///
    /// The mask layout is chosen by the planner ([`layout_masks_into`]),
    /// not in the actuator.
    fn apply_current(&mut self, retries: &mut u32) -> Result<(), RdtError> {
        let mut report = ApplyReport::default();
        let machine_ways = self.backend.capabilities().llc_ways;
        let ConsolidationRuntime {
            backend,
            groups,
            cfg,
            state,
            clusters,
            actuator,
            scratch,
            ..
        } = self;
        layout_masks_into(
            state,
            clusters,
            &cfg.budget,
            machine_ways,
            &mut scratch.masks,
        );
        let result = actuator.apply(
            backend,
            groups,
            state,
            &cfg.budget,
            &scratch.masks,
            &mut report,
        );
        *retries += report.write_retries;
        result
    }

    fn apply_state(&mut self) -> Result<(), RdtError> {
        let t0 = Instant::now();
        let mut retries = 0u32;
        let result = self.apply_current(&mut retries);
        self.metrics
            .observe_ns("apply_ns", t0.elapsed().as_nanos() as u64);
        self.metrics.inc("backend_applies");
        if retries > 0 {
            self.metrics.add("fault_write_retries", u64::from(retries));
        }
        result
    }

    /// Transactionally switches the partition to the target of the plan
    /// in `scratch.plan` through the actuator (see
    /// [`Actuator::apply_txn`]); on success the target and the plan's
    /// cluster assignment are adopted (buffers reused, no allocation), on
    /// rollback the old partition stays in force. Folds the actuator's
    /// [`ApplyReport`] into the metrics registry and the epoch's fault
    /// sample.
    ///
    /// Both the new and the rollback mask layouts are computed up front:
    /// the transition may cross layout kinds (the first cluster plan
    /// replaces a disjoint equal split), so the rollback target must be
    /// laid out under the assignment *currently* in force while the
    /// target is laid out under the planned one.
    fn apply_planned_txn(&mut self, fault: &mut FaultSample) -> bool {
        let t0 = Instant::now();
        let mut report = ApplyReport::default();
        let machine_ways = self.backend.capabilities().llc_ways;
        let ConsolidationRuntime {
            backend,
            groups,
            cfg,
            state,
            clusters,
            actuator,
            scratch,
            metrics,
            ..
        } = self;
        let plan = &scratch.plan;
        let new = plan.target().expect("only plans with a target are applied");
        layout_masks_into(
            new,
            &plan.clusters,
            &cfg.budget,
            machine_ways,
            &mut scratch.masks,
        );
        layout_masks_into(
            state,
            clusters,
            &cfg.budget,
            machine_ways,
            &mut scratch.rollback_masks,
        );
        let landed = actuator.apply_txn(
            backend,
            groups,
            state,
            new,
            &cfg.budget,
            &scratch.masks,
            &scratch.rollback_masks,
            &mut report,
        );
        if landed {
            state.allocs.clone_from(&new.allocs);
            clusters.clone_from(&plan.clusters);
        } else {
            metrics.add(
                "rollback_write_failures",
                u64::from(report.rollback_write_failures),
            );
            metrics.inc("partition_apply_failures");
            metrics.inc("partition_rollbacks");
            fault.rolled_back = true;
        }
        metrics.observe_ns("apply_ns", t0.elapsed().as_nanos() as u64);
        metrics.inc("backend_applies");
        if report.write_retries > 0 {
            metrics.add("fault_write_retries", u64::from(report.write_retries));
        }
        fault.write_retries += report.write_retries;
        landed
    }

    /// Builds one trace event and hands it to the recorder. Callers gate
    /// on `self.recorder.enabled()` so the disabled path never gets here.
    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        phase: Phase,
        decision: TraceDecision,
        matching_rounds: u32,
        unfairness: f64,
        apps: Vec<AppSample>,
        proposed: Vec<AllocSample>,
        fault: Option<FaultSample>,
    ) {
        let event = TraceEvent {
            epoch: self.epoch,
            time_ns: self.backend.now_ns(),
            phase: trace_phase(phase),
            decision,
            retry_count: self.explorer.retry_count(),
            matching_rounds,
            unfairness,
            apps,
            proposed,
            applied: alloc_samples(&self.state),
            fault,
        };
        self.recorder.record(&event);
    }
}

/// Maps the runtime phase onto its wire representation.
fn trace_phase(phase: Phase) -> TracePhase {
    match phase {
        Phase::Profiling => TracePhase::Profiling,
        Phase::Exploring => TracePhase::Exploring,
        Phase::Idle => TracePhase::Idle,
    }
}

/// Maps a classifier state onto its wire representation.
fn trace_class(state: AppState) -> TraceClass {
    match state {
        AppState::Supply => TraceClass::Supply,
        AppState::Maintain => TraceClass::Maintain,
        AppState::Demand => TraceClass::Demand,
    }
}

/// Snapshots a system state as per-group allocation samples.
fn alloc_samples(state: &SystemState) -> Vec<AllocSample> {
    state
        .allocs
        .iter()
        .map(|a| AllocSample {
            ways: a.ways,
            mba_percent: a.mba.percent(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_rdt::SimBackend;
    use copart_sim::{Machine, MachineConfig};
    use copart_workloads::{mixes::MixKind, mixes::WorkloadMix, stream::StreamReference};

    fn make_runtime(kind: MixKind) -> ConsolidationRuntime<SimBackend> {
        let machine_cfg = MachineConfig::xeon_gold_6130();
        let stream = StreamReference::for_machine(&machine_cfg);
        let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
        let mix = WorkloadMix::paper_default(kind);
        let mut groups = Vec::new();
        for spec in mix.specs() {
            let name = spec.name.clone();
            let g = backend.add_workload(spec).unwrap();
            groups.push((g, name));
        }
        let cfg = RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine_cfg.llc_ways),
            stream,
            planner: Default::default(),
        };
        ConsolidationRuntime::new(backend, groups, cfg).unwrap()
    }

    #[test]
    fn profiling_fills_ips_full_and_initial_states() {
        let mut rt = make_runtime(MixKind::HighLlc);
        assert_eq!(rt.phase(), Phase::Profiling);
        rt.profile().unwrap();
        assert_eq!(rt.phase(), Phase::Exploring);
        for app in rt.apps() {
            assert!(app.ips_full > 0.0, "{} has no IPS_full", app.name);
        }
        // The insensitive member (swaptions) must come out Supply/Supply.
        let sw = rt.apps().iter().find(|a| a.name == "swaptions").unwrap();
        assert_eq!(
            sw.classifier_states(),
            (AppState::Supply, AppState::Supply),
            "an insensitive app should supply both resources"
        );
    }

    #[test]
    fn exploration_converges_to_idle() {
        let mut rt = make_runtime(MixKind::HighLlc);
        rt.profile().unwrap();
        let records = rt.run_periods(60).unwrap();
        assert_eq!(
            records.last().unwrap().phase,
            Phase::Idle,
            "exploration should converge within 60 periods"
        );
        // The state in force is always valid.
        for r in &records {
            assert!(r.state.is_valid(&WaysBudget::full_machine(11)));
        }
    }

    #[test]
    fn exploration_finds_a_sensitivity_proportional_split() {
        // Ground-truth fairness comparisons live in `policies::tests`;
        // here we assert the *structure* the paper predicts for the
        // H-LLC mix (§4.2): water_nsquared needs 4 ways for 90 % of its
        // performance, while the insensitive member can live on the
        // minimum.
        let mut rt = make_runtime(MixKind::HighLlc);
        rt.profile().unwrap();
        let records = rt.run_periods(60).unwrap();
        let last = records.last().unwrap();
        let idx = |name: &str| last.apps.iter().position(|a| a.name == name).unwrap();
        let wn = last.state.allocs[idx("water_nsquared")];
        let sw = last.state.allocs[idx("swaptions")];
        assert!(wn.ways >= 4, "water_nsquared needs ≥4 ways, got {:?}", wn);
        assert!(
            sw.ways <= 2,
            "the insensitive member should donate its ways, got {:?}",
            sw
        );
        assert!(wn.ways > sw.ways);
    }

    #[test]
    fn budget_change_triggers_readaptation() {
        let mut rt = make_runtime(MixKind::ModerateBoth);
        rt.profile().unwrap();
        rt.run_periods(50).unwrap();
        let shrunk = WaysBudget {
            first_way: 6,
            total_ways: 5,
            mba_cap: MbaLevel::new(40),
        };
        rt.set_budget(shrunk).unwrap();
        assert_eq!(rt.phase(), Phase::Exploring);
        let records = rt.run_periods(30).unwrap();
        for r in &records {
            assert!(r.state.is_valid(&shrunk), "state exceeds shrunk budget");
            assert!(r.state.allocs.iter().all(|a| a.mba <= shrunk.mba_cap));
        }
    }

    #[test]
    fn app_removal_redistributes_resources() {
        let mut rt = make_runtime(MixKind::HighBw);
        rt.profile().unwrap();
        rt.run_periods(20).unwrap();
        let victim = rt.apps()[0].group;
        let n_before = rt.apps().len();
        rt.remove_app(victim).unwrap();
        assert_eq!(rt.apps().len(), n_before - 1);
        assert_eq!(rt.phase(), Phase::Exploring);
        let r = rt.run_period().unwrap();
        assert_eq!(r.apps.len(), n_before - 1);
    }

    #[test]
    fn snapshot_restore_resumes_identically() {
        let mut original = make_runtime(MixKind::ModerateBoth);
        original.profile().unwrap();
        original.run_periods(9).unwrap();
        let rt_snap = original.snapshot();
        let machine_snap = original.backend().machine().snapshot();
        let (groups, next_clos) = original.backend().export_groups();

        // Recovery path: construct a fresh runtime (which applies the
        // equal split), then overwrite the backend and controller state
        // from the snapshots.
        let mut resumed = make_runtime(MixKind::ModerateBoth);
        resumed
            .backend_mut()
            .machine_mut()
            .restore(&machine_snap)
            .unwrap();
        resumed.backend_mut().import_groups(&groups, next_clos);
        resumed.restore_snapshot(&rt_snap);
        assert_eq!(resumed.epoch(), original.epoch());
        assert_eq!(resumed.phase(), original.phase());
        for _ in 0..15 {
            let a = original.run_period().unwrap();
            let b = resumed.run_period().unwrap();
            assert_eq!(a, b, "period records diverge after restore");
        }
        assert_eq!(original.snapshot(), resumed.snapshot());
    }

    #[test]
    fn remove_unknown_group_fails() {
        let mut rt = make_runtime(MixKind::Insensitive);
        assert!(matches!(
            rt.remove_app(ClosId(999)),
            Err(RdtError::UnknownGroup(_))
        ));
    }
}

#[cfg(test)]
mod weight_tests {
    use super::*;
    use copart_rdt::SimBackend;
    use copart_sim::{Machine, MachineConfig};
    use copart_workloads::stream::StreamReference;
    use copart_workloads::Benchmark;

    #[test]
    fn weighted_app_wins_contested_resources() {
        let machine_cfg = MachineConfig::xeon_gold_6130();
        let stream = StreamReference::for_machine(&machine_cfg);
        let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
        // Two identical LLC-hungry apps plus two insensitive donors.
        let mut groups = Vec::new();
        for (i, b) in [
            Benchmark::WaterNsquared,
            Benchmark::WaterNsquared,
            Benchmark::Swaptions,
            Benchmark::Ep,
        ]
        .iter()
        .enumerate()
        {
            let mut spec = b.spec();
            spec.name = format!("{}#{i}", spec.name);
            let name = spec.name.clone();
            groups.push((backend.add_workload(spec).unwrap(), name));
        }
        let favored = groups[0].0;
        let rival = groups[1].0;
        let cfg = RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine_cfg.llc_ways),
            stream,
            planner: Default::default(),
        };
        let mut rt = ConsolidationRuntime::new(backend, groups, cfg).unwrap();
        rt.set_weight(favored, 3.0).unwrap();
        rt.profile().unwrap();
        let records = rt.run_periods(60).unwrap();
        let last = records.last().unwrap();
        let idx = |g: ClosId| rt.apps().iter().position(|a| a.group == g).unwrap();
        let favored_ways = last.state.allocs[idx(favored)].ways;
        let rival_ways = last.state.allocs[idx(rival)].ways;
        assert!(
            favored_ways >= rival_ways,
            "weight-3 app holds {favored_ways} ways vs identical rival's {rival_ways}"
        );
        assert!(favored_ways >= 4, "the favored app should reach its knee");
    }

    #[test]
    fn weight_change_reopens_exploration() {
        let machine_cfg = MachineConfig::xeon_gold_6130();
        let stream = StreamReference::for_machine(&machine_cfg);
        let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
        let mut groups = Vec::new();
        for b in [Benchmark::WaterNsquared, Benchmark::Swaptions] {
            let spec = b.spec();
            let name = spec.name.clone();
            groups.push((backend.add_workload(spec).unwrap(), name));
        }
        let g = groups[0].0;
        let cfg = RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine_cfg.llc_ways),
            stream,
            planner: Default::default(),
        };
        let mut rt = ConsolidationRuntime::new(backend, groups, cfg).unwrap();
        rt.profile().unwrap();
        rt.run_periods(40).unwrap();
        assert_eq!(rt.phase(), Phase::Idle);
        rt.set_weight(g, 2.0).unwrap();
        assert_eq!(rt.phase(), Phase::Exploring);
        assert!(matches!(
            rt.set_weight(ClosId(999), 1.0),
            Err(RdtError::UnknownGroup(_))
        ));
    }
}
