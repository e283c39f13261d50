//! The §6.1 resource-allocation policies and a shared evaluation harness.
//!
//! The paper compares five policies on every workload mix:
//!
//! * **EQ** — equal static split of ways, equal MBA share;
//! * **ST** — the best *static* state found by offline search;
//! * **CAT-only** — dynamic LLC partitioning, equal (fixed) MBA;
//! * **MBA-only** — equal (fixed) LLC partitioning, dynamic MBA;
//! * **CoPart** — coordinated dynamic partitioning of both.
//!
//! [`evaluate_policy`] runs one `(mix, policy)` cell on a fresh simulated
//! machine and reports ground-truth fairness: per-application slowdowns
//! are computed against each benchmark's *solo full-resource* IPS
//! (measured independently of the controller), so the controller cannot
//! grade its own homework.
//!
//! [`PolicyKind`] is the one policy table: a single `match` gives each
//! policy — the baselines and CoPart itself — its label, its wire name,
//! and what it runs, either one fixed state or a controller shape.
//! [`evaluate`] is the one evaluation body every cell runs through; its
//! one `match` on that table either holds the fixed state or builds and
//! drives the consolidation runtime. A new policy is a `PolicyKind`
//! variant plus its row (DESIGN.md §12.3).

use std::sync::Mutex;

use copart_rng::XorShift64Star;

use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, SimBackend};
use copart_sim::{AppSpec, Machine, MachineConfig};
use copart_telemetry::{MetricsSnapshot, NullRecorder, Recorder, SharedRecorder};
use copart_workloads::measure::{self, MrcPoint};
use copart_workloads::reference;
use copart_workloads::stream::StreamReference;

use crate::metrics::{self, geomean, unfairness};
use crate::node;
use crate::runtime::{ConsolidationRuntime, PlannerMode, RuntimeConfig};
use crate::state::{AllocationState, SystemState, WaysBudget};
use crate::CoPartParams;

/// The evaluated allocation policies (plus the unpartitioned state used
/// to normalize Figures 4–6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// No partitioning at all: every application gets the full mask and
    /// MBA 100 % (the §4.2 normalization baseline).
    Unpartitioned,
    /// Equal static allocation (EQ).
    Equal,
    /// Best static allocation found by offline search (ST).
    Static,
    /// Dynamic LLC partitioning with equal fixed MBA (CAT-only).
    CatOnly,
    /// Equal fixed LLC with dynamic MBA (MBA-only).
    MbaOnly,
    /// Coordinated dynamic partitioning (CoPart).
    CoPart,
    /// Utility-based static LLC partitioning (UCP/dCat-style, the
    /// paper's closest related work, its reference 45): ways are assigned greedily to
    /// the application with the highest marginal miss-rate reduction,
    /// computed from offline miss-ratio curves; MBA is the equal share.
    /// Not part of the paper's Figure 12; provided as an extra
    /// comparator (`repro compare-utility`).
    Utility,
    /// LFOC-style cache clustering (PR 10): dynamic management of both
    /// resources, but applications are grouped by their dual-FSM
    /// classification into at most nine clusters sharing a CAT region
    /// and a proportional MBA grant, instead of per-app exploration.
    /// Not part of Figure 12; an extra comparator for `copart compare`.
    LfocCluster,
}

impl PolicyKind {
    /// The five policies of Figure 12, in plot order.
    pub fn evaluated() -> &'static [PolicyKind] {
        &[
            PolicyKind::Equal,
            PolicyKind::Static,
            PolicyKind::CatOnly,
            PolicyKind::MbaOnly,
            PolicyKind::CoPart,
        ]
    }

    /// Every registered engine, in report order: the five Figure 12
    /// policies followed by the extra comparators (Utility, LFOC). The
    /// head-to-head harness (`copart compare`) runs all of these;
    /// [`PolicyKind::evaluated`] stays the paper's five.
    pub fn registry() -> &'static [PolicyKind] {
        &[
            PolicyKind::Equal,
            PolicyKind::Static,
            PolicyKind::CatOnly,
            PolicyKind::MbaOnly,
            PolicyKind::CoPart,
            PolicyKind::Utility,
            PolicyKind::LfocCluster,
        ]
    }

    /// The policy table: each policy's `(label, wire name, engine)`. The
    /// one place a policy is defined.
    fn row(self) -> (&'static str, &'static str, Engine) {
        let explore = |manage_llc, manage_mba| Engine::Controller {
            manage_llc,
            manage_mba,
            planner: PlannerMode::Explore,
        };
        match self {
            PolicyKind::Unpartitioned => ("None", "none", Engine::Fixed(None)),
            PolicyKind::Equal => (
                "EQ",
                "eq",
                Engine::Fixed(Some(|_, specs, _, budget, _| {
                    equal_state(specs.len(), budget)
                })),
            ),
            PolicyKind::Static => ("ST", "st", Engine::Fixed(Some(static_search))),
            PolicyKind::CatOnly => ("CAT-only", "cat-only", explore(true, false)),
            PolicyKind::MbaOnly => ("MBA-only", "mba-only", explore(false, true)),
            PolicyKind::CoPart => ("CoPart", "copart", explore(true, true)),
            PolicyKind::Utility => (
                "Utility",
                "utility",
                Engine::Fixed(Some(|machine_cfg, specs, _, budget, _| {
                    utility_state(machine_cfg, specs, budget)
                })),
            ),
            PolicyKind::LfocCluster => (
                "LFOC",
                "lfoc",
                Engine::Controller {
                    manage_llc: true,
                    manage_mba: true,
                    planner: PlannerMode::LfocCluster,
                },
            ),
        }
    }

    /// The paper's label.
    pub fn label(self) -> &'static str {
        self.row().0
    }

    /// The name the policy goes by on the wire and the command line
    /// (`--policy`, `POST /policy`, the event log).
    pub fn wire_name(self) -> &'static str {
        self.row().1
    }

    /// The registered policy with this wire name.
    pub fn from_wire(name: &str) -> Option<PolicyKind> {
        Self::registry()
            .iter()
            .copied()
            .find(|k| k.wire_name() == name)
    }

    /// The registered policy with this label (what snapshots record).
    pub fn from_label(label: &str) -> Option<PolicyKind> {
        Self::registry()
            .iter()
            .copied()
            .find(|k| k.label() == label)
    }

    /// Whether the policy adapts at run time — builds a consolidation
    /// runtime with an epoch loop — rather than fixing one static state.
    pub fn is_dynamic(self) -> bool {
        matches!(self.row().2, Engine::Controller { .. })
    }

    /// The dynamic policies' wire names, in registry order
    /// (`cat-only, mba-only, copart, lfoc`): what every refusal of a
    /// static policy lists.
    pub fn dynamic_wire_names() -> String {
        let dynamic: Vec<&str> = (Self::registry().iter())
            .filter(|k| k.is_dynamic())
            .map(|k| k.wire_name())
            .collect();
        dynamic.join(", ")
    }
}

/// What a policy runs: its column of the [`PolicyKind`] table.
#[derive(Clone, Copy)]
enum Engine {
    /// Hold one state for the whole run, planned from the cell; `None`
    /// applies full overlapping masks at MBA 100 % instead (the
    /// unpartitioned baseline is no disjoint way split).
    Fixed(Option<FixedState>),
    /// Adapt under the consolidation runtime, moving the resources it
    /// manages with `planner`'s algorithm. An unmanaged MBA holds the
    /// equal share.
    Controller {
        manage_llc: bool,
        manage_mba: bool,
        planner: PlannerMode,
    },
}

/// How a fixed-state policy plans its state from the cell: machine,
/// specs, solo IPS, budget and run lengths ([`static_search`]'s shape).
type FixedState = fn(&MachineConfig, &[AppSpec], &[f64], &WaysBudget, &EvalOptions) -> SystemState;

/// Evaluation lengths for one policy run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Periods executed after profiling (one period = `params.period`).
    pub total_periods: u32,
    /// Trailing periods over which ground truth is measured. The window
    /// opens with the counter reading after period `total - measure`, so
    /// it spans `measure - 1` periods — but never fewer than one, and
    /// never more than the run.
    pub measure_periods: u32,
    /// Candidate states evaluated by the ST offline search.
    pub static_candidates: u32,
    /// Periods per ST candidate evaluation.
    pub static_probe_periods: u32,
    /// Seed for ST's random candidate generation.
    pub seed: u64,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            total_periods: 150,
            measure_periods: 75,
            static_candidates: 48,
            static_probe_periods: 12,
            seed: 0x0E7A_15ED,
        }
    }
}

/// Ground-truth result of one `(mix, policy)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalResult {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Unfairness (Eq 2) of the measured slowdowns.
    pub unfairness: f64,
    /// Geometric-mean IPS across applications (the Figure 17 metric).
    pub throughput: f64,
    /// Per-application measured slowdowns.
    pub slowdowns: Vec<f64>,
    /// Unfairness per period over the whole run (timeline).
    pub timeline: Vec<f64>,
}

/// Each `(spec, ways)`'s solo point on `machine_cfg`: the IPS and LLC
/// miss ratio of `spec` running alone with `ways` LLC ways at MBA 100 % —
/// at all ways the Eq 1 numerators of ground-truth slowdowns
/// ([`solo_full_ips`]), at every way count the offline miss-ratio curves
/// Utility plans from ([`utility_state`]). A checked-in value
/// ([`copart_workloads::reference`]) is read; any other is measured once
/// per process, the misses of one call in one fan-out on the pool with
/// the memo unlocked, so no caller waits behind another's measurement. A
/// solo run is a pure function of its `(machine, spec, ways)`, so every
/// answer is exactly a fresh [`measure`](copart_workloads::measure::measure).
pub fn solo_points(machine_cfg: &MachineConfig, queries: &[(&AppSpec, u32)]) -> Vec<MrcPoint> {
    type Memo = Vec<(MachineConfig, AppSpec, MrcPoint)>;
    static MEMO: Mutex<Memo> = Mutex::new(Vec::new());
    let lock = || MEMO.lock().unwrap_or_else(|e| e.into_inner());
    let known = |memo: &Memo, &(spec, ways): &(&AppSpec, u32)| {
        reference::solo_point(machine_cfg, spec, ways).or_else(|| {
            memo.iter()
                .find(|(m, s, p)| p.ways == ways && m == machine_cfg && s == spec)
                .map(|&(_, _, point)| point)
        })
    };
    let mut missing: Vec<(&AppSpec, u32)> = Vec::new();
    {
        let memo = lock();
        for query in queries {
            if known(&memo, query).is_none() && !missing.contains(query) {
                missing.push(*query);
            }
        }
    }
    let measured = copart_parallel::par_map_indexed(&missing, 1, |_, &(spec, ways)| {
        let (ips, rates) = measure::measure(machine_cfg, spec, ways, MbaLevel::MAX);
        MrcPoint {
            ways,
            miss_ratio: rates.miss_ratio,
            ips,
        }
    });
    let mut memo = lock();
    for (query, point) in missing.iter().zip(measured) {
        if known(&memo, query).is_none() {
            memo.push((machine_cfg.clone(), query.0.clone(), point));
        }
    }
    queries
        .iter()
        .map(|query| known(&memo, query).expect("measured above"))
        .collect()
}

/// Each spec's solo full-resource IPS on `machine_cfg`: its all-ways
/// [`solo_points`] entry, exactly a fresh
/// [`measure_full`](copart_workloads::measure::measure_full).
pub fn solo_full_ips(machine_cfg: &MachineConfig, specs: &[AppSpec]) -> Vec<f64> {
    let queries: Vec<(&AppSpec, u32)> = specs.iter().map(|s| (s, machine_cfg.llc_ways)).collect();
    solo_points(machine_cfg, &queries)
        .into_iter()
        .map(|p| p.ips)
        .collect()
}

/// Runs one policy on one workload mix, returning ground-truth fairness
/// and throughput.
///
/// # Panics
///
/// Panics if the simulated machine rejects the mix (more cores demanded
/// than exist) — mixes are constructed to fit.
pub fn evaluate_policy(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    stream: &StreamReference,
    policy: PolicyKind,
    opts: &EvalOptions,
) -> EvalResult {
    let params = CoPartParams {
        seed: opts.seed,
        ..CoPartParams::default()
    };
    evaluate(
        machine_cfg,
        specs,
        ips_full_solo,
        stream,
        policy,
        &params,
        opts,
        Box::new(NullRecorder),
    )
    .0
}

/// The one evaluation body: runs `policy` on one workload mix on a fresh
/// simulated machine. A fixed-state policy plans its state and only
/// measures; a dynamic one is a profiling group of one
/// ([`evaluate_dynamic`]): the consolidation runtime under `params` with
/// `recorder` receiving the whole run (profiling included), adapting
/// while ground truth is measured. Returns the recorder — so a JSONL
/// sink can be flushed or a ring buffer inspected — with a snapshot of
/// the runtime's metrics registry (empty, and the recorder untouched,
/// for a fixed state).
///
/// # Panics
///
/// Panics if the simulated machine rejects the mix (more cores demanded
/// than exist) — mixes are constructed to fit.
#[allow(clippy::too_many_arguments)]
pub fn evaluate(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    stream: &StreamReference,
    policy: PolicyKind,
    params: &CoPartParams,
    opts: &EvalOptions,
    recorder: Box<dyn Recorder + Send>,
) -> Evaluated {
    assert_eq!(specs.len(), ips_full_solo.len());
    match policy.row().2 {
        Engine::Fixed(plan) => {
            let budget = WaysBudget::full_machine(machine_cfg.llc_ways);
            let state = plan.map(|plan| plan(machine_cfg, specs, ips_full_solo, &budget, opts));
            let result = run_static(
                machine_cfg,
                specs,
                ips_full_solo,
                state.as_ref(),
                policy,
                opts,
            );
            (result, recorder, MetricsSnapshot::default())
        }
        Engine::Controller { .. } => {
            let column = (policy, params.clone(), recorder);
            let mut evaluated = evaluate_dynamic(
                machine_cfg,
                specs,
                ips_full_solo,
                stream,
                vec![column],
                opts,
            );
            evaluated.pop().expect("one column in, one result out")
        }
    }
}

/// One dynamic column of a profiling group: the policy, its controller
/// parameters, and the recorder its trace goes to.
pub type DynamicColumn = (PolicyKind, CoPartParams, Box<dyn Recorder + Send>);

/// What one evaluated column hands back: its result, its recorder, and
/// its runtime's metrics.
pub type Evaluated = (EvalResult, Box<dyn Recorder + Send>, MetricsSnapshot);

/// Runs dynamic `columns` on one workload mix, profiling once: every
/// column's runtime configuration must
/// [profile alike](RuntimeConfig::profiles_like). One runtime is built
/// and profiled on a fresh machine, with its profiling events kept when
/// any column traces; each column then continues from a
/// [`fork`](ConsolidationRuntime::fork) of it (the last column from the
/// profiled runtime itself) under its own configuration, its recorder
/// first receiving the profiling events, then the run. Each column's
/// result, trace and metrics are exactly those of profiling it alone.
/// Results come back in column order, and each fork is dropped when its
/// column ends.
///
/// # Panics
///
/// Panics on a fixed-state policy, on columns that do not profile
/// alike, or if the simulated machine rejects the mix.
pub fn evaluate_dynamic(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    stream: &StreamReference,
    columns: Vec<DynamicColumn>,
    opts: &EvalOptions,
) -> Vec<Evaluated> {
    assert_eq!(specs.len(), ips_full_solo.len());
    let cfgs: Vec<RuntimeConfig> = (columns.iter())
        .map(|(policy, params, _)| {
            dynamic_runtime_config(machine_cfg, specs.len(), stream, *policy, params)
        })
        .collect();
    assert!(
        cfgs.iter().all(|c| c.profiles_like(&cfgs[0])),
        "a profiling group's columns must profile alike"
    );
    let backend = SimBackend::new(Machine::new(machine_cfg.clone()));
    let mut profiled = node::build(backend, specs, cfgs[0].clone()).expect("mix fits the machine");
    let profile_trace = SharedRecorder::default();
    if columns.iter().any(|(_, _, recorder)| recorder.enabled()) {
        profiled.set_recorder(Box::new(profile_trace.clone()));
    }
    profiled.profile().expect("simulator profiling cannot fail");
    let profile_events = profile_trace.take();
    let groups: Vec<ClosId> = profiled.apps().iter().map(|a| a.group).collect();
    let last = columns.len() - 1;
    let mut profiled = Some(profiled);
    (columns.into_iter().zip(cfgs).enumerate())
        .map(|(i, ((policy, _, mut recorder), cfg))| {
            let mut runtime = if i < last {
                profiled.as_ref().expect("kept for the last column").fork()
            } else {
                profiled.take().expect("the last column takes it")
            };
            runtime.restore_config(cfg);
            for event in &profile_events {
                recorder.record(event);
            }
            runtime.set_recorder(recorder);
            let (result, mut runtime) =
                evaluate_runtime_traced(runtime, &groups, ips_full_solo, policy, opts, |b, g| {
                    b.read_counters(g).expect("group is live")
                })
                .expect("simulator periods cannot fail");
            let snapshot = runtime.metrics_snapshot();
            let recorder = runtime.set_recorder(Box::new(NullRecorder));
            (result, recorder, snapshot)
        })
        .collect()
}

/// Evaluates a whole batch of fixed states — the Figure 4–6 heatmaps —
/// each held for the run exactly as [`evaluate`] holds a fixed-state
/// policy's, fanned out on the [`copart_parallel`] pool (`--jobs` /
/// `COPART_JOBS` workers). Every state runs on its own fresh machine, so
/// the results — returned in input order — are identical at every job
/// count.
pub fn evaluate_static_states(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    states: &[SystemState],
    opts: &EvalOptions,
) -> Vec<EvalResult> {
    copart_parallel::par_map_indexed(states, 1, |_, state| {
        run_static(
            machine_cfg,
            specs,
            ips_full_solo,
            Some(state),
            PolicyKind::Static,
            opts,
        )
    })
}

/// The EQ state: even way split, equal-share MBA level.
pub fn equal_state(n: usize, budget: &WaysBudget) -> SystemState {
    SystemState::equal_split(n, budget, SystemState::equal_mba_level(n))
}

/// Applies a fixed state (full overlapping masks at MBA 100 % when
/// `None`) and runs the clock, measuring ground truth.
fn run_static(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    state: Option<&SystemState>,
    policy: PolicyKind,
    opts: &EvalOptions,
) -> EvalResult {
    let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
    let groups: Vec<ClosId> = node::admit_all(&mut backend, specs)
        .expect("mix fits the machine")
        .into_iter()
        .map(|(group, _)| group)
        .collect();
    let budget = WaysBudget::full_machine(machine_cfg.llc_ways);
    if let Some(state) = state {
        state
            .apply(&mut backend, &groups, &budget)
            .expect("static state is valid");
    } else {
        let full = CbmMask::full(machine_cfg.llc_ways);
        for &g in &groups {
            backend.set_cbm(g, full).expect("full mask is valid");
            backend.set_mba(g, MbaLevel::MAX).expect("group exists");
        }
    }
    measure_run(backend, &groups, ips_full_solo, policy, opts)
}

/// The [`RuntimeConfig`] a dynamic policy (CAT-only / MBA-only / CoPart /
/// LFOC) runs with: its controller row of the [`PolicyKind`] table over
/// the whole machine. Public so harnesses that build the backend
/// themselves — e.g. to wrap it in a fault-injecting decorator — run the
/// *same* controller configuration [`evaluate`] uses.
///
/// # Panics
///
/// Panics when `policy` is not CAT-only / MBA-only / CoPart / LFOC.
pub fn dynamic_runtime_config(
    machine_cfg: &MachineConfig,
    n_apps: usize,
    stream: &StreamReference,
    policy: PolicyKind,
    params: &CoPartParams,
) -> RuntimeConfig {
    let Engine::Controller {
        manage_llc,
        manage_mba,
        planner,
    } = policy.row().2
    else {
        panic!("static policies do not build a runtime");
    };
    // An unmanaged MBA is pinned at the equal share: the cap is both the
    // initial and the maximum level.
    let mba_cap = if manage_mba {
        MbaLevel::MAX
    } else {
        SystemState::equal_mba_level(n_apps)
    };
    RuntimeConfig {
        params: params.clone(),
        manage_llc,
        manage_mba,
        budget: WaysBudget {
            first_way: 0,
            total_ways: machine_cfg.llc_ways,
            mba_cap,
        },
        stream: stream.clone(),
        planner,
    }
}

/// One source of adaptation periods for the shared measurement loop:
/// either the consolidation runtime (dynamic policies) or a
/// statically-configured backend whose clock simply advances.
trait EpochSource<B: RdtBackend> {
    /// Executes one period.
    fn step(&mut self) -> Result<(), copart_rdt::RdtError>;

    /// The backend, for ground-truth counter reads between periods.
    fn backend_mut(&mut self) -> &mut B;
}

impl<B: RdtBackend> EpochSource<B> for ConsolidationRuntime<B> {
    fn step(&mut self) -> Result<(), copart_rdt::RdtError> {
        self.run_period().map(|_| ())
    }

    fn backend_mut(&mut self) -> &mut B {
        ConsolidationRuntime::backend_mut(self)
    }
}

/// A static policy's period source: nothing adapts, the clock advances.
struct StaticSource {
    backend: SimBackend,
    period: std::time::Duration,
}

impl EpochSource<SimBackend> for StaticSource {
    fn step(&mut self) -> Result<(), copart_rdt::RdtError> {
        self.backend.advance(self.period)
    }

    fn backend_mut(&mut self) -> &mut SimBackend {
        &mut self.backend
    }
}

/// The one ground-truth measurement loop every evaluation runs: step the
/// source one period at a time, read the cumulative counters after each,
/// and measure fairness over the trailing window (at least one period,
/// at most the run).
fn measure_source<B: RdtBackend, S: EpochSource<B>>(
    source: &mut S,
    groups: &[ClosId],
    ips_full_solo: &[f64],
    policy: PolicyKind,
    opts: &EvalOptions,
    mut ground_truth: impl FnMut(&mut B, ClosId) -> copart_telemetry::CounterSnapshot,
) -> Result<EvalResult, copart_rdt::RdtError> {
    let mut timeline = Vec::with_capacity(opts.total_periods as usize);
    let read = |src: &mut S,
                gt: &mut dyn FnMut(&mut B, ClosId) -> copart_telemetry::CounterSnapshot|
     -> Snapshots { groups.iter().map(|&g| gt(src.backend_mut(), g)).collect() };
    let mut prev = read(source, &mut ground_truth);
    // At least one period, at most the run (see `measure_periods`): an
    // empty window divides zero instructions by zero seconds and every
    // statistic comes out NaN.
    let window = opts.measure_periods.max(2);
    let mut start = prev.clone();
    for k in 0..opts.total_periods {
        source.step()?;
        let now = read(source, &mut ground_truth);
        timeline.push(period_unfairness(&prev, &now, ips_full_solo));
        if k + window == opts.total_periods {
            start = now.clone();
        }
        prev = now;
    }
    let end = read(source, &mut ground_truth);
    Ok(finish(policy, &start, &end, ips_full_solo, timeline))
}

/// Measures ground truth over an externally built (already profiled)
/// runtime on *any* backend, adapting each period exactly like
/// [`evaluate`] does.
///
/// `ground_truth` reads one group's cumulative counters for the fairness
/// measurement. It is separate from the runtime's own sampling so a
/// decorated backend (e.g. `copart-faults`' fault injector) can route
/// the measurement past the decoration to the inner simulator — ground
/// truth must stay fault-free even when the controller's view is not.
///
/// # Errors
///
/// Propagates the first [`copart_rdt::RdtError`] a period fails with
/// (with the hardened runtime that is only a failed platform `advance`).
pub fn evaluate_runtime_traced<B: RdtBackend>(
    mut runtime: ConsolidationRuntime<B>,
    groups: &[ClosId],
    ips_full_solo: &[f64],
    policy: PolicyKind,
    opts: &EvalOptions,
    ground_truth: impl FnMut(&mut B, ClosId) -> copart_telemetry::CounterSnapshot,
) -> Result<(EvalResult, ConsolidationRuntime<B>), copart_rdt::RdtError> {
    let result = measure_source(
        &mut runtime,
        groups,
        ips_full_solo,
        policy,
        opts,
        ground_truth,
    )?;
    Ok((result, runtime))
}

/// Measures ground truth over a statically-configured backend.
fn measure_run(
    backend: SimBackend,
    groups: &[ClosId],
    ips_full_solo: &[f64],
    policy: PolicyKind,
    opts: &EvalOptions,
) -> EvalResult {
    let mut source = StaticSource {
        backend,
        period: CoPartParams::default().period,
    };
    measure_source(&mut source, groups, ips_full_solo, policy, opts, |b, g| {
        b.read_counters(g).expect("group is live")
    })
    .expect("sim advance cannot fail")
}

type Snapshots = Vec<copart_telemetry::CounterSnapshot>;

fn ips_between(a: &Snapshots, b: &Snapshots) -> Vec<f64> {
    a.iter()
        .zip(b)
        .map(|(s0, s1)| {
            s1.delta_since(s0)
                .and_then(|d| d.rates())
                .map(|r| r.ips)
                .unwrap_or(0.0)
        })
        .collect()
}

fn period_unfairness(a: &Snapshots, b: &Snapshots, ips_full: &[f64]) -> f64 {
    let slowdowns: Vec<f64> = ips_between(a, b)
        .iter()
        .zip(ips_full)
        .map(|(&ips, &full)| metrics::slowdown(full, ips))
        .collect();
    unfairness(&slowdowns)
}

fn finish(
    policy: PolicyKind,
    start: &Snapshots,
    end: &Snapshots,
    ips_full: &[f64],
    timeline: Vec<f64>,
) -> EvalResult {
    let ips = ips_between(start, end);
    let slowdowns: Vec<f64> = ips
        .iter()
        .zip(ips_full)
        .map(|(&i, &f)| metrics::slowdown(f, i))
        .collect();
    EvalResult {
        policy,
        unfairness: unfairness(&slowdowns),
        throughput: geomean(&ips),
        slowdowns,
        timeline,
    }
}

/// The utility-based (UCP/dCat-style) static LLC allocation: each
/// application's offline miss-ratio curve (its solo MBA-100 % point at
/// every way count, read through [`solo_points`]: checked in for the
/// testbed's compare scenarios and four-app mixes, measured otherwise) is
/// turned into misses per second, then ways are handed out greedily — one
/// at a time to the application whose *marginal utility*
/// (misses-per-second avoided by one more way) is highest. MBA is set to
/// the equal share, since the scheme partitions only the cache.
///
/// This is exactly the machinery CoPart's FSM probes avoid building
/// online; it serves as the related-work comparator.
pub fn utility_state(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    budget: &WaysBudget,
) -> SystemState {
    let queries: Vec<(&AppSpec, u32)> = specs
        .iter()
        .flat_map(|spec| (1..=machine_cfg.llc_ways).map(move |ways| (spec, ways)))
        .collect();
    let points = solo_points(machine_cfg, &queries);
    let curves: Vec<&[MrcPoint]> = points.chunks(machine_cfg.llc_ways as usize).collect();
    utility_allocation(specs, &curves, budget)
}

/// [`utility_state`]'s greedy auction over each spec's miss-ratio curve
/// (`curves[i][w - 1]` is spec `i` at `w` ways).
fn utility_allocation(
    specs: &[AppSpec],
    curves: &[&[MrcPoint]],
    budget: &WaysBudget,
) -> SystemState {
    let n = specs.len();
    assert!(n as u32 <= budget.total_ways, "every app needs a way");
    // Offline solo MRCs: misses/second at each way count.
    let curves: Vec<Vec<f64>> = specs
        .iter()
        .zip(curves)
        .map(|(spec, curve)| {
            curve
                .iter()
                .map(|p| p.miss_ratio * p.ips * spec.apki / 1000.0)
                .collect()
        })
        .collect();

    let mba = SystemState::equal_mba_level(n).min(budget.mba_cap);
    let mut ways = vec![1u32; n];
    let mut remaining = budget.total_ways - n as u32;
    while remaining > 0 {
        // Marginal utility of one more way for each application.
        let (best, _) = (0..n)
            .map(|i| {
                let w = ways[i] as usize;
                let gain = if w < curves[i].len() {
                    (curves[i][w - 1] - curves[i][w]).max(0.0)
                } else {
                    0.0
                };
                (i, gain)
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite utilities"))
            .expect("at least one application");
        ways[best] += 1;
        remaining -= 1;
    }
    SystemState {
        allocs: ways
            .into_iter()
            .map(|w| AllocationState { ways: w, mba })
            .collect(),
    }
}

/// The ST policy's offline search: evaluates the equal split and a
/// population of random valid states on short fresh runs, returning the
/// state with the lowest measured unfairness (the paper's "extensive
/// offline experiments", §6.1).
///
/// The search is the workspace's hottest enumeration loop, so the
/// candidate probes fan out on the [`copart_parallel`] pool. Candidate
/// *i* is generated from its own [`copart_parallel::task_rng`] stream
/// seeded by `(opts.seed, i)` — never from a generator advanced by other
/// candidates — and ties break toward the lower candidate index, so the
/// chosen state is byte-identical at every `--jobs` setting.
pub fn static_search(
    machine_cfg: &MachineConfig,
    specs: &[AppSpec],
    ips_full_solo: &[f64],
    budget: &WaysBudget,
    opts: &EvalOptions,
) -> SystemState {
    let n = specs.len();
    // Candidate 0 is the equal split; 1..=static_candidates are random
    // valid states, each from an index-seeded stream.
    let candidates: Vec<SystemState> = std::iter::once(equal_state(n, budget))
        .chain((0..opts.static_candidates).map(|i| {
            let mut rng = copart_parallel::task_rng(opts.seed ^ 0x57A7_1C5E, u64::from(i));
            random_state(n, budget, &mut rng)
        }))
        .collect();

    let probe_opts = EvalOptions {
        total_periods: opts.static_probe_periods,
        measure_periods: (opts.static_probe_periods / 2).max(1),
        ..*opts
    };
    let probed = copart_parallel::par_map_indexed(&candidates, 1, |_, cand| {
        run_static(
            machine_cfg,
            specs,
            ips_full_solo,
            Some(cand),
            PolicyKind::Static,
            &probe_opts,
        )
        .unfairness
    });
    // Strictly-lower-wins over the in-order results: the earliest of
    // equally good candidates is chosen, exactly as the serial loop did.
    let mut best: Option<(f64, usize)> = None;
    for (i, &unfairness) in probed.iter().enumerate() {
        if best.is_none_or(|(u, _)| unfairness < u) {
            best = Some((unfairness, i));
        }
    }
    let (_, winner) = best.expect("at least the equal split was evaluated");
    candidates.into_iter().nth(winner).expect("index in range")
}

/// A uniformly random valid state: random composition of the budget ways
/// (each app ≥ 1) and random MBA levels under the cap.
fn random_state(n: usize, budget: &WaysBudget, rng: &mut XorShift64Star) -> SystemState {
    // Random composition via stars-and-bars: sample n-1 distinct cut
    // points among total_ways - 1 gaps.
    let total = budget.total_ways;
    let mut cuts: Vec<u32> = Vec::with_capacity(n - 1);
    while cuts.len() < n - 1 {
        let c = rng.gen_range(1..total);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    let mut allocs = Vec::with_capacity(n);
    let mut prev = 0;
    for (i, &c) in cuts.iter().chain(std::iter::once(&total)).enumerate() {
        let _ = i;
        let max_step = usize::from(budget.mba_cap.percent() / 10);
        let level = MbaLevel::new((rng.gen_range(1..=max_step) * 10) as u8);
        allocs.push(AllocationState {
            ways: c - prev,
            mba: level,
        });
        prev = c;
    }
    SystemState { allocs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_workloads::{MixKind, WorkloadMix};

    fn machine_cfg() -> MachineConfig {
        MachineConfig::xeon_gold_6130()
    }

    fn quick_opts() -> EvalOptions {
        EvalOptions {
            total_periods: 60,
            measure_periods: 30,
            static_candidates: 10,
            static_probe_periods: 8,
            seed: 42,
        }
    }

    fn run(kind: MixKind, policy: PolicyKind) -> EvalResult {
        let cfg = machine_cfg();
        let mix = WorkloadMix::paper_default(kind);
        let specs = mix.specs();
        let full = solo_full_ips(&cfg, &specs);
        evaluate_policy(
            &cfg,
            &specs,
            &full,
            &StreamReference::for_machine(&cfg),
            policy,
            &quick_opts(),
        )
    }

    #[test]
    fn labels_and_policy_list() {
        assert_eq!(PolicyKind::evaluated().len(), 5);
        assert_eq!(PolicyKind::CoPart.label(), "CoPart");
        assert_eq!(PolicyKind::Equal.label(), "EQ");
    }

    #[test]
    fn solo_ips_equal_a_fresh_measurement_from_table_and_memo() {
        let measured = |cfg: &MachineConfig, specs: &[AppSpec]| -> Vec<u64> {
            (specs.iter())
                .map(|s| copart_workloads::measure::measure_full(cfg, s).0.to_bits())
                .collect()
        };
        let bits = |ips: Vec<f64>| -> Vec<u64> { ips.into_iter().map(f64::to_bits).collect() };
        // The testbed's mixes are checked in.
        let cfg = machine_cfg();
        let specs = WorkloadMix::paper_default(MixKind::HighBoth).specs();
        assert!((specs.iter()).all(|s| reference::solo_point(&cfg, s, cfg.llc_ways).is_some()));
        assert_eq!(bits(solo_full_ips(&cfg, &specs)), measured(&cfg, &specs));
        // Another machine is measured once (a repeated spec included) and
        // then served from the memo.
        let tiny = MachineConfig::tiny_test();
        let spec = copart_workloads::Benchmark::Swaptions.spec_with_cores(1);
        let twice = [spec.clone(), spec];
        let first = solo_full_ips(&tiny, &twice);
        assert_eq!(bits(first.clone()), measured(&tiny, &twice));
        assert_eq!(solo_full_ips(&tiny, &twice[..1]), first[..1]);
    }

    #[test]
    fn every_registered_policy_round_trips_its_names() {
        for &kind in PolicyKind::registry() {
            assert_eq!(PolicyKind::from_wire(kind.wire_name()), Some(kind));
            assert_eq!(PolicyKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(
            PolicyKind::dynamic_wire_names(),
            "cat-only, mba-only, copart, lfoc"
        );
        // The normalization baseline is not a registered engine, and
        // names are exact.
        assert_eq!(PolicyKind::from_wire("none"), None);
        assert_eq!(PolicyKind::from_wire("CoPart"), None);
        assert_eq!(PolicyKind::from_label("copart"), None);
    }

    #[test]
    fn equal_policy_produces_finite_metrics() {
        let r = run(MixKind::ModerateLlc, PolicyKind::Equal);
        assert!(r.unfairness.is_finite() && r.unfairness >= 0.0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.slowdowns.len(), 4);
        assert!(r.slowdowns.iter().all(|s| *s >= 0.5 && s.is_finite()));
    }

    /// Short runs used to measure over an empty window: with
    /// `measure_periods` 1 the window opened at the final reading, and
    /// with more measure periods than periods it never opened at all;
    /// both printed NaN for every statistic (`compare --seconds 0.6`).
    #[test]
    fn short_runs_measure_over_the_periods_that_ran() {
        let cfg = machine_cfg();
        let specs = WorkloadMix::paper_default(MixKind::HighBw).specs();
        let full = solo_full_ips(&cfg, &specs);
        for (total_periods, measure_periods) in [(3, 1), (2, 1), (1, 1), (2, 5)] {
            let opts = EvalOptions {
                total_periods,
                measure_periods,
                ..quick_opts()
            };
            for policy in [PolicyKind::Equal, PolicyKind::CoPart] {
                let r = evaluate_policy(
                    &cfg,
                    &specs,
                    &full,
                    &StreamReference::for_machine(&cfg),
                    policy,
                    &opts,
                );
                let what =
                    format!("{policy:?} over {total_periods} periods, measuring {measure_periods}");
                assert!(r.unfairness.is_finite(), "{what}: {}", r.unfairness);
                assert!(r.throughput.is_finite() && r.throughput > 0.0, "{what}");
                assert!(r.slowdowns.iter().all(|s| s.is_finite()), "{what}");
                assert_eq!(r.timeline.len(), total_periods as usize, "{what}");
            }
        }
    }

    #[test]
    fn copart_beats_equal_on_the_llc_mix() {
        let eq = run(MixKind::HighLlc, PolicyKind::Equal);
        let co = run(MixKind::HighLlc, PolicyKind::CoPart);
        assert!(
            co.unfairness < eq.unfairness,
            "CoPart {:.4} should beat EQ {:.4}",
            co.unfairness,
            eq.unfairness
        );
    }

    #[test]
    fn traced_evaluation_returns_events_and_metrics() {
        use copart_telemetry::{read_trace_file, JsonlRecorder, TraceDecision};
        let cfg = machine_cfg();
        let mix = WorkloadMix::paper_default(MixKind::HighLlc);
        let specs = mix.specs();
        let full = solo_full_ips(&cfg, &specs);
        let opts = quick_opts();
        let path = std::env::temp_dir().join(format!("copart-traced-{}.jsonl", std::process::id()));
        let sink = Box::new(JsonlRecorder::create(&path).unwrap());
        let (result, mut recorder, snapshot) = evaluate(
            &cfg,
            &specs,
            &full,
            &StreamReference::for_machine(&cfg),
            PolicyKind::CoPart,
            &CoPartParams::default(),
            &opts,
            sink,
        );
        recorder.flush().unwrap();
        drop(recorder);
        let events = read_trace_file(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert!(result.unfairness.is_finite());
        // One event per profiling probe plus one per control period,
        // strictly monotone epoch numbers.
        assert_eq!(events.len(), specs.len() + opts.total_periods as usize);
        assert!(events.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert!(events
            .iter()
            .take(specs.len())
            .all(|e| e.decision == TraceDecision::Profiled));

        assert_eq!(snapshot.counter("epochs"), u64::from(opts.total_periods));
        assert_eq!(snapshot.counter("apps_profiled"), specs.len() as u64);
        let epoch_hist = snapshot.histogram("epoch_ns").expect("epoch_ns recorded");
        assert_eq!(epoch_hist.count(), u64::from(opts.total_periods));
        assert!(snapshot.histogram("explore_ns").is_some());
        assert!(snapshot.counter("transfers") > 0, "CoPart should transfer");
    }

    #[test]
    fn random_states_are_valid() {
        let budget = WaysBudget::full_machine(11);
        let mut rng = XorShift64Star::seed_from_u64(1);
        for _ in 0..100 {
            for n in 2..=6 {
                let s = random_state(n, &budget, &mut rng);
                assert!(s.is_valid(&budget), "invalid random state {s:?}");
                assert_eq!(s.total_ways(), 11);
            }
        }
    }

    #[test]
    fn static_search_never_loses_to_equal() {
        let cfg = machine_cfg();
        let mix = WorkloadMix::paper_default(MixKind::ModerateBw);
        let specs = mix.specs();
        let full = solo_full_ips(&cfg, &specs);
        let opts = quick_opts();
        let budget = WaysBudget::full_machine(cfg.llc_ways);
        let st = static_search(&cfg, &specs, &full, &budget, &opts);
        assert!(st.is_valid(&budget));
        // The search evaluated the equal split among its candidates, so
        // its pick can only be at least as good on the probe runs.
        let probe = EvalOptions {
            total_periods: opts.static_probe_periods,
            measure_periods: opts.static_probe_periods / 2,
            ..opts
        };
        let eq = run_static(
            &cfg,
            &specs,
            &full,
            Some(&equal_state(specs.len(), &budget)),
            PolicyKind::Equal,
            &probe,
        );
        let st_res = run_static(&cfg, &specs, &full, Some(&st), PolicyKind::Static, &probe);
        assert!(st_res.unfairness <= eq.unfairness + 1e-9);
    }
}

#[cfg(test)]
mod utility_tests {
    use super::*;
    use copart_workloads::Benchmark;

    #[test]
    fn utility_feeds_the_cache_hungry_and_respects_floors() {
        let cfg = MachineConfig::xeon_gold_6130();
        let specs = vec![
            Benchmark::WaterNsquared.spec(), // Needs 4 ways.
            Benchmark::Swaptions.spec(),     // Needs nothing.
        ];
        let budget = WaysBudget::full_machine(cfg.llc_ways);
        let state = utility_state(&cfg, &specs, &budget);
        assert!(state.is_valid(&budget));
        assert_eq!(state.total_ways(), cfg.llc_ways);
        assert!(
            state.allocs[0].ways >= 4,
            "WN should win the greedy auction: {:?}",
            state
        );
        assert!(state.allocs[1].ways >= 1, "floor of one way each");
        assert!(state.allocs[0].ways > state.allocs[1].ways);
    }

    /// A machine outside the checked-in table: every curve point is
    /// measured (on the pool, through the memo) and the plan is the one
    /// fresh miss-ratio curves give.
    #[test]
    fn utility_off_the_table_plans_from_fresh_curves() {
        let tiny = MachineConfig::tiny_test();
        let specs = vec![
            Benchmark::WaterNsquared.spec_with_cores(1),
            Benchmark::Swaptions.spec_with_cores(1),
            Benchmark::Cg.spec_with_cores(2),
        ];
        assert!(specs
            .iter()
            .all(|s| reference::solo_point(&tiny, s, tiny.llc_ways).is_none()));
        let fresh: Vec<Vec<MrcPoint>> = specs
            .iter()
            .map(|s| measure::miss_ratio_curve(&tiny, s))
            .collect();
        let curves: Vec<&[MrcPoint]> = fresh.iter().map(Vec::as_slice).collect();
        let budget = WaysBudget::full_machine(tiny.llc_ways);
        let expected = utility_allocation(&specs, &curves, &budget);
        assert_eq!(utility_state(&tiny, &specs, &budget), expected);
        // The memo now answers with the same bits.
        let queries: Vec<(&AppSpec, u32)> = (specs.iter())
            .flat_map(|s| (1..=tiny.llc_ways).map(move |w| (s, w)))
            .collect();
        let bits = |p: &MrcPoint| (p.ways, p.ips.to_bits(), p.miss_ratio.to_bits());
        assert_eq!(
            solo_points(&tiny, &queries)
                .iter()
                .map(bits)
                .collect::<Vec<_>>(),
            fresh.iter().flatten().map(bits).collect::<Vec<_>>()
        );
    }
}
