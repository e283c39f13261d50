//! The node lifecycle: one consolidated machine, built, profiled,
//! churned and stepped through one seam.
//!
//! The paper's manager has exactly one lifecycle — profile (§5.4.1),
//! explore (§5.4.2), re-adapt on launch and termination (§5.4.3) — and
//! every surface that owns a machine goes through the functions here
//! instead of re-deriving the choreography:
//!
//! * [`build`] is the node constructor: admit the first applications
//!   into the backend ([`admit_all`]), then [`ConsolidationRuntime::new`]
//!   (which applies the equal split). It is the only place outside tests
//!   that constructs a runtime; one-shot evaluations
//!   ([`crate::policies`]), `copart-serve` scenarios, crash recovery and
//!   fleet nodes all call it.
//! * [`profile_with_retries`] is the launch-time profiling pass with its
//!   retry budget (a fault-injected backend can abort a whole pass).
//! * [`admit_app`] and [`evict_app`] are the membership path: backend
//!   admission, the §5.4.3 launch re-profiling under the same retry
//!   budget, and a full rollback (controller *and* backend) when that
//!   fails; controller removal followed by backend teardown.
//!
//! [`NodeRuntime`] is those functions packaged with the retry budget for
//! owners that hold many nodes (`copart-fleet`); the serve daemon's
//! `PersistedRun` calls [`admit_app`]/[`evict_app`] directly and adds
//! only its own concerns (HTTP status mapping, counters, the event
//! log). Both therefore run the same admission and eviction code, so a
//! fleet node's trace is byte-identical to a daemon's for the same
//! membership history — the invariant the migration tests pin down.
//! [`NodeBackend`] abstracts the one capability the runtime's own
//! [`RdtBackend`] trait lacks: starting and stopping whole workloads.

use std::fmt;

use copart_rdt::{ClosId, RdtBackend, RdtError, SimBackend};
use copart_sim::AppSpec;

use crate::runtime::{ConsolidationRuntime, PeriodRecord, RuntimeConfig, RuntimeSnapshot};

/// A backend that can start and stop whole workloads at runtime, beyond
/// the per-group RDT operations of [`RdtBackend`].
pub trait NodeBackend: RdtBackend {
    /// Starts a workload in a fresh group and returns its id.
    ///
    /// # Errors
    ///
    /// Fails when the platform cannot host another workload.
    fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError>;

    /// Stops a workload and releases its group.
    ///
    /// # Errors
    ///
    /// Fails on an unknown group.
    fn evict(&mut self, group: ClosId) -> Result<(), RdtError>;
}

impl NodeBackend for SimBackend {
    fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError> {
        self.add_workload(spec)
    }

    fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        self.remove_workload(group)
    }
}

/// Admits every spec into the backend, in order, returning
/// `(group, name)` pairs in spec order.
///
/// # Errors
///
/// Fails when a workload does not fit the machine.
pub fn admit_all<B: NodeBackend>(
    backend: &mut B,
    specs: &[AppSpec],
) -> Result<Vec<(ClosId, String)>, String> {
    specs
        .iter()
        .map(|spec| {
            backend
                .admit(spec.clone())
                .map(|group| (group, spec.name.clone()))
                .map_err(|e| format!("admission failed: {e}"))
        })
        .collect()
}

/// The node constructor: admits every spec into the backend (in order)
/// and builds the runtime over them, which applies the equal split. The
/// node is left unprofiled so the caller can attach a trace recorder (or
/// restore a snapshot) first; [`profile_with_retries`] finishes a launch.
///
/// # Errors
///
/// Fails when a workload does not fit the machine or the initial
/// partition cannot be applied.
///
/// # Panics
///
/// Panics when `specs` is empty (a node launches with at least one
/// application; an empty node has no runtime to own).
pub fn build<B: NodeBackend>(
    mut backend: B,
    specs: &[AppSpec],
    cfg: RuntimeConfig,
) -> Result<ConsolidationRuntime<B>, String> {
    assert!(!specs.is_empty(), "a node launches with at least one app");
    let groups = admit_all(&mut backend, specs)?;
    ConsolidationRuntime::new(backend, groups, cfg)
        .map_err(|e| format!("initial partition apply failed: {e}"))
}

/// Runs profiling, retrying whole passes up to `attempts` times — under
/// fault injection a vanished group or a run of busy writes can abort a
/// pass, and every launch (the serve daemon, `sim-run`, fleet nodes)
/// gives it several.
///
/// # Errors
///
/// Returns the last profiling error once the attempts are exhausted.
pub fn profile_with_retries<B: RdtBackend>(
    runtime: &mut ConsolidationRuntime<B>,
    attempts: u32,
) -> Result<(), String> {
    let mut last: Option<RdtError> = None;
    for _ in 0..attempts.max(1) {
        match runtime.profile() {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(format!(
        "profiling did not survive {attempts} attempts: {}",
        last.expect("at least one attempt ran")
    ))
}

/// Why [`admit_app`] did not admit.
#[derive(Debug)]
pub enum AdmitError {
    /// The backend refused the workload; nothing was touched.
    Refused(RdtError),
    /// The workload was admitted but re-profiling did not survive the
    /// retry budget; it was removed from the controller and evicted from
    /// the backend again, so membership is as it was found.
    Profiling(String),
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Refused(e) => write!(f, "admission refused: {e}"),
            AdmitError::Profiling(e) => write!(f, "admitted but re-profiling failed: {e}"),
        }
    }
}

/// Admits one more application: backend admission, then the §5.4.3
/// launch path (equal split + whole-node re-profiling) with up to
/// `attempts` profiling passes — under fault injection a transient abort
/// deserves the same retry allowance a launch gets.
///
/// # Errors
///
/// See [`AdmitError`]; either way the set of managed applications is
/// left as found, in the controller and in the backend.
pub fn admit_app<B: NodeBackend>(
    runtime: &mut ConsolidationRuntime<B>,
    spec: AppSpec,
    name: String,
    attempts: u32,
) -> Result<ClosId, AdmitError> {
    let group = runtime
        .backend_mut()
        .admit(spec)
        .map_err(AdmitError::Refused)?;
    // add_app runs the first profiling pass itself.
    let mut result = runtime.add_app(group, name).map_err(|e| e.to_string());
    if result.is_err() && attempts > 1 {
        result = profile_with_retries(runtime, attempts - 1);
    }
    if let Err(e) = result {
        let _ = runtime.remove_app(group);
        let _ = runtime.backend_mut().evict(group);
        return Err(AdmitError::Profiling(e));
    }
    Ok(group)
}

/// Evicts an application: controller removal (hand back resources,
/// re-explore) then backend teardown. Evicting the last application
/// leaves an empty-but-valid node; owners typically drop it.
///
/// # Errors
///
/// Fails on an unknown group or when the shrunken state cannot be
/// applied.
pub fn evict_app<B: NodeBackend>(
    runtime: &mut ConsolidationRuntime<B>,
    group: ClosId,
) -> Result<(), RdtError> {
    runtime.remove_app(group)?;
    runtime.backend_mut().evict(group)
}

/// One consolidated machine with its controller and its profiling retry
/// budget, owned as a unit: what a fleet (or any other multi-node owner)
/// drives many of.
pub struct NodeRuntime<B: NodeBackend> {
    runtime: ConsolidationRuntime<B>,
    profile_attempts: u32,
}

impl<B: NodeBackend> NodeRuntime<B> {
    /// Launches a node: [`build`], then profiling with up to
    /// `profile_attempts` passes. The attempts budget is kept for later
    /// [`NodeRuntime::admit`] re-profiling too.
    ///
    /// # Errors
    ///
    /// Fails when a workload does not fit the machine, the initial
    /// partition cannot be applied, or profiling does not survive the
    /// retry budget.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty.
    pub fn launch(
        backend: B,
        specs: &[AppSpec],
        cfg: RuntimeConfig,
        profile_attempts: u32,
    ) -> Result<NodeRuntime<B>, String> {
        let mut runtime = build(backend, specs, cfg)?;
        profile_with_retries(&mut runtime, profile_attempts)?;
        Ok(NodeRuntime {
            runtime,
            profile_attempts,
        })
    }

    /// Admits one more application ([`admit_app`] with the node's retry
    /// budget).
    ///
    /// # Errors
    ///
    /// Fails when the workload does not fit or re-profiling does not
    /// survive the retry budget; the node is left as found.
    pub fn admit(&mut self, spec: AppSpec, name: String) -> Result<ClosId, String> {
        admit_app(&mut self.runtime, spec, name, self.profile_attempts).map_err(|e| e.to_string())
    }

    /// Evicts an application ([`evict_app`]).
    ///
    /// # Errors
    ///
    /// Fails on an unknown group or when the shrunken state cannot be
    /// applied.
    pub fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        evict_app(&mut self.runtime, group)
    }

    /// Runs one adaptation period into a caller-held record (the
    /// allocation-free stepping path).
    ///
    /// # Errors
    ///
    /// Fails only when the platform cannot advance.
    pub fn step_into(&mut self, record: &mut PeriodRecord) -> Result<(), RdtError> {
        self.runtime.run_period_into(record)
    }

    /// Number of applications under management.
    pub fn n_apps(&self) -> usize {
        self.runtime.apps().len()
    }

    /// Whether the node manages no applications (post-eviction).
    pub fn is_empty(&self) -> bool {
        self.runtime.apps().is_empty()
    }

    /// The profiling retry budget this node was launched with.
    pub fn profile_attempts(&self) -> u32 {
        self.profile_attempts
    }

    /// Captures the controller's complete state (see
    /// [`ConsolidationRuntime::snapshot`]).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        self.runtime.snapshot()
    }

    /// The underlying runtime (trace recorder, metrics, backend access).
    pub fn runtime(&self) -> &ConsolidationRuntime<B> {
        &self.runtime
    }

    /// Mutable access to the underlying runtime.
    pub fn runtime_mut(&mut self) -> &mut ConsolidationRuntime<B> {
        &mut self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::WaysBudget;
    use crate::CoPartParams;
    use copart_sim::{Machine, MachineConfig};
    use copart_workloads::stream::StreamReference;
    use copart_workloads::Benchmark;

    fn node_config(machine: &MachineConfig) -> RuntimeConfig {
        RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine.llc_ways),
            stream: StreamReference::for_machine(machine),
            planner: Default::default(),
        }
    }

    #[test]
    fn launch_admit_evict_lifecycle() {
        let machine = MachineConfig::xeon_gold_6130();
        let backend = SimBackend::new(Machine::new(machine.clone()));
        let specs = [Benchmark::WaterNsquared.spec(), Benchmark::Swaptions.spec()];
        let mut node = NodeRuntime::launch(backend, &specs, node_config(&machine), 1).unwrap();
        assert_eq!(node.n_apps(), 2);
        for app in node.runtime().apps() {
            assert!(app.ips_full > 0.0, "launch must profile");
        }

        let g = node.admit(Benchmark::Ep.spec(), "ep-late".into()).unwrap();
        assert_eq!(node.n_apps(), 3);
        let mut record = PeriodRecord {
            time_ns: 0,
            phase: crate::runtime::Phase::Exploring,
            state: Default::default(),
            apps: Vec::new(),
            unfairness: 0.0,
        };
        node.step_into(&mut record).unwrap();
        assert_eq!(record.apps.len(), 3);

        node.evict(g).unwrap();
        assert_eq!(node.n_apps(), 2);
        node.step_into(&mut record).unwrap();
        assert_eq!(record.apps.len(), 2);
    }

    #[test]
    fn evicting_everyone_leaves_an_empty_node() {
        let machine = MachineConfig::xeon_gold_6130();
        let backend = SimBackend::new(Machine::new(machine.clone()));
        let specs = [Benchmark::Swaptions.spec()];
        let mut node = NodeRuntime::launch(backend, &specs, node_config(&machine), 1).unwrap();
        let g = node.runtime().apps()[0].group;
        node.evict(g).unwrap();
        assert!(node.is_empty());
    }

    #[test]
    fn node_lifecycle_trace_matches_hand_rolled_setup() {
        // The seam must be a pure refactor of the manual choreography:
        // same admissions, same profiling, same stepping ⇒ byte-identical
        // period records.
        let machine = MachineConfig::xeon_gold_6130();
        let cfg = node_config(&machine);
        let specs = [Benchmark::WaterNsquared.spec(), Benchmark::Ep.spec()];

        let backend = SimBackend::new(Machine::new(machine.clone()));
        let mut node = NodeRuntime::launch(backend, &specs, cfg.clone(), 1).unwrap();

        let mut backend = SimBackend::new(Machine::new(machine.clone()));
        let mut groups = Vec::new();
        for spec in &specs {
            let name = spec.name.clone();
            groups.push((backend.add_workload(spec.clone()).unwrap(), name));
        }
        let mut manual = ConsolidationRuntime::new(backend, groups, cfg).unwrap();
        manual.profile().unwrap();

        for _ in 0..8 {
            let a = node.runtime_mut().run_period().unwrap();
            let b = manual.run_period().unwrap();
            assert_eq!(a, b, "NodeRuntime diverged from the manual setup");
        }
    }
}
