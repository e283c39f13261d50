//! Shared bootstrap for daemon and one-shot runs of the same scenario.
//!
//! Byte-identical traces are the repo's determinism contract: a daemon
//! run of N epochs must produce exactly the JSONL a one-shot `sim-run`
//! of the same scenario produces. Every path therefore builds its
//! runtime through this module — same machine model, same mix, same
//! STREAM reference, same seed, same profiling-retry policy — and
//! [`Scenario::reference_trace`] *is* the one-shot path, used by the
//! determinism tests as the expected value.
//!
//! There is one build: the simulator always sits behind the fault
//! decorator, with [`FaultPlan::none`] — fully transparent — when the
//! scenario asks for no faults, so a fault-free and a fault-injected
//! scenario differ in a value, not in a type or a code path.

use copart_core::node;
use copart_core::policies::{self, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::CoPartParams;
use copart_faults::{FaultPlan, FaultyBackend};
use copart_rdt::SimBackend;
use copart_sim::{AppSpec, Machine, MachineConfig};
use copart_telemetry::Recorder;
use copart_workloads::stream::StreamReference;
use copart_workloads::{Benchmark, MixKind, WorkloadMix};

use crate::trace::SharedRing;

/// Profiling passes a launch — and every later admission — gets before
/// giving up. Only a fault-injected backend can ever fail one.
pub const PROFILE_ATTEMPTS: u32 = 5;

/// What consolidation the daemon should run: everything needed to build
/// the runtime deterministically.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which Table 3 mix family to consolidate.
    pub mix: MixKind,
    /// Number of applications (1–6).
    pub n_apps: usize,
    /// The partitioning policy (must be dynamic: CAT-only, MBA-only,
    /// CoPart or LFOC).
    pub policy: PolicyKind,
    /// Seed for the explorer's randomized θ-retries.
    pub seed: u64,
    /// Deterministic fault plan, if the daemon should run injected.
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// A scenario over one of the paper's mixes.
    ///
    /// # Errors
    ///
    /// Rejects an app count outside 1–6 and static policies (EQ, ST and
    /// Utility have no epoch loop to run).
    ///
    /// # Examples
    ///
    /// ```
    /// use copart_core::policies::PolicyKind;
    /// use copart_serve::Scenario;
    /// use copart_workloads::MixKind;
    /// let s = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None).unwrap();
    /// assert_eq!(s.n_apps, 4);
    /// assert!(Scenario::new(MixKind::HighBoth, 4, PolicyKind::Equal, 42, None).is_err());
    /// ```
    pub fn new(
        mix: MixKind,
        n_apps: usize,
        policy: PolicyKind,
        seed: u64,
        faults: Option<FaultPlan>,
    ) -> Result<Scenario, String> {
        if !(1..=6).contains(&n_apps) {
            return Err("app count must be between 1 and 6".into());
        }
        Ok(Scenario {
            mix,
            n_apps,
            policy: require_dynamic(policy)?,
            seed,
            faults,
        })
    }

    /// Measures the environment the scenario runs in (machine model,
    /// STREAM reference table, parameters). The kill/resume harness and
    /// the recovery tests call this per incarnation;
    /// [`StreamReference::for_machine`] measures the table once per
    /// process.
    pub fn env(&self) -> ScenarioEnv {
        let machine = MachineConfig::xeon_gold_6130();
        let mix = WorkloadMix::build(self.mix, self.n_apps, machine.n_cores);
        let stream = StreamReference::for_machine(&machine);
        let params = CoPartParams {
            seed: self.seed,
            ..CoPartParams::default()
        };
        ScenarioEnv {
            machine,
            stream,
            params,
            cores_per_app: mix.cores_per_app,
            policy: self.policy,
            identity: RunIdentity {
                mix: self.mix.label().to_string(),
                seed: self.seed,
                faults: self
                    .faults
                    .as_ref()
                    .map(|p| format!("{p:?}"))
                    .unwrap_or_default(),
            },
        }
    }

    /// The mix's application specs, in slot order.
    pub fn specs(&self, env: &ScenarioEnv) -> Vec<AppSpec> {
        WorkloadMix::build(self.mix, self.n_apps, env.machine.n_cores).specs()
    }

    /// The scenario's machine with nothing admitted yet: the simulator
    /// behind the fault decorator. Crate-visible so recovery can disarm
    /// the decorator before [`node::build`] touches it.
    pub(crate) fn backend(&self, env: &ScenarioEnv) -> FaultyBackend<SimBackend> {
        FaultyBackend::new(
            SimBackend::new(Machine::new(env.machine.clone())),
            self.faults.clone().unwrap_or_else(FaultPlan::none),
        )
    }

    /// Builds the scenario's runtime ([`node::build`]): the mix admitted,
    /// the equal split applied, not yet profiled.
    ///
    /// # Errors
    ///
    /// Fails when the mix does not fit the machine or the initial
    /// partition cannot be applied (through the injected faults, if any).
    pub fn build(
        &self,
        env: &ScenarioEnv,
    ) -> Result<ConsolidationRuntime<FaultyBackend<SimBackend>>, String> {
        node::build(
            self.backend(env),
            &self.specs(env),
            env.runtime_config(self.n_apps, self.policy),
        )
    }

    /// Launches the scenario: [`Scenario::build`], attach `recorder`
    /// (profiling probes are trace events too), then profile with the
    /// [`PROFILE_ATTEMPTS`] budget. What every one-shot surface runs
    /// before its first epoch.
    ///
    /// # Errors
    ///
    /// Propagates build failures and a profiling pass that does not
    /// survive the fault plan.
    pub fn launch(
        &self,
        env: &ScenarioEnv,
        recorder: Box<dyn Recorder + Send>,
    ) -> Result<ConsolidationRuntime<FaultyBackend<SimBackend>>, String> {
        let mut runtime = self.build(env)?;
        runtime.set_recorder(recorder);
        profile_with_retries(&mut runtime, PROFILE_ATTEMPTS)?;
        Ok(runtime)
    }

    /// The one-shot run the daemon is compared against: launch, run
    /// exactly `epochs` periods, and return the trace as JSONL lines.
    /// Fault plans are honored, so the fault-injected daemon has a
    /// reference too.
    ///
    /// # Errors
    ///
    /// Propagates build, profiling, and epoch failures.
    pub fn reference_trace(&self, epochs: u64) -> Result<Vec<String>, String> {
        let ring = SharedRing::new(epochs as usize + 256);
        let mut runtime = self.launch(&self.env(), Box::new(ring.clone()))?;
        for _ in 0..epochs {
            runtime.run_period().map_err(|e| format!("epoch: {e}"))?;
        }
        Ok(ring.all().iter().map(|e| e.to_json_line()).collect())
    }
}

/// `policy` when it runs a controller — the only kind a scenario, the
/// daemon and a persisted run can drive — else the one refusal of a
/// static policy, listing the dynamic ones.
pub(crate) fn require_dynamic(policy: PolicyKind) -> Result<PolicyKind, String> {
    if policy.is_dynamic() {
        return Ok(policy);
    }
    Err(format!(
        "policy {:?} is static; this needs a dynamic policy ({})",
        policy.wire_name(),
        PolicyKind::dynamic_wire_names()
    ))
}

/// What makes one persisted run *this* run: the immutable facts a state
/// directory is checked against before a snapshot is restored over a
/// freshly built runtime. Deliberately excludes the app count and the
/// policy — both drift legitimately over a run's lifetime (admissions,
/// removals, live policy switches) and are restored *from* the snapshot
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// Workload mix label (e.g. `"M-Both"`).
    pub mix: String,
    /// The explorer seed.
    pub seed: u64,
    /// The fault plan's debug rendering (empty = fault-free).
    pub faults: String,
}

/// The measured environment a scenario runs in, kept by the daemon for
/// later admissions and policy switches.
#[derive(Debug, Clone)]
pub struct ScenarioEnv {
    /// The simulated machine model.
    pub machine: MachineConfig,
    /// STREAM reference miss rates per MBA level (§5.3).
    pub stream: StreamReference,
    /// Controller parameters (seeded from the scenario).
    pub params: CoPartParams,
    /// Dedicated cores per consolidated application.
    pub cores_per_app: u32,
    /// The currently active policy.
    pub policy: PolicyKind,
    /// The run's immutable identity (crash-recovery guard).
    pub identity: RunIdentity,
}

impl ScenarioEnv {
    /// The runtime configuration for `policy` over `n_apps`
    /// applications.
    pub fn runtime_config(&self, n_apps: usize, policy: PolicyKind) -> RuntimeConfig {
        policies::dynamic_runtime_config(&self.machine, n_apps, &self.stream, policy, &self.params)
    }

    /// The calibrated spec for a Table 2 benchmark short name (`WN`,
    /// `SP`, ...), pinned to this scenario's per-app core count.
    ///
    /// # Errors
    ///
    /// Rejects unknown short names.
    pub fn spec_for(&self, short: &str) -> Result<AppSpec, String> {
        Benchmark::from_short(short).map(|b| b.spec_with_cores(self.cores_per_app))
    }
}

/// Runs profiling, retrying whole passes up to `attempts` times.
/// Re-exported from the core node seam, where fleet nodes share the
/// exact same retry policy (byte-identical traces depend on it).
pub use copart_core::node::profile_with_retries;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_trace_is_reproducible() {
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let a = scenario.reference_trace(6).unwrap();
        let b = scenario.reference_trace(6).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same scenario, same bytes");
    }

    #[test]
    fn env_resolves_table2_short_names() {
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let env = scenario.env();
        let spec = env.spec_for("wn").unwrap();
        assert!(spec.name.to_lowercase().contains("water") || !spec.name.is_empty());
        assert!(env.spec_for("nope").is_err());
    }
}
