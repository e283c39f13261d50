//! Property-style fault soak: sweep seeds over a hostile deterministic
//! fault plan and assert the hardened runtime's resilience invariants on
//! every epoch — no panic, the applied partition stays valid, unfairness
//! stays finite, and every failed partition apply rolled back.
//!
//! The plans are deterministic (`copart-faults` derives one private RNG
//! stream per fault site from the plan seed), so a seed that passes here
//! passes forever: there is no flakiness to tolerate, only regressions.

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::CoPartParams;
use copart_faults::{FaultPlan, FaultTrigger, FaultyBackend};
use copart_rdt::{ClosId, RdtError, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

fn build(kind: MixKind) -> (SimBackend, Vec<(ClosId, String)>) {
    let mut backend = SimBackend::new(Machine::new(MachineConfig::xeon_gold_6130()));
    let mut groups = Vec::new();
    for spec in WorkloadMix::paper_default(kind).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    (backend, groups)
}

fn runtime_cfg() -> RuntimeConfig {
    RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(11),
        stream: StreamReference::for_machine(&MachineConfig::xeon_gold_6130()),
        planner: Default::default(),
    }
}

/// Every fault site armed at once: transient schemata writes, counter
/// dropouts, clock stalls, and the occasional vanished group (the one
/// persistent fault, which forces the transactional-apply rollback path).
fn hostile_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        counter_dropout: FaultTrigger::Prob { p: 0.05 },
        write_cbm: FaultTrigger::Prob { p: 0.08 },
        write_mba: FaultTrigger::Prob { p: 0.08 },
        vanish: FaultTrigger::Prob { p: 0.003 },
        clock_stall: FaultTrigger::Prob { p: 0.02 },
    }
}

/// Runs one seed end to end. Returns `false` when the plan vanished a
/// group during the *initial* partition apply — construction then fails
/// cleanly with `UnknownGroup` (the correct propagation: a deployment
/// retries group creation), which is an acceptable, deterministic
/// outcome but yields no soak coverage for that seed.
fn soak_one(seed: u64, epochs: u32) -> bool {
    let (backend, groups) = build(MixKind::HighBoth);
    let faulty = FaultyBackend::new(backend, hostile_plan(seed));
    let mut rt = match ConsolidationRuntime::new(faulty, groups, runtime_cfg()) {
        Ok(rt) => rt,
        Err(RdtError::UnknownGroup(_)) => return false,
        Err(e) => panic!("seed {seed}: construction failed with a non-vanish error: {e}"),
    };
    // A vanished group aborts a whole profiling pass (persistent errors
    // are not retried in place); passes are cheap, so take a few.
    let mut profiled = false;
    for _ in 0..10 {
        if rt.profile().is_ok() {
            profiled = true;
            break;
        }
    }
    assert!(profiled, "seed {seed}: profiling should survive 10 passes");

    let budget = WaysBudget::full_machine(11);
    for k in 0..epochs {
        let r = rt
            .run_period()
            .unwrap_or_else(|e| panic!("seed {seed} epoch {k}: period failed: {e}"));
        assert!(
            r.state.is_valid(&budget),
            "seed {seed} epoch {k}: invalid state {:?}",
            r.state
        );
        assert!(
            r.unfairness.is_finite(),
            "seed {seed} epoch {k}: unfairness is not finite"
        );
    }

    let m = rt.metrics_snapshot();
    assert_eq!(
        m.counter("partition_rollbacks"),
        m.counter("partition_apply_failures"),
        "seed {seed}: every failed partition apply must roll back"
    );
    let stats = rt.backend().stats();
    assert!(stats.total() > 0, "seed {seed}: the plan never fired");
    // Unless a rollback write itself was lost, the masks programmed into
    // the (real, undecorated) machine stay inside the granted way range.
    if m.counter("rollback_write_failures") == 0 {
        for app in rt.apps() {
            let (mask, _) = rt
                .backend()
                .inner()
                .machine()
                .clos_config(app.group)
                .unwrap();
            assert!(
                mask.ways().all(|w| w < 11),
                "seed {seed}: mask {mask} escapes the budget"
            );
        }
    }
    true
}

#[test]
fn seed_sweep_soak() {
    let seeds: &[u64] = &[3, 17, 42, 9001, 987654321];
    let soaked = seeds.iter().filter(|&&s| soak_one(s, 200)).count();
    assert!(
        soaked * 2 >= seeds.len(),
        "only {soaked}/{} seeds survived construction — the vanish rate \
         is too hot for real soak coverage",
        seeds.len()
    );
}

/// The hostile plan with the vanish site disarmed: membership churn is
/// driven by the test itself, so groups must not also disappear under it.
fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        vanish: FaultTrigger::Never,
        ..hostile_plan(seed)
    }
}

/// Membership churn while every transient fault site fires: an
/// application departs mid-run and a new one is admitted, each followed
/// by more faulted epochs. The runtime's bookkeeping (apps, cached
/// groups, partition state) must stay consistent through both
/// transitions, and the standing resilience invariants must keep holding.
fn churn_one(seed: u64, epochs: u32) {
    let (backend, groups) = build(MixKind::HighBoth);
    let n0 = groups.len();
    let faulty = FaultyBackend::new(backend, churn_plan(seed));
    let mut rt = ConsolidationRuntime::new(faulty, groups, runtime_cfg())
        .unwrap_or_else(|e| panic!("seed {seed}: construction failed: {e}"));
    let mut profiled = false;
    for _ in 0..10 {
        if rt.profile().is_ok() {
            profiled = true;
            break;
        }
    }
    assert!(profiled, "seed {seed}: profiling should survive 10 passes");

    let budget = WaysBudget::full_machine(11);
    let check_epochs = |rt: &mut ConsolidationRuntime<FaultyBackend<SimBackend>>, stage: &str| {
        for k in 0..epochs {
            let r = rt
                .run_period()
                .unwrap_or_else(|e| panic!("seed {seed} {stage} epoch {k}: period failed: {e}"));
            assert!(
                r.state.is_valid(&budget),
                "seed {seed} {stage} epoch {k}: invalid state {:?}",
                r.state
            );
            assert_eq!(
                r.apps.len(),
                rt.apps().len(),
                "seed {seed} {stage} epoch {k}: period/app bookkeeping diverged"
            );
            assert!(
                r.unfairness.is_finite(),
                "seed {seed} {stage} epoch {k}: unfairness is not finite"
            );
        }
    };
    check_epochs(&mut rt, "pre-churn");

    // Departure. A persistent write fault can abort the shrunken-state
    // apply; the membership change itself must stick either way, and the
    // next successful apply re-synchronizes the backend.
    let victim = rt.apps()[0].group;
    let _ = rt.remove_app(victim);
    assert_eq!(rt.apps().len(), n0 - 1, "seed {seed}: departure lost");
    assert!(
        rt.apps().iter().all(|a| a.group != victim),
        "seed {seed}: victim still managed"
    );
    rt.backend_mut()
        .inner_mut()
        .remove_workload(victim)
        .unwrap_or_else(|e| panic!("seed {seed}: sim removal failed: {e}"));
    check_epochs(&mut rt, "post-remove");

    // Admission: a new workload joins and the whole consolidation is
    // re-profiled. A persistent fault can abort the profiling pass
    // mid-way; the app stays admitted, so re-profile until it sticks.
    let mut spec = copart_workloads::Benchmark::Swaptions.spec();
    spec.name = "late_joiner".to_string();
    let joiner = rt
        .backend_mut()
        .inner_mut()
        .add_workload(spec)
        .unwrap_or_else(|e| panic!("seed {seed}: sim admission failed: {e}"));
    if rt.add_app(joiner, "late_joiner".to_string()).is_err() {
        let mut reprofiled = false;
        for _ in 0..10 {
            if rt.profile().is_ok() {
                reprofiled = true;
                break;
            }
        }
        assert!(
            reprofiled,
            "seed {seed}: re-profiling after admission should survive 10 passes"
        );
    }
    assert_eq!(rt.apps().len(), n0, "seed {seed}: admission lost");
    let late = rt
        .apps()
        .iter()
        .find(|a| a.group == joiner)
        .unwrap_or_else(|| panic!("seed {seed}: late joiner not managed"));
    assert_eq!(late.name, "late_joiner");
    assert!(
        late.ips_full > 0.0,
        "seed {seed}: late joiner was never profiled"
    );
    check_epochs(&mut rt, "post-add");

    let m = rt.metrics_snapshot();
    assert_eq!(
        m.counter("partition_rollbacks"),
        m.counter("partition_apply_failures"),
        "seed {seed}: every failed partition apply must roll back"
    );
    assert_eq!(
        rt.state().allocs.len(),
        rt.apps().len(),
        "seed {seed}: state/app bookkeeping diverged"
    );
}

#[test]
fn app_churn_under_faults() {
    for seed in [7, 23, 1117] {
        churn_one(seed, 60);
    }
}

/// A dropout-heavy, vanish-free plan: hot enough that the runtime is in
/// and out of degraded mode (held FSMs, EWMA'd rates) on any stretch of
/// epochs, so a mid-run kill lands with degraded-mode state in flight.
fn degraded_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        counter_dropout: FaultTrigger::Prob { p: 0.25 },
        vanish: FaultTrigger::Never,
        ..hostile_plan(seed)
    }
}

/// Crash-recovery meets the fault soak: kill the persisted harness run
/// in the middle of a degraded-mode stretch and resume it. Degraded
/// mode is pure runtime state (frozen classifier FSMs, EWMA holds,
/// per-site fault-stream positions), so the resumed continuation must
/// be byte-identical to the run that was never interrupted — the same
/// contract `tests/crash_recovery.rs` proves for clean runs, here under
/// a plan hot enough that the kill point is *inside* the degradation.
#[test]
fn kill_and_resume_mid_degraded_mode() {
    use copart_persist::{harness_run, Scenario};

    let scratch = |tag: &str| {
        let dir = std::env::temp_dir().join(format!("copart-soak-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    };
    let scenario = Scenario::new(
        MixKind::HighBoth,
        3,
        copart_core::policies::PolicyKind::CoPart,
        17,
        Some(degraded_plan(17)),
    )
    .unwrap();
    let total: u64 = 48;
    let kill = total / 2;

    let ref_dir = scratch("degraded-ref");
    let ref_trace = ref_dir.join("trace.jsonl");
    let reference = harness_run(&scenario, total, None, &ref_dir, 5, &ref_trace, false, &[])
        .unwrap_or_else(|e| panic!("reference run failed: {e}"));
    assert!(
        reference.metrics.counter("degraded_epochs") > 0,
        "the plan never degraded the run; this test is not testing anything"
    );

    let kr_dir = scratch("degraded-kr");
    let kr_trace = kr_dir.join("trace.jsonl");
    let killed = harness_run(
        &scenario,
        total,
        Some(kill),
        &kr_dir,
        5,
        &kr_trace,
        false,
        &[],
    )
    .unwrap_or_else(|e| panic!("killed run failed: {e}"));
    assert!(killed.killed, "the run should have died at epoch {kill}");
    assert_eq!(killed.epochs_done, kill);
    assert!(
        killed.metrics.counter("degraded_epochs") > 0,
        "the kill point must land after degraded-mode epochs"
    );

    let resumed = harness_run(&scenario, total, None, &kr_dir, 5, &kr_trace, true, &[])
        .unwrap_or_else(|e| panic!("resume failed: {e}"));
    assert_eq!(resumed.epochs_done, total);
    assert_eq!(
        resumed.metrics.counter("recoveries"),
        1,
        "exactly one recovery should have happened"
    );
    assert_eq!(
        resumed.metrics.counter("degraded_epochs"),
        reference.metrics.counter("degraded_epochs"),
        "the resumed run must re-live the same degraded epochs"
    );

    let want = std::fs::read(&ref_trace).unwrap();
    let got = std::fs::read(&kr_trace).unwrap();
    assert!(!want.is_empty(), "the reference run should have traced");
    assert_eq!(
        got, want,
        "kill/resume mid-degraded-mode must reproduce the uninterrupted trace byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&kr_dir);
}

/// `FaultPlan::none()` must be a true no-op: a run through the decorator
/// with no site armed produces a byte-identical JSONL trace to a run on
/// the bare backend.
#[test]
fn none_plan_is_byte_transparent() {
    let dir = std::env::temp_dir();
    let bare_path = dir.join(format!("copart-soak-bare-{}.jsonl", std::process::id()));
    let none_path = dir.join(format!("copart-soak-none-{}.jsonl", std::process::id()));

    let run_bare = || {
        let (backend, groups) = build(MixKind::HighLlc);
        let mut rt = ConsolidationRuntime::new(backend, groups, runtime_cfg()).unwrap();
        rt.set_recorder(Box::new(
            copart_telemetry::JsonlRecorder::create(&bare_path).unwrap(),
        ));
        rt.profile().unwrap();
        rt.run_periods(40).unwrap();
        rt.set_recorder(Box::new(copart_telemetry::NullRecorder))
            .flush()
            .unwrap();
    };
    let run_none = || {
        let (backend, groups) = build(MixKind::HighLlc);
        let faulty = FaultyBackend::new(backend, FaultPlan::none());
        let mut rt = ConsolidationRuntime::new(faulty, groups, runtime_cfg()).unwrap();
        rt.set_recorder(Box::new(
            copart_telemetry::JsonlRecorder::create(&none_path).unwrap(),
        ));
        rt.profile().unwrap();
        rt.run_periods(40).unwrap();
        rt.set_recorder(Box::new(copart_telemetry::NullRecorder))
            .flush()
            .unwrap();
    };
    run_bare();
    run_none();

    let bare = std::fs::read(&bare_path).unwrap();
    let none = std::fs::read(&none_path).unwrap();
    let _ = std::fs::remove_file(&bare_path);
    let _ = std::fs::remove_file(&none_path);
    assert!(!bare.is_empty(), "the bare run should have traced");
    assert_eq!(
        bare, none,
        "FaultPlan::none() must not perturb the trace by a single byte"
    );
}
