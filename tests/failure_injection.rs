//! Failure injection: the resource manager must survive counter dropouts,
//! application terminations, and abrupt budget revocations without
//! crashing or producing invalid states.

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::{CoPartParams, Phase};
use copart_faults::{FaultPlan, FaultTrigger, FaultyBackend};
use copart_rdt::{ClosId, MbaLevel, SimBackend};
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

#[test]
fn counter_dropouts_do_not_crash_the_manager() {
    let (backend, groups) = build(MixKind::HighBoth);
    // Roughly one dropout per profiling pass, via the shared injector.
    let plan = FaultPlan {
        counter_dropout: FaultTrigger::Every { n: 29 },
        ..FaultPlan::none()
    };
    let flaky = FaultyBackend::new(backend, plan);
    let mut rt = ConsolidationRuntime::new(flaky, groups, runtime_cfg()).unwrap();
    // Dropouts are transient, so the hardened runtime's bounded retry
    // absorbs them even during profiling probes.
    rt.profile().unwrap();
    // Steady-state periods must tolerate dropouts silently.
    let records = rt.run_periods(60).unwrap();
    assert_eq!(records.len(), 60);
    for r in &records {
        assert!(r.state.is_valid(&WaysBudget::full_machine(11)));
        assert!(r.unfairness.is_finite());
    }
    assert!(
        rt.backend().stats().dropouts > 0,
        "the dropout site should have fired"
    );
}

#[test]
fn app_termination_mid_run_redistributes_resources() {
    let (backend, groups) = build(MixKind::HighLlc);
    let victim = groups[1].0;
    let mut rt = ConsolidationRuntime::new(backend, groups, runtime_cfg()).unwrap();
    rt.profile().unwrap();
    rt.run_periods(20).unwrap();

    // The application terminates: remove it from the machine and then
    // from the manager (order as a real deployment would observe it).
    rt.backend_mut().remove_workload(victim).unwrap();
    rt.remove_app(victim).unwrap();
    assert_eq!(
        rt.phase(),
        Phase::Exploring,
        "termination triggers re-adaptation"
    );

    let records = rt.run_periods(30).unwrap();
    let last = records.last().unwrap();
    assert_eq!(last.apps.len(), 3);
    // The remaining applications repartition the full cache.
    let mut union = 0u32;
    for app in rt.apps() {
        let (mask, _) = rt.backend().machine().clos_config(app.group).unwrap();
        union |= mask.bits();
    }
    assert_eq!(union, 0x7ff, "survivors cover the whole LLC");
}

#[test]
fn app_launch_mid_run_triggers_reprofile() {
    // Start with three applications so cores remain for a late launch.
    let mut backend = SimBackend::new(Machine::new(MachineConfig::xeon_gold_6130()));
    let mut groups = Vec::new();
    for spec in WorkloadMix::build(MixKind::ModerateLlc, 3, 12).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let late_spec = copart_workloads::Benchmark::Cg.spec_with_cores(2);
    let late_name = late_spec.name.clone();
    let late = backend.add_workload(late_spec).unwrap();

    let mut rt = ConsolidationRuntime::new(backend, groups, runtime_cfg()).unwrap();
    rt.profile().unwrap();
    rt.run_periods(20).unwrap();
    rt.add_app(late, late_name).unwrap();
    assert_eq!(rt.apps().len(), 4);
    let records = rt.run_periods(20).unwrap();
    assert_eq!(records.last().unwrap().apps.len(), 4);
    assert!(
        rt.apps().iter().all(|a| a.ips_full > 0.0),
        "everyone re-profiled"
    );
}

#[test]
fn abrupt_budget_revocation_keeps_states_valid() {
    let (backend, groups) = build(MixKind::HighBw);
    let mut rt = ConsolidationRuntime::new(backend, groups, runtime_cfg()).unwrap();
    rt.profile().unwrap();
    rt.run_periods(20).unwrap();
    // Revoke most of the cache and throttle hard — the worst case the
    // §6.3 outer manager can inflict.
    let tight = WaysBudget {
        first_way: 7,
        total_ways: 4,
        mba_cap: MbaLevel::MIN,
    };
    rt.set_budget(tight).unwrap();
    let records = rt.run_periods(30).unwrap();
    for r in &records {
        assert!(
            r.state.is_valid(&tight),
            "state {:?} violates budget",
            r.state
        );
    }
    // Programmed masks stay inside the granted way range.
    for app in rt.apps() {
        let (mask, level) = rt.backend().machine().clos_config(app.group).unwrap();
        assert!(
            mask.ways().all(|w| (7..11).contains(&w)),
            "mask {mask} escapes budget"
        );
        assert!(level <= MbaLevel::MIN);
    }
}

#[test]
fn phase_change_wakes_the_idle_manager() {
    // An application that looked insensitive during profiling becomes
    // LLC-hungry mid-run; the idle phase's drift detection (§5.4.3) must
    // notice the fairness shift and re-adapt.
    use copart_sim::trace::AccessPattern;

    let mut backend = SimBackend::new(Machine::new(MachineConfig::xeon_gold_6130()));
    let mut groups = Vec::new();
    // One genuinely LLC-hungry app and one chameleon that starts compute-bound.
    let hungry = copart_workloads::Benchmark::WaterNsquared.spec();
    let chameleon = copart_sim::AppSpec {
        name: "chameleon".into(),
        cores: 4,
        ipc_peak: 1.5,
        apki: 0.02,
        write_fraction: 0.1,
        mlp: 2.0,
        phases: vec![(
            1.0,
            AccessPattern::WorkingSetLoop {
                bytes: 64 * 1024,
                stride: 64,
            },
        )],
    };
    for spec in [hungry, chameleon] {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let chameleon_group = groups[1].0;
    let mut rt = ConsolidationRuntime::new(backend, groups, runtime_cfg()).unwrap();
    rt.profile().unwrap();
    rt.run_periods(40).unwrap();
    assert_eq!(rt.phase(), Phase::Idle, "converged before the phase change");
    let ways_before = {
        let idx = rt
            .apps()
            .iter()
            .position(|a| a.group == chameleon_group)
            .unwrap();
        rt.state().allocs[idx].ways
    };

    // The chameleon turns into a cache-hungry phase.
    rt.backend_mut()
        .set_workload_behaviour(
            chameleon_group,
            1.4,
            6.0,
            2.0,
            vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: 12 * 1024 * 1024, // Six ways' worth.
                    stride: 64,
                },
            )],
        )
        .unwrap();

    let mut reexplored = false;
    for _ in 0..60 {
        let r = rt.run_period().unwrap();
        if r.phase == Phase::Exploring {
            reexplored = true;
        }
    }
    assert!(reexplored, "drift detection should reopen exploration");
    let idx = rt
        .apps()
        .iter()
        .position(|a| a.group == chameleon_group)
        .unwrap();
    let ways_after = rt.state().allocs[idx].ways;
    assert!(
        ways_after > ways_before && ways_after >= 5,
        "the new phase should win ways: {ways_before} → {ways_after}"
    );
}
