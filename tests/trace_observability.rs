//! Cross-crate observability integration: a short sim-backend run must
//! emit exactly one trace event per control epoch, with monotone epoch
//! numbers and the controller phases appearing in Figure 10 order
//! (Profiling → Exploring → Idle).

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::CoPartParams;
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::{
    check_trace, read_trace_file, JsonlRecorder, NullRecorder, TraceDecision, TraceEvent,
    TracePhase,
};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

const PERIODS: u32 = 80;

/// Runs CoPart on the paper-default H-LLC mix with a JSONL recorder and
/// returns the parsed trace plus the app count.
fn traced_run() -> (Vec<TraceEvent>, usize) {
    let cfg = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::for_machine(&cfg);
    let mut backend = SimBackend::new(Machine::new(cfg.clone()));
    let mut groups: Vec<(ClosId, String)> = Vec::new();
    for spec in WorkloadMix::paper_default(MixKind::HighLlc).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let n_apps = groups.len();
    let rcfg = RuntimeConfig {
        params: CoPartParams {
            seed: 7,
            ..CoPartParams::default()
        },
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(cfg.llc_ways),
        stream,
        planner: Default::default(),
    };
    let path =
        std::env::temp_dir().join(format!("copart-observability-{}.jsonl", std::process::id()));
    let mut rt = ConsolidationRuntime::new(backend, groups, rcfg).unwrap();
    rt.set_recorder(Box::new(JsonlRecorder::create(&path).unwrap()));
    rt.profile().unwrap();
    rt.run_periods(PERIODS).unwrap();
    rt.set_recorder(Box::new(NullRecorder))
        .flush()
        .expect("trace flushes");
    let events = read_trace_file(&path).expect("trace parses back");
    let _ = std::fs::remove_file(&path);
    (events, n_apps)
}

#[test]
fn one_event_per_epoch_with_fig10_phase_order() {
    let (events, n_apps) = traced_run();

    // One event per control epoch: one per profiling probe, one per
    // period, gapless from epoch 0 in monotone time.
    let (n, profiled) = check_trace(&events).expect("the trace holds its invariants");
    assert_eq!(n, n_apps + PERIODS as usize);
    assert_eq!(profiled, n_apps, "one profiling probe per app");

    // Phases in Figure 10 order: collapse consecutive repeats and check
    // the run starts Profiling → Exploring and reaches Idle; later
    // re-explorations may only alternate Exploring ↔ Idle.
    let mut order: Vec<TracePhase> = Vec::new();
    for e in &events {
        if order.last() != Some(&e.phase) {
            order.push(e.phase);
        }
    }
    assert!(
        order.len() >= 3 && order[0] == TracePhase::Profiling,
        "run must start in Profiling: {order:?}"
    );
    assert_eq!(
        order[1],
        TracePhase::Exploring,
        "profiling hands off to Exploring"
    );
    assert_eq!(
        order[2],
        TracePhase::Idle,
        "exploration must converge to Idle"
    );
    assert!(
        order[3..]
            .iter()
            .all(|p| matches!(p, TracePhase::Exploring | TracePhase::Idle)),
        "Profiling never recurs: {order:?}"
    );

    // Per-event shape: profiling events carry exactly the probed app;
    // control events carry every app and a full applied partition.
    let budget = WaysBudget::full_machine(11);
    for e in &events {
        if e.phase == TracePhase::Profiling {
            assert_eq!(e.decision, TraceDecision::Profiled);
            assert_eq!(e.apps.len(), 1);
        } else {
            assert_eq!(e.apps.len(), n_apps);
            assert_eq!(e.applied.len(), n_apps);
            let ways: u32 = e.applied.iter().map(|a| a.ways).sum();
            assert_eq!(
                ways, budget.total_ways,
                "applied partition uses the full budget"
            );
            for app in &e.apps {
                assert!(app.slowdown.is_finite() && app.slowdown > 0.0);
            }
        }
    }
}
