//! Long-horizon invariants of the resource manager: whatever the mix and
//! seed, every state ever applied must satisfy the partitioning rules,
//! and the manager must always terminate its exploration.

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::{CoPartParams, Phase};
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

fn run_with_seed(kind: MixKind, seed: u64) -> Vec<copart_core::PeriodRecord> {
    let cfg = MachineConfig::xeon_gold_6130();
    let mut backend = SimBackend::new(Machine::new(cfg.clone()));
    let mut groups: Vec<(ClosId, String)> = Vec::new();
    for spec in WorkloadMix::paper_default(kind).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let rcfg = RuntimeConfig {
        params: CoPartParams {
            seed,
            ..CoPartParams::default()
        },
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(cfg.llc_ways),
        stream: StreamReference::for_machine(&cfg),
        planner: Default::default(),
    };
    let mut rt = ConsolidationRuntime::new(backend, groups, rcfg).unwrap();
    rt.profile().unwrap();
    rt.run_periods(80).unwrap()
}

#[test]
fn every_applied_state_is_valid_across_seeds_and_mixes() {
    let budget = WaysBudget::full_machine(11);
    for kind in [MixKind::HighLlc, MixKind::HighBw, MixKind::HighBoth] {
        for seed in [1u64, 99, 0xDEAD] {
            let records = run_with_seed(kind, seed);
            for r in &records {
                assert!(
                    r.state.is_valid(&budget),
                    "{:?} seed {seed}: invalid state {:?}",
                    kind,
                    r.state
                );
                assert!(r.unfairness.is_finite() && r.unfairness >= 0.0);
                for app in &r.apps {
                    assert!(app.slowdown.is_finite() && app.slowdown > 0.0);
                }
            }
            // Algorithm 1's θ retries bound the search: the manager
            // reaches Idle, and no exploration burst (including the
            // Figure 10 re-explorations triggered by unfairness drift,
            // one of which may still be in flight when the horizon
            // ends) runs unboundedly.
            assert!(
                records.iter().any(|r| r.phase == Phase::Idle),
                "{kind:?} seed {seed} never converged"
            );
            let mut burst = 0usize;
            for r in &records {
                if r.phase == Phase::Exploring {
                    burst += 1;
                    assert!(
                        burst <= 40,
                        "{kind:?} seed {seed}: exploration burst exceeded 40 periods"
                    );
                } else {
                    burst = 0;
                }
            }
        }
    }
}

#[test]
fn time_advances_monotonically_across_periods() {
    let records = run_with_seed(MixKind::ModerateBoth, 7);
    for pair in records.windows(2) {
        assert!(pair[1].time_ns > pair[0].time_ns);
    }
}
