//! Cross-crate integration: the full CoPart stack (simulator → RDT
//! backend → controller → policies) on real workload mixes.

use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::{CoPartParams, Phase};
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

fn machine_cfg() -> MachineConfig {
    MachineConfig::xeon_gold_6130()
}

fn quick_opts() -> EvalOptions {
    EvalOptions {
        total_periods: 80,
        measure_periods: 40,
        static_candidates: 8,
        static_probe_periods: 8,
        seed: 7,
    }
}

fn run(kind: MixKind, policy: PolicyKind) -> policies::EvalResult {
    let cfg = machine_cfg();
    let mix = WorkloadMix::paper_default(kind);
    let specs = mix.specs();
    let full = policies::solo_full_ips(&cfg, &specs);
    policies::evaluate_policy(
        &cfg,
        &specs,
        &full,
        &StreamReference::for_machine(&cfg),
        policy,
        &quick_opts(),
    )
}

#[test]
fn copart_beats_equal_on_every_sensitive_mix() {
    for kind in [
        MixKind::HighLlc,
        MixKind::HighBw,
        MixKind::HighBoth,
        MixKind::ModerateLlc,
        MixKind::ModerateBw,
        MixKind::ModerateBoth,
    ] {
        let eq = run(kind, PolicyKind::Equal);
        let co = run(kind, PolicyKind::CoPart);
        assert!(
            co.unfairness < eq.unfairness,
            "{}: CoPart {:.4} should beat EQ {:.4}",
            kind.label(),
            co.unfairness,
            eq.unfairness
        );
    }
}

#[test]
fn copart_beats_cat_only_on_bw_mix_and_mba_only_on_llc_mix() {
    // The paper's core claim: a single-resource policy leaves fairness on
    // the table exactly where the other resource matters.
    let cat = run(MixKind::HighBw, PolicyKind::CatOnly);
    let co_bw = run(MixKind::HighBw, PolicyKind::CoPart);
    assert!(
        co_bw.unfairness < cat.unfairness,
        "CoPart {:.4} vs CAT-only {:.4} on H-BW",
        co_bw.unfairness,
        cat.unfairness
    );

    let mba = run(MixKind::HighLlc, PolicyKind::MbaOnly);
    let co_llc = run(MixKind::HighLlc, PolicyKind::CoPart);
    assert!(
        co_llc.unfairness < mba.unfairness * 1.5,
        "CoPart {:.4} should be at least comparable to MBA-only {:.4} on H-LLC",
        co_llc.unfairness,
        mba.unfairness
    );
}

#[test]
fn copart_is_comparable_to_offline_static_search() {
    let st = run(MixKind::HighLlc, PolicyKind::Static);
    let co = run(MixKind::HighLlc, PolicyKind::CoPart);
    assert!(
        co.unfairness < st.unfairness * 3.0 + 0.02,
        "CoPart {:.4} should be in ST's league ({:.4})",
        co.unfairness,
        st.unfairness
    );
}

#[test]
fn copart_throughput_does_not_collapse() {
    // §6.4.2: fairness must not come at a large throughput cost.
    let eq = run(MixKind::HighBoth, PolicyKind::Equal);
    let co = run(MixKind::HighBoth, PolicyKind::CoPart);
    assert!(
        co.throughput > eq.throughput * 0.9,
        "CoPart throughput {:.3e} vs EQ {:.3e}",
        co.throughput,
        eq.throughput
    );
}

#[test]
fn controller_converges_to_idle_and_masks_partition_the_budget() {
    let cfg = machine_cfg();
    let mut backend = SimBackend::new(Machine::new(cfg.clone()));
    let mut groups: Vec<(ClosId, String)> = Vec::new();
    for spec in WorkloadMix::paper_default(MixKind::HighBoth).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let rcfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(cfg.llc_ways),
        stream: StreamReference::for_machine(&cfg),
        planner: Default::default(),
    };
    let mut rt = ConsolidationRuntime::new(backend, groups, rcfg).unwrap();
    rt.profile().unwrap();
    let mut idled = false;
    for _ in 0..80 {
        let r = rt.run_period().unwrap();
        if r.phase == Phase::Idle {
            idled = true;
            break;
        }
    }
    assert!(idled, "controller should converge within 80 periods");

    // The masks programmed into the simulated hardware must partition the
    // budget: pairwise disjoint, covering all 11 ways.
    let mut union = 0u32;
    for app in rt.apps() {
        let (mask, _) = rt.backend().machine().clos_config(app.group).unwrap();
        assert_eq!(union & mask.bits(), 0, "masks must not overlap");
        union |= mask.bits();
    }
    assert_eq!(union, (1 << cfg.llc_ways) - 1, "masks must cover the LLC");
}

#[test]
fn unfairness_timeline_has_one_entry_per_period() {
    let r = run(MixKind::ModerateBoth, PolicyKind::CoPart);
    assert_eq!(r.timeline.len(), quick_opts().total_periods as usize);
    assert!(r.timeline.iter().all(|u| u.is_finite() && *u >= 0.0));
}

#[test]
fn full_runs_are_reproducible() {
    // Everything in the stack is seeded: two identical consolidations
    // must produce bit-identical timelines and final states.
    let run_once = || {
        let cfg = machine_cfg();
        let mut backend = SimBackend::new(Machine::new(cfg.clone()));
        let mut groups: Vec<(ClosId, String)> = Vec::new();
        for spec in WorkloadMix::paper_default(MixKind::HighBoth).specs() {
            let name = spec.name.clone();
            groups.push((backend.add_workload(spec).unwrap(), name));
        }
        let rcfg = RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(cfg.llc_ways),
            stream: StreamReference::for_machine(&cfg),
            planner: Default::default(),
        };
        let mut rt = ConsolidationRuntime::new(backend, groups, rcfg).unwrap();
        rt.profile().unwrap();
        rt.run_periods(40).unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.state, rb.state, "states diverged at t={}", ra.time_ns);
        assert_eq!(ra.phase, rb.phase);
        assert!((ra.unfairness - rb.unfairness).abs() < 1e-12);
    }
}
