//! Fork → run both → compare oracle for
//! [`ConsolidationRuntime::fork`](copart_core::runtime::ConsolidationRuntime::fork).
//!
//! The evaluation grid profiles each row once and forks the profiled
//! runtime per dynamic column (`policies::evaluate_dynamic`), which is
//! exact only if a fork is a complete copy: every piece of state in
//! flight at the cut — the machine's caches, generators and clock, the
//! explorer's RNG position and best-seen state, the sensors' windows,
//! the metric counters — goes across. Each case builds a random
//! scenario on the simulator exactly as an evaluation does (mix, app
//! count, dynamic policy, controller seed), runs it to a random fork
//! point (before profiling, or a few epochs past it), forks, then steps
//! the original and the fork the same `H` epochs, each with its own
//! shared recorder. Their per-epoch records, trace lines, metric counters
//! and gauges (histogram values are host wall-clock readings; their
//! observation counts are compared), controller snapshots and machine
//! snapshots must be equal.

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_core::policies::{self, PolicyKind};
use copart_core::{node, CoPartParams};
use copart_rdt::SimBackend;
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::SharedRecorder;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

/// Mixes the oracle draws from, simplest-shrinking first.
const MIXES: [MixKind; 5] = [
    MixKind::HighBoth,
    MixKind::ModerateBoth,
    MixKind::HighLlc,
    MixKind::HighBw,
    MixKind::Insensitive,
];

/// The dynamic policies: every controller shape the grid forks.
const POLICIES: [PolicyKind; 4] = [
    PolicyKind::CoPart,
    PolicyKind::CatOnly,
    PolicyKind::MbaOnly,
    PolicyKind::LfocCluster,
];

fn fork_case(src: &mut Source) -> CaseOutcome {
    let mix = *src.pick(&MIXES);
    let policy = *src.pick(&POLICIES);
    let n_apps = src.size(2, 3);
    let seed = src.below(1 << 16);
    // `None` forks the unprofiled node; `Some(k)` forks k epochs after
    // profiling.
    let cut = if src.chance(0.2) {
        None
    } else {
        Some(src.below(5))
    };
    let horizon = src.size(1, 4) as u32;
    let witness = format!(
        "mix={} policy={} apps={n_apps} seed={seed} cut={cut:?} horizon={horizon}",
        mix.label(),
        policy.label()
    );
    let verdict = check_case(mix, policy, n_apps, seed, cut, horizon);
    CaseOutcome { witness, verdict }
}

fn check_case(
    mix: MixKind,
    policy: PolicyKind,
    n_apps: usize,
    seed: u64,
    cut: Option<u64>,
    horizon: u32,
) -> Result<(), String> {
    let machine = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::for_machine(&machine);
    let specs = WorkloadMix::build(mix, n_apps, machine.n_cores).specs();
    let params = CoPartParams {
        seed,
        ..CoPartParams::default()
    };
    let cfg = policies::dynamic_runtime_config(&machine, n_apps, &stream, policy, &params);
    let mut original = node::build(SimBackend::new(Machine::new(machine)), &specs, cfg)?;
    if let Some(epochs) = cut {
        original.profile().map_err(|e| format!("profile: {e}"))?;
        for _ in 0..epochs {
            original
                .run_period()
                .map_err(|e| format!("pre-fork epoch: {e}"))?;
        }
    }
    let mut fork = original.fork();

    let (ring_a, ring_b) = (SharedRecorder::default(), SharedRecorder::default());
    original.set_recorder(Box::new(ring_a.clone()));
    fork.set_recorder(Box::new(ring_b.clone()));
    if cut.is_none() {
        original.profile().map_err(|e| format!("profile: {e}"))?;
        fork.profile().map_err(|e| format!("fork profile: {e}"))?;
    }
    for step in 0..horizon {
        match (original.run_period(), fork.run_period()) {
            (Ok(a), Ok(b)) if a == b => {}
            (a, b) => {
                return Err(format!(
                    "epoch {step} after the fork diverged: original {a:?} vs fork {b:?}"
                ))
            }
        }
    }
    let lines = |ring: &SharedRecorder| -> Vec<String> {
        ring.events().iter().map(|e| e.to_json_line()).collect()
    };
    let (trace_a, trace_b) = (lines(&ring_a), lines(&ring_b));
    if trace_a != trace_b {
        let at = (0..trace_a.len().max(trace_b.len()))
            .find(|&i| trace_a.get(i) != trace_b.get(i))
            .unwrap_or(0);
        return Err(format!(
            "traces diverge at line {at}:\n  original: {}\n  fork:     {}",
            trace_a.get(at).map_or("<missing>", |s| s.as_str()),
            trace_b.get(at).map_or("<missing>", |s| s.as_str()),
        ));
    }
    let (metrics_a, metrics_b) = (
        original.metrics_snapshot().simulated(),
        fork.metrics_snapshot().simulated(),
    );
    if metrics_a != metrics_b {
        return Err(format!(
            "metrics diverge:\n  original: {metrics_a}\n  fork:     {metrics_b}"
        ));
    }
    if original.snapshot() != fork.snapshot() {
        return Err("controller snapshots diverge".to_string());
    }
    if original.backend().machine().snapshot() != fork.backend().machine().snapshot() {
        return Err("machine snapshots diverge".to_string());
    }
    Ok(())
}

/// The fork oracle.
pub fn properties() -> Vec<Property> {
    vec![Property::new("fork-replays-identically", fork_case)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..8 {
            let mut src = Source::from_seed(seed);
            let out = fork_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }

    #[test]
    fn unprofiled_and_profiled_cuts_pass() {
        for cut in [None, Some(0), Some(4)] {
            let verdict = check_case(MixKind::HighBoth, PolicyKind::LfocCluster, 3, 7, cut, 3);
            assert_eq!(verdict, Ok(()), "cut {cut:?}");
        }
    }
}
