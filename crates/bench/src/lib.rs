//! Shared fixtures and a tiny self-timing harness for the benchmarks.
//!
//! The benches regenerate the paper's Figure 16 (controller overhead) and
//! quantify the simulator substrate itself (cache-access throughput,
//! machine ticks, matching scaling). Run with `cargo bench --workspace`.
//! Everything is std-only: each bench is a plain `harness = false` binary
//! timed with [`std::time::Instant`], so no external benchmark framework
//! is needed and the workspace builds offline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub mod artifact;
pub use artifact::Artifact;

use copart_core::fsm::AppState;
use copart_core::next_state::AppClassification;
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::{AllocationState, SystemState, WaysBudget};
use copart_core::CoPartParams;
use copart_rdt::{MbaLevel, SimBackend};
use copart_rng::XorShift64Star;
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::Recorder;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

/// The CoPart configuration on the full 11-way machine, with the
/// matching step or its greedy ablation.
pub fn copart_config(stream: &StreamReference, use_hr_matching: bool) -> RuntimeConfig {
    RuntimeConfig {
        params: CoPartParams {
            use_hr_matching,
            ..CoPartParams::default()
        },
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(MachineConfig::xeon_gold_6130().llc_ways),
        stream: stream.clone(),
        planner: Default::default(),
    }
}

/// A profiled 4-app H-Both CoPart runtime on the simulated Xeon,
/// recording into `recorder` — the control epoch the Figure 16 bench
/// times and `tests/control_alloc.rs` counts allocations of.
pub fn epoch_runtime(
    stream: &StreamReference,
    recorder: Box<dyn Recorder + Send>,
) -> ConsolidationRuntime<SimBackend> {
    let machine_cfg = MachineConfig::xeon_gold_6130();
    let mix = WorkloadMix::build(MixKind::HighBoth, 4, machine_cfg.n_cores);
    let mut backend = SimBackend::new(Machine::new(machine_cfg));
    let named = mix
        .specs()
        .iter()
        .map(|s| {
            let g = backend.add_workload(s.clone()).expect("mix fits");
            (g, s.name.clone())
        })
        .collect();
    let cfg = copart_config(stream, true);
    let mut rt = ConsolidationRuntime::new(backend, named, cfg).expect("state applies");
    rt.set_recorder(recorder);
    rt.profile().expect("profiling on the simulator");
    rt
}

/// Builds a random but valid `(state, classifications)` pair for `n`
/// applications on an 11-way budget — the Figure 16 workload.
pub fn synthetic_instance(n: usize, seed: u64) -> (SystemState, Vec<AppClassification>) {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let budget = WaysBudget::full_machine(11);
    let mut allocs = Vec::with_capacity(n);
    let mut remaining = budget.total_ways;
    for i in 0..n {
        let left = (n - i) as u32;
        let ways = if left == 1 {
            remaining
        } else {
            rng.gen_range(1..=(remaining - (left - 1)))
        };
        remaining -= ways;
        allocs.push(AllocationState {
            ways,
            mba: MbaLevel::new(rng.gen_range(1..=10u8) * 10),
        });
    }
    let apps = (0..n)
        .map(|_| {
            let pick = |r: &mut XorShift64Star| match r.gen_range(0..3u8) {
                0 => AppState::Supply,
                1 => AppState::Maintain,
                _ => AppState::Demand,
            };
            AppClassification {
                llc: pick(&mut rng),
                mba: pick(&mut rng),
                slowdown: rng.gen_range(1.0..3.0),
            }
        })
        .collect();
    (SystemState { allocs }, apps)
}

/// One benchmark measurement: per-iteration timing statistics over
/// several equally sized batches.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Iterations per measured batch (chosen by calibration).
    pub iters: u64,
    /// Batches measured after calibration.
    pub batches: u32,
    /// Mean nanoseconds per iteration across all batches.
    pub mean_ns: f64,
    /// Per-iteration mean of the fastest batch.
    pub best_ns: f64,
}

/// Times `f`, prints one aligned report line, and returns the statistics.
///
/// The batch size is calibrated by doubling until one batch takes at
/// least ~5 ms (capped at 2²⁴ iterations for sub-nanosecond bodies), so
/// the `Instant` read-out error is amortized to noise; seven batches are
/// then measured. The calibration runs also serve as warm-up.
pub fn bench(label: &str, mut f: impl FnMut()) -> Timing {
    const MIN_BATCH: Duration = Duration::from_millis(5);
    const BATCHES: u32 = 7;
    let mut iters: u64 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed() >= MIN_BATCH || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut means = Vec::with_capacity(BATCHES as usize);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        means.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    let timing = Timing {
        iters,
        batches: BATCHES,
        mean_ns: means.iter().sum::<f64>() / f64::from(BATCHES),
        best_ns: means.iter().copied().fold(f64::INFINITY, f64::min),
    };
    println!(
        "{label:<44} {:>14.1} ns/iter (best {:>12.1}, {} × {} iters)",
        timing.mean_ns, timing.best_ns, timing.batches, timing.iters
    );
    timing
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_plausible_timings() {
        let mut n = 0u64;
        let t = bench("tests/noop_counter", || n = n.wrapping_add(1));
        assert!(t.mean_ns.is_finite() && t.mean_ns > 0.0);
        assert!(t.best_ns <= t.mean_ns);
        assert!(t.iters >= 1 && n >= t.iters);
    }

    #[test]
    fn synthetic_instances_are_valid() {
        let budget = WaysBudget::full_machine(11);
        for n in 2..=8 {
            for seed in 0..20 {
                let (state, apps) = synthetic_instance(n, seed);
                assert!(state.is_valid(&budget));
                assert_eq!(state.total_ways(), 11);
                assert_eq!(apps.len(), n);
            }
        }
    }
}
