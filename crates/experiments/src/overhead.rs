//! Figure 16: time spent in one system-state-space exploration step
//! (`getNextSystemState` inside the Algorithm 1 step the controller
//! executes, buffers held across iterations) as a function of the
//! application count.
//!
//! The paper reports 10.6 / 11.8 / 12.7 / 14.4 µs for 3 / 4 / 5 / 6
//! applications — microsecond-scale and growing gently (the algorithm is
//! O(N²_A)). Absolute numbers here differ with the host CPU; the shape
//! (µs-scale, slow growth) is the reproduction target. The Criterion
//! bench `explore_overhead` measures the same quantity rigorously.

use std::time::Instant;

use copart_core::fsm::AppState;
use copart_core::next_state::AppClassification;
use copart_core::planner::{Explorer, Plan};
use copart_core::runtime::RuntimeConfig;
use copart_core::state::{AllocationState, SystemState, WaysBudget};
use copart_core::CoPartParams;
use copart_rdt::MbaLevel;
use copart_rng::XorShift64Star;
use copart_workloads::stream::StreamReference;

use crate::common::Table;

/// Builds a representative classification/state pair for `n` apps.
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

/// Runs and prints Figure 16.
pub fn fig16() {
    println!("Figure 16 — system state space exploration time");
    println!("Paper: 10.6 / 11.8 / 12.7 / 14.4 µs for 3–6 applications.\n");
    let cfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(11),
        // The planner never consults the STREAM table.
        stream: StreamReference::from_table([1.0; 10]),
        planner: Default::default(),
    };
    let mut t = Table::new(&["apps", "mean exploration step (µs)", "paper (µs)"]);
    let paper = [10.6, 11.8, 12.7, 14.4];
    for (k, n) in (3..=6usize).enumerate() {
        // Average across many random instances (and RNG states) to cover
        // the spread of classifier situations.
        const ITERS: u64 = 20_000;
        let mut explorer = Explorer::new(99);
        let mut plan = Plan::default();
        let instances: Vec<_> = (0..64).map(|s| synthetic_instance(n, s)).collect();
        let start = Instant::now();
        let mut sink = 0u32;
        for i in 0..ITERS {
            let (state, apps) = &instances[(i % 64) as usize];
            explorer.plan_into(&cfg, state, &[], apps, 0.3, false, &mut plan);
            sink = sink.wrapping_add(plan.proposal.total_ways());
        }
        let micros = start.elapsed().as_secs_f64() * 1e6 / ITERS as f64;
        assert!(sink > 0, "keep the optimizer honest");
        t.row(vec![
            n.to_string(),
            format!("{micros:.2}"),
            format!("{:.1}", paper[k]),
        ]);
    }
    t.print();
    println!("\n(absolute numbers are host-dependent; the target is µs scale and O(N²) growth)");
}
