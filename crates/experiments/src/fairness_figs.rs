//! Figures 4–6: fairness impact of joint LLC × MBA partitioning on the
//! three sensitive workload mixes.
//!
//! As in the paper, each tile is the unfairness of one *static* system
//! state — an LLC way vector crossed with an MBA level vector over the
//! four applications — normalized to the unfairness of running the mix
//! with no partitioning at all.

use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_core::state::{AllocationState, SystemState};
use copart_rdt::MbaLevel;
use copart_sim::MachineConfig;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

/// LLC way vectors (4 applications, summing to 11 ways), in the style of
/// the paper's x-axis labels.
const LLC_SETTINGS: [[u32; 4]; 6] = [
    [3, 3, 3, 2], // Equal.
    [5, 3, 2, 1],
    [4, 3, 3, 1],
    [2, 3, 5, 1],
    [5, 4, 1, 1],
    [2, 2, 2, 5],
];

/// MBA level vectors (percent).
const MBA_SETTINGS: [[u8; 4]; 6] = [
    [100, 100, 100, 100],
    [30, 30, 30, 30],
    [20, 10, 100, 10],
    [40, 40, 10, 10],
    [10, 10, 100, 100],
    [60, 30, 20, 10],
];

fn eval_opts() -> EvalOptions {
    EvalOptions {
        total_periods: 40,
        measure_periods: 20,
        ..EvalOptions::default()
    }
}

fn run_heatmap(title: &str, kind: MixKind) {
    let machine = MachineConfig::xeon_gold_6130();
    let specs = WorkloadMix::paper_default(kind).specs();
    let names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
    let full = policies::solo_full_ips(&machine, &specs);
    let opts = eval_opts();

    // Normalization baseline: no partitioning at all (§4.2).
    let baseline = policies::evaluate_policy(
        &machine,
        &specs,
        &full,
        &StreamReference::for_machine(&machine),
        PolicyKind::Unpartitioned,
        &opts,
    );
    let base_unfairness = baseline.unfairness.max(1e-6);

    println!("{title}");
    println!("applications: {names:?}");
    println!(
        "tiles: unfairness normalized to the unpartitioned run ({:.4}); lower is better\n",
        baseline.unfairness
    );

    // All tiles of the heatmap run as one batch on the parallel pool,
    // row-major, and print after the fan-out returns them in order.
    let states: Vec<SystemState> = LLC_SETTINGS
        .iter()
        .flat_map(|llc| {
            MBA_SETTINGS.iter().map(|mba| SystemState {
                allocs: llc
                    .iter()
                    .zip(mba)
                    .map(|(&ways, &pct)| AllocationState {
                        ways,
                        mba: MbaLevel::new(pct),
                    })
                    .collect(),
            })
        })
        .collect();
    let tiles = policies::evaluate_static_states(&machine, &specs, &full, &states, &opts);

    print!("{:<18}", "LLC \\ MBA");
    for mba in &MBA_SETTINGS {
        print!("  {:<18}", format!("{mba:?}"));
    }
    println!();
    for (row, llc) in LLC_SETTINGS.iter().enumerate() {
        print!("{:<18}", format!("{llc:?}"));
        for r in &tiles[row * MBA_SETTINGS.len()..(row + 1) * MBA_SETTINGS.len()] {
            print!("  {:<18.3}", r.unfairness / base_unfairness);
        }
        println!();
    }
    println!();
}

/// Figure 4: the LLC-sensitive workload mix (WN WS RT SW).
pub fn fig4() {
    run_heatmap(
        "Figure 4 — fairness of joint partitioning, LLC-sensitive mix",
        MixKind::HighLlc,
    );
    println!(
        "Paper finding: fairness is set primarily by the LLC vector (WN needs ≥4 ways);\n\
         for a good LLC vector, fairness still varies across MBA vectors."
    );
}

/// Figure 5: the memory bandwidth-sensitive workload mix (OC CG FT SW).
pub fn fig5() {
    run_heatmap(
        "Figure 5 — fairness of joint partitioning, BW-sensitive mix",
        MixKind::HighBw,
    );
    println!(
        "Paper finding: fairness is set primarily by the MBA vector (starving OC/CG\n\
         at level 10 wrecks fairness); LLC vectors matter little."
    );
}

/// Figure 6: the LLC- & memory bandwidth-sensitive workload mix (SP ON FMM SW).
pub fn fig6() {
    run_heatmap(
        "Figure 6 — fairness of joint partitioning, LLC- & BW-sensitive mix",
        MixKind::HighBoth,
    );
    println!("Paper finding: fairness depends strongly on both vectors at once.");
}
