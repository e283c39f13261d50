//! Weighted fairness: a priority extension beyond the paper.
//!
//! CoPart equalizes plain slowdowns; this reproduction also supports
//! per-application fairness weights — the controller equalizes
//! `slowdown × weight`, so a weight-2 application is entitled to run
//! twice as close to its solo speed as a weight-1 one. Two identical
//! cache-hungry applications compete here; watch the weighted one win.
//!
//! ```sh
//! cargo run --release --example weighted_priority
//! ```

use copart_core::metrics;
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::CoPartParams;
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::Benchmark;

fn main() {
    let machine_cfg = MachineConfig::xeon_gold_6130();
    println!("measuring STREAM reference...");
    let stream = StreamReference::for_machine(&machine_cfg);
    let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));

    // Two *identical* LLC-hungry instances plus two insensitive donors.
    let mut groups: Vec<(ClosId, String)> = Vec::new();
    for (i, bench) in [
        Benchmark::WaterNsquared,
        Benchmark::WaterNsquared,
        Benchmark::Swaptions,
        Benchmark::Ep,
    ]
    .iter()
    .enumerate()
    {
        let mut spec = bench.spec();
        spec.name = format!("{}#{i}", spec.name);
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec).unwrap(), name));
    }
    let favored = groups[0].0;

    let mut runtime = ConsolidationRuntime::new(
        backend,
        groups,
        RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine_cfg.llc_ways),
            stream,
            planner: Default::default(),
        },
    )
    .unwrap();

    // The first instance is three times as important.
    runtime.set_weight(favored, 3.0).unwrap();
    runtime.profile().unwrap();
    for _ in 0..60 {
        runtime.run_period().unwrap();
    }

    println!("\nconverged allocation (weight of app #0 = 3.0):");
    let state = runtime.state().clone();
    for (app, alloc) in runtime.apps().iter().zip(&state.allocs) {
        println!(
            "  {:<20} weight {:<4} {} ways, MBA {:>3}%, slowdown {:.3}",
            app.name,
            app.weight,
            alloc.ways,
            alloc.mba.percent(),
            app.slowdown()
        );
    }
    let slowdowns: Vec<f64> = runtime.apps().iter().map(|a| a.slowdown()).collect();
    let weights: Vec<f64> = runtime.apps().iter().map(|a| a.weight).collect();
    println!(
        "\nplain unfairness:    {:.4} (intentionally uneven)",
        metrics::unfairness(&slowdowns)
    );
    println!(
        "weighted unfairness: {:.4} (the controller's objective; weight 3 is\n\
         infeasible to satisfy fully — slowdowns cannot drop below ~1 — so the\n\
         controller pushes the favored app as far toward its entitlement as the\n\
         machine allows)",
        metrics::weighted_unfairness(&slowdowns, &weights)
    );
}
