//! Quickstart: consolidate four benchmarks on the simulated testbed and
//! let CoPart partition the LLC and memory bandwidth among them.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::{CoPartParams, Phase};
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::Benchmark;

fn main() {
    // 1. Build the simulated server (the paper's Xeon Gold 6130: 16
    //    cores, 22 MB 11-way LLC, ~28 GB/s memory bandwidth).
    let machine_cfg = MachineConfig::xeon_gold_6130();
    let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));

    // 2. Measure the STREAM reference once per machine — the controller
    //    normalizes application traffic against it (§5.3 of the paper).
    println!("measuring STREAM reference...");
    let stream = StreamReference::for_machine(&machine_cfg);

    // 3. Admit a workload mix: two LLC-sensitive benchmarks, one
    //    bandwidth-hog, one insensitive job. Each gets its own CLOS.
    let mut groups: Vec<(ClosId, String)> = Vec::new();
    for bench in [
        Benchmark::WaterNsquared,
        Benchmark::Raytrace,
        Benchmark::Cg,
        Benchmark::Swaptions,
    ] {
        let spec = bench.spec(); // Four dedicated cores each.
        let name = spec.name.clone();
        let group = backend.add_workload(spec).expect("machine has 16 cores");
        println!("admitted {name} into {group}");
        groups.push((group, name));
    }

    // 4. Start the CoPart resource manager with the paper's parameters.
    let cfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(machine_cfg.llc_ways),
        stream,
        planner: Default::default(),
    };
    let mut runtime =
        ConsolidationRuntime::new(backend, groups, cfg).expect("initial state applies");

    // 5. Profile each application (establishes IPS_full and the initial
    //    classifier states), then explore until the manager goes idle.
    runtime.profile().expect("profiling on the simulator");
    println!("\nprofiles:");
    for app in runtime.apps() {
        let (llc, mba) = app.classifier_states();
        println!(
            "  {:<16} IPS_full {:>9.3e}  LLC {:<8}  MBA {:<8}",
            app.name,
            app.ips_full,
            llc.to_string(),
            mba.to_string()
        );
    }

    println!("\nadaptation:");
    for _ in 0..50 {
        let record = runtime.run_period().expect("simulated period");
        if record.phase == Phase::Idle {
            break;
        }
    }

    // 6. Report the converged allocation.
    let state = runtime.state().clone();
    println!(
        "\nconverged ({}): ",
        if runtime.phase() == Phase::Idle {
            "idle"
        } else {
            "still exploring"
        }
    );
    for (app, alloc) in runtime.apps().iter().zip(&state.allocs) {
        println!(
            "  {:<16} {} LLC ways, MBA {:>3}%, slowdown {:.2}",
            app.name,
            alloc.ways,
            alloc.mba.percent(),
            app.slowdown()
        );
    }
    let slowdowns: Vec<f64> = runtime.apps().iter().map(|a| a.slowdown()).collect();
    println!(
        "\nunfairness (σ/μ of slowdowns): {:.4}",
        copart_core::metrics::unfairness(&slowdowns)
    );
}
