//! Policy comparison on one workload mix: run EQ, ST, CAT-only, MBA-only,
//! and CoPart on the highly LLC- and bandwidth-sensitive mix and print
//! ground-truth fairness and throughput for each — a miniature Figure 12
//! cell, built from the public API.
//!
//! ```sh
//! cargo run --release --example consolidation [mix]
//! ```
//!
//! `mix` is one of `h-llc`, `h-bw`, `h-both` (default), `m-llc`, `m-bw`,
//! `m-both`, `is`.

use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_sim::MachineConfig;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "h-both".into());
    let Some(kind) = MixKind::from_wire(&arg) else {
        eprintln!("unknown mix {arg:?}; use h-llc|h-bw|h-both|m-llc|m-bw|m-both|is");
        std::process::exit(1);
    };

    let machine_cfg = MachineConfig::xeon_gold_6130();
    let mix = WorkloadMix::paper_default(kind);
    let specs = mix.specs();
    println!(
        "mix {} — applications: {:?}\n",
        kind.label(),
        specs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );

    let full = policies::solo_full_ips(&machine_cfg, &specs);
    let stream = StreamReference::for_machine(&machine_cfg);
    let opts = EvalOptions::default();

    println!(
        "\n{:<10} {:>12} {:>16}  per-app slowdowns",
        "policy", "unfairness", "throughput(IPS)"
    );
    for &policy in PolicyKind::evaluated() {
        let r = policies::evaluate_policy(&machine_cfg, &specs, &full, &stream, policy, &opts);
        let slowdowns: Vec<String> = r.slowdowns.iter().map(|s| format!("{s:.2}")).collect();
        println!(
            "{:<10} {:>12.4} {:>16.3e}  [{}]",
            policy.label(),
            r.unfairness,
            r.throughput,
            slowdowns.join(", ")
        );
    }
}
