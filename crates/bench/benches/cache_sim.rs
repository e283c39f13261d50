//! Simulator substrate benchmarks: raw cache-access throughput, the cost
//! of one machine window tick under a consolidated mix, and the
//! set-sampling scale ablation (DESIGN.md §6).
//!
//! With `BENCH_JSON_DIR` set the headline numbers land in
//! `BENCH_cache_sim.json`: ns per access per pattern, ns per 200 ms tick
//! per mix, and — because a tick's cost is its sampled accesses — how
//! many accesses a tick of each mix simulates and what one costs.

use std::hint::black_box;

use copart_bench::{bench, Artifact};
use copart_sim::cache::{CacheConfig, SampledCache};
use copart_sim::trace::{AccessPattern, TraceGenerator};
use copart_sim::{CbmMask, ClosId, Machine, MachineConfig};
use copart_workloads::{Benchmark, MixKind, WorkloadMix};

fn main() {
    let mut artifact = Artifact::new("copart-bench-cache-sim/v1");
    bench_cache_access(&mut artifact);
    bench_machine_tick(&mut artifact);
    bench_scale_ablation();
    artifact.write("cache_sim");
}

fn bench_cache_access(artifact: &mut Artifact) {
    println!("cache_access (a generated burst of 64 walked through the cache per iter)");
    for (name, pattern) in [
        ("stream", AccessPattern::Stream { bytes: 1 << 24 }),
        (
            "working_set",
            AccessPattern::WorkingSetLoop {
                bytes: 1 << 18,
                stride: 64,
            },
        ),
        (
            "zipf",
            AccessPattern::Zipf {
                bytes: 1 << 22,
                exponent: 1.2,
            },
        ),
    ] {
        let mut cache = SampledCache::new(CacheConfig {
            sets: 512,
            ways: 11,
            line_bytes: 64,
        });
        let mut generator = TraceGenerator::new(&[(1.0, pattern)], 64, 7);
        let mask = CbmMask::full(11);
        // The path `Machine::tick` takes: fill a burst, then walk it.
        let mut block = [0u64; 64];
        let timing = bench(&format!("cache_access/{name}"), || {
            let writes = generator.fill(0.25, &mut block);
            for (j, &addr) in block.iter().enumerate() {
                black_box(cache.access(ClosId(0), mask, addr, writes >> j & 1 != 0));
            }
        });
        let per_access = timing.mean_ns / block.len() as f64;
        println!("{:<44} {per_access:>14.1} ns/access", "");
        artifact.num(&format!("cache_access_{name}_ns"), per_access);
    }
}

fn bench_machine_tick(artifact: &mut Artifact) {
    println!("\nmachine_tick_200ms (one consolidated window tick per iter)");
    for (key, kind) in [
        ("h_llc", MixKind::HighLlc),
        ("h_bw", MixKind::HighBw),
        ("h_both", MixKind::HighBoth),
    ] {
        let mut machine = Machine::new(MachineConfig::xeon_gold_6130());
        for spec in WorkloadMix::paper_default(kind).specs() {
            machine.add_app(spec, ClosId(0)).expect("mix fits");
        }
        // Warm the cache so steady-state ticks are measured.
        for _ in 0..10 {
            machine.tick(200_000_000);
        }
        // Simulated, so it repeats: the same 50 ticks on every run.
        let mut sampled = 0;
        for _ in 0..50 {
            machine.tick(200_000_000);
            sampled += machine.sampled_accesses();
        }
        let per_tick = sampled as f64 / 50.0;
        let timing = bench(&format!("machine_tick_200ms/{kind:?}"), || {
            black_box(machine.tick(200_000_000));
        });
        println!(
            "{:<44} {per_tick:>14.1} sampled accesses/tick, {:.1} ns each",
            "",
            timing.mean_ns / per_tick
        );
        artifact.num(&format!("machine_tick_200ms_{key}_ns"), timing.mean_ns);
        artifact.num(&format!("machine_tick_{key}_sampled_accesses"), per_tick);
        artifact.num(
            &format!("machine_tick_{key}_ns_per_access"),
            timing.mean_ns / per_tick,
        );
    }
}

fn bench_scale_ablation() {
    // How much wall time one solo measurement costs at different
    // set-sampling scales (accuracy is pinned by tests; this is the cost
    // side of the trade-off).
    println!("\nset_sampling_scale (10 x 50 ms solo ticks per iter)");
    for scale in [16u32, 64, 256] {
        let mut cfg = MachineConfig::xeon_gold_6130();
        cfg.scale = scale;
        let spec = Benchmark::WaterNsquared.spec();
        bench(&format!("set_sampling_scale/{scale}"), || {
            let mut machine = Machine::new(cfg.clone());
            machine.add_app(spec.clone(), ClosId(0)).expect("fits");
            for _ in 0..10 {
                machine.tick(50_000_000);
            }
            black_box(machine.now_ns());
        });
    }
}
