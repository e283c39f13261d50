//! Simulator substrate benchmarks: the burst kernel's throughput, the cost
//! of one machine window tick under a consolidated mix, that tick split
//! into its phases, and the set-sampling scale ablation (DESIGN.md §6).
//!
//! The headline numbers land in `BENCH_cache_sim.json`, gated against
//! its baseline (see `copart_bench::artifact`): ns per access per
//! pattern (the `cache_access_*_ns` keys time bursts of 64 through
//! `SampledCache::access_burst`), ns per 200 ms tick per mix, and —
//! because a tick's cost is its sampled accesses — how many accesses a
//! tick of each mix simulates and what one costs. The
//! `gen_*` and `tick_split_*` keys split a warm H-Both ×4 tick into
//! address generation (the window's burst schedule through copies of
//! the machine's generators, no cache), the timing solve alone, and the
//! cache walk (the rest of the tick). Measurement only: the split
//! re-derives the schedule from the public snapshot and does not touch
//! `Machine::tick`. `zipf_table_build_ns` is what building afresh every
//! Zipf step table an H-Both ×4 machine draws through costs; their heap
//! bytes are exact, so tier-1 `tests/scaling_validation.rs` holds them.

use std::hint::black_box;

use copart_bench::{bench, Artifact};
use copart_sim::cache::{CacheConfig, SampledCache};
use copart_sim::timing::{self, AppTimingParams, TimingConfig, WindowInputs, WindowScratch};
use copart_sim::trace::{self, AccessPattern, TraceGenerator, BURST_LEN};
use copart_sim::{CbmMask, ClosId, Machine, MachineConfig, MbaLevel, SimAppSnapshot};
use copart_workloads::{Benchmark, MixKind, WorkloadMix};

fn main() {
    let mut artifact = Artifact::new("copart-bench-cache-sim/v1");
    bench_cache_access(&mut artifact);
    let h_both_tick_ns = bench_machine_tick(&mut artifact);
    bench_tick_split(&mut artifact, h_both_tick_ns);
    bench_zipf_tables(&mut artifact);
    bench_scale_ablation();
    artifact.write("cache_sim", env!("CARGO_TARGET_TMPDIR"));
}

/// The access patterns the per-access benches walk.
fn patterns() -> [(&'static str, AccessPattern); 3] {
    [
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
    ]
}

fn bench_cache_access(artifact: &mut Artifact) {
    println!("cache_access (a generated burst of 64 walked through the cache per iter)");
    for (name, pattern) in patterns() {
        let mut cache = SampledCache::new(CacheConfig {
            sets: 512,
            ways: 11,
            line_bytes: 64,
        });
        let mut generator = TraceGenerator::new(&[(1.0, pattern)], 64, 7);
        let mask = CbmMask::full(11);
        // The path `Machine::tick` takes: fill a burst, then walk it.
        let mut block = [0u64; BURST_LEN as usize];
        let timing = bench(&format!("cache_access/{name}"), || {
            let writes = generator.fill(0.25, &mut block);
            black_box(cache.access_burst(ClosId(0), mask, 0, &block, writes, false));
        });
        let per_access = timing.mean_ns / block.len() as f64;
        println!("{:<44} {per_access:>14.1} ns/access", "");
        artifact.num(&format!("cache_access_{name}_ns"), per_access);
    }
}

/// Times one warm 200 ms tick per mix; returns the H-Both tick's mean ns.
fn bench_machine_tick(artifact: &mut Artifact) -> f64 {
    println!("\nmachine_tick_200ms (one consolidated window tick per iter)");
    let mut h_both_ns = 0.0;
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
        if kind == MixKind::HighBoth {
            h_both_ns = timing.mean_ns;
        }
    }
    h_both_ns
}

const WINDOW_NS: u64 = 200_000_000;

/// Splits a warm H-Both ×4 tick (`tick_ns`, the mean warm tick
/// [`bench_machine_tick`] timed) into generation, the timing solve and
/// the cache walk.
fn bench_tick_split(artifact: &mut Artifact, tick_ns: f64) {
    println!("\ntick_split (a warm H-Both x4 200 ms tick, phase by phase)");
    // Generation alone, per pattern: bursts of 64 with no cache.
    for (name, pattern) in patterns() {
        let mut generator = TraceGenerator::new(&[(1.0, pattern)], 64, 7);
        let mut block = [0u64; BURST_LEN as usize];
        let timing = bench(&format!("tick_split/gen_{name}"), || {
            black_box(generator.fill(0.25, &mut block));
            black_box(&block);
        });
        let per_access = timing.mean_ns / block.len() as f64;
        println!("{:<44} {per_access:>14.1} ns/access", "");
        artifact.num(&format!("gen_{name}_ns"), per_access);
    }

    let cfg = MachineConfig::xeon_gold_6130();
    let mut machine = Machine::new(cfg.clone());
    for spec in WorkloadMix::paper_default(MixKind::HighBoth).specs() {
        machine.add_app(spec, ClosId(0)).expect("mix fits");
    }
    for _ in 0..10 {
        machine.tick(WINDOW_NS);
    }
    let snap = machine.snapshot();
    let apps: Vec<&SimAppSnapshot> = snap.apps.iter().flatten().collect();

    // The next tick's burst schedule, as `Machine::tick` derives it:
    // each app's quota from its IPS estimate, shrunk to the budget.
    let dt = WINDOW_NS as f64 / 1e9;
    let mut quotas: Vec<u64> = apps
        .iter()
        .map(|a| (a.ips_estimate * a.spec.apki / 1000.0 * dt / f64::from(cfg.scale)).round() as u64)
        .collect();
    let max_quota = quotas.iter().copied().max().unwrap_or(0);
    let budget = u64::from(cfg.window_sample_budget);
    if max_quota > budget {
        let shrink = budget as f64 / max_quota as f64;
        for q in &mut quotas {
            *q = ((*q as f64) * shrink).round() as u64;
        }
    }
    let accesses: u64 = quotas.iter().sum();
    // Each generator resumed where the machine's stands.
    let generators: Vec<TraceGenerator> = apps
        .iter()
        .map(|a| {
            let scaled: Vec<_> = a
                .spec
                .phases
                .iter()
                .map(|(w, p)| (*w, p.scaled(cfg.scale, cfg.line_bytes)))
                .collect();
            let mut generator = TraceGenerator::new(&scaled, cfg.line_bytes, 0);
            generator.restore(&a.gen);
            generator
        })
        .collect();
    let gen = bench("tick_split/gen_h_both_window", || {
        let mut generators = generators.clone();
        let mut remaining = quotas.clone();
        let mut block = [0u64; BURST_LEN as usize];
        // Apps take turns a burst at a time, as in the tick.
        while remaining.iter().any(|&r| r > 0) {
            for (k, generator) in generators.iter_mut().enumerate() {
                let burst = remaining[k].min(u64::from(BURST_LEN));
                if burst == 0 {
                    continue;
                }
                remaining[k] -= burst;
                let block = &mut block[..burst as usize];
                black_box(generator.fill(apps[k].spec.write_fraction, block));
                black_box(&block);
            }
        }
    });

    // The timing solve on this tick's inputs.
    let timing_cfg = TimingConfig {
        freq_hz: cfg.freq_hz,
        mem_latency_ns: cfg.mem_latency_ns,
        total_bw: cfg.mem_bw_bytes_per_sec,
        line_bytes: cfg.line_bytes as f64,
    };
    let inputs: Vec<(AppTimingParams, WindowInputs)> = apps
        .iter()
        .map(|a| {
            let mba = snap
                .clos_table
                .iter()
                .find(|&&(id, _, _)| id == a.clos)
                .map_or(MbaLevel::MAX, |&(_, _, percent)| MbaLevel::new(percent));
            (
                AppTimingParams {
                    cores: a.spec.cores,
                    ipc_peak: a.spec.ipc_peak,
                    apki: a.spec.apki,
                    mlp: a.spec.mlp,
                },
                WindowInputs {
                    miss_ratio: a.miss_ratio,
                    wb_per_access: a.wb_per_access,
                    bw_cap: cfg.mba_bandwidth_cap(a.spec.cores, mba),
                    lat_factor: cfg.mba_latency_factor(mba),
                },
            )
        })
        .collect();
    let (mut solved, mut scratch) = (Vec::new(), WindowScratch::default());
    let solve = bench("tick_split/timing_solve", || {
        timing::solve_window_into(&timing_cfg, &inputs, &mut solved, &mut scratch);
        black_box(&solved);
    });

    let walk_ns = tick_ns - gen.mean_ns - solve.mean_ns;
    let per = |ns: f64| ns / accesses as f64;
    println!(
        "{:<44} {accesses:>14} accesses: gen {:.1} + walk {:.1} ns/access, solve {:.0} ns ({:.3} % of the tick)",
        "",
        per(gen.mean_ns),
        per(walk_ns),
        solve.mean_ns,
        100.0 * solve.mean_ns / tick_ns
    );
    artifact.num("tick_split_h_both_accesses", accesses as f64);
    artifact.num("tick_split_h_both_gen_ns", gen.mean_ns);
    artifact.num("tick_split_h_both_gen_ns_per_access", per(gen.mean_ns));
    artifact.num("tick_split_h_both_solve_ns", solve.mean_ns);
    artifact.num("tick_split_h_both_walk_ns", walk_ns);
    artifact.num("tick_split_h_both_walk_ns_per_access", per(walk_ns));
}

/// Builds, past the memo, the Zipf step table of every distinct scaled
/// Zipf phase of an H-Both ×4 machine.
fn bench_zipf_tables(artifact: &mut Artifact) {
    println!("\nzipf_table (every step table of an H-Both x4 machine, built afresh per iter)");
    let cfg = MachineConfig::xeon_gold_6130();
    let mut zipfs: Vec<AccessPattern> = Vec::new();
    for spec in WorkloadMix::paper_default(MixKind::HighBoth).specs() {
        for (_, pattern) in &spec.phases {
            let scaled = pattern.scaled(cfg.scale, cfg.line_bytes);
            if matches!(scaled, AccessPattern::Zipf { .. }) && !zipfs.contains(&scaled) {
                zipfs.push(scaled);
            }
        }
    }
    let build = || -> usize {
        zipfs
            .iter()
            .map(|p| trace::build_zipf_table(p, cfg.line_bytes))
            .sum()
    };
    let bytes = build();
    let timing = bench("zipf_table/build_h_both", || {
        black_box(build());
    });
    println!("{:<44} {bytes:>14} bytes in {} tables", "", zipfs.len());
    artifact.num("zipf_table_build_ns", timing.mean_ns);
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
