//! Validates the set-sampling scaling argument: simulating a cache with
//! `1/k` of the sets while shrinking application footprints by `k`
//! preserves miss ratios and therefore performance. This is the
//! load-bearing approximation of the whole reproduction (DESIGN.md §4),
//! so it gets its own cross-crate test.

use copart_sim::trace::AccessPattern;
use copart_sim::{AppSpec, MachineConfig, MbaLevel};
use copart_workloads::measure;

/// A small machine where the unscaled cache is cheap to simulate.
fn base_cfg() -> MachineConfig {
    MachineConfig {
        n_cores: 4,
        freq_hz: 2.1e9,
        llc_ways: 8,
        llc_way_bytes: 256 * 1024, // 2 MB total, 4096 sets.
        line_bytes: 64,
        mem_bw_bytes_per_sec: 28.0e9,
        per_core_link_bw: 12.0e9,
        mem_latency_ns: 80.0,
        throttle_latency_coeff: 0.12,
        scale: 1,
        window_sample_budget: 65_536,
        seed: 11,
        prefetch_next_line: false,
    }
}

fn spec(name: &str, phases: Vec<(f64, AccessPattern)>) -> AppSpec {
    AppSpec {
        name: name.into(),
        cores: 4,
        ipc_peak: 1.2,
        apki: 25.0,
        write_fraction: 0.2,
        mlp: 4.0,
        phases,
    }
}

fn compare_scales(spec: &AppSpec, ways: u32) -> (f64, f64) {
    let full = base_cfg();
    let mut sampled = base_cfg();
    sampled.scale = 16;
    let ips_full = measure::measure_ips(&full, spec, ways, MbaLevel::MAX);
    let ips_sampled = measure::measure_ips(&sampled, spec, ways, MbaLevel::MAX);
    (ips_full, ips_sampled)
}

#[test]
fn sampled_and_full_caches_agree_for_working_set_loops() {
    let s = spec(
        "loop",
        vec![(
            1.0,
            AccessPattern::WorkingSetLoop {
                bytes: 768 * 1024, // 3 of 8 ways.
                stride: 64,
            },
        )],
    );
    for ways in [2u32, 4, 8] {
        let (full, sampled) = compare_scales(&s, ways);
        let err = (full - sampled).abs() / full;
        assert!(
            err < 0.12,
            "ways={ways}: full {full:.3e} vs sampled {sampled:.3e} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn sampled_and_full_caches_agree_for_zipf() {
    let s = spec(
        "zipf",
        vec![(
            1.0,
            AccessPattern::Zipf {
                bytes: 4 * 1024 * 1024,
                exponent: 1.2,
            },
        )],
    );
    for ways in [2u32, 5, 8] {
        let (full, sampled) = compare_scales(&s, ways);
        let err = (full - sampled).abs() / full;
        assert!(
            err < 0.12,
            "ways={ways}: full {full:.3e} vs sampled {sampled:.3e} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn sampled_and_full_caches_agree_for_stream_mixtures() {
    let s = spec(
        "mix",
        vec![
            (
                0.5,
                AccessPattern::WorkingSetLoop {
                    bytes: 512 * 1024,
                    stride: 64,
                },
            ),
            (
                0.5,
                AccessPattern::Stream {
                    bytes: 64 * 1024 * 1024,
                },
            ),
        ],
    );
    for ways in [3u32, 8] {
        let (full, sampled) = compare_scales(&s, ways);
        let err = (full - sampled).abs() / full;
        assert!(
            err < 0.12,
            "ways={ways}: full {full:.3e} vs sampled {sampled:.3e} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn way_partitioning_effects_survive_sampling() {
    // The *derivative* with respect to ways — the signal CoPart acts on —
    // must match between scales, not just point values.
    let s = spec(
        "knee",
        vec![(
            1.0,
            AccessPattern::WorkingSetLoop {
                bytes: 1024 * 1024, // 4 of 8 ways.
                stride: 64,
            },
        )],
    );
    let (full_small, sampled_small) = compare_scales(&s, 2);
    let (full_big, sampled_big) = compare_scales(&s, 6);
    let full_gain = full_big / full_small;
    let sampled_gain = sampled_big / sampled_small;
    assert!(
        (full_gain - sampled_gain).abs() / full_gain < 0.15,
        "way-count gain differs: full {full_gain:.3} vs sampled {sampled_gain:.3}"
    );
    assert!(
        full_gain > 1.1,
        "the knee must actually exist: {full_gain:.3}"
    );
}

/// What the Zipf step tables of an H-Both ×4 machine cost in heap bytes:
/// one table per distinct scaled Zipf phase, sized by the scaled
/// footprint. The `cache_sim` bench times building the same tables.
#[test]
fn h_both_zipf_tables_take_a_fixed_number_of_bytes() {
    use copart_workloads::{MixKind, WorkloadMix};
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
    let bytes: usize = zipfs
        .iter()
        .map(|p| copart_sim::trace::build_zipf_table(p, cfg.line_bytes))
        .sum();
    assert_eq!(bytes, 27_648, "zipf_table_bytes_h_both");
}
