//! Calibration pinning: the benchmark models must reproduce the paper's
//! Table 2 counter signatures (within model tolerance), the §3.3
//! categories, and the §4.1 anchor points. These tests are what keeps the
//! reproduction honest — any simulator change that bends a curve out of
//! shape fails here.

use copart_sim::{MachineConfig, MbaLevel};
use copart_workloads::{measure, Benchmark};

fn cfg() -> MachineConfig {
    MachineConfig::xeon_gold_6130()
}

/// Order-of-magnitude agreement for counter rates: the models are
/// synthetic, so we require the measured rate to be within 3× of the
/// paper's value (and exactly capture which benchmarks are heavy vs
/// negligible).
fn within_factor(measured: f64, reference: f64, factor: f64) -> bool {
    if reference == 0.0 {
        return measured == 0.0;
    }
    measured / reference <= factor && reference / measured <= factor
}

#[test]
fn table2_counter_signatures() {
    let cfg = cfg();
    let mut failures = Vec::new();
    for b in Benchmark::all() {
        let row = b.table2();
        let (_, rates) = measure::measure_full(&cfg, &b.spec());
        if !within_factor(rates.llc_accesses_per_sec, row.llc_accesses_per_sec, 3.0) {
            failures.push(format!(
                "{}: accesses/s {:.2e} vs paper {:.2e}",
                row.short, rates.llc_accesses_per_sec, row.llc_accesses_per_sec
            ));
        }
        // Miss rates depend on the full cache model; allow a wider band.
        // Two exemptions: FMM, whose published rates are physically
        // inconsistent with its published sensitivity (see DESIGN.md) and
        // is calibrated for behaviour instead; and SW, whose 798 misses/s
        // are below one sampled access per simulation window (we bound it
        // from above instead).
        if b == Benchmark::Swaptions {
            assert!(
                rates.llc_misses_per_sec < 1.0e4,
                "SW misses/s {:.2e} should be negligible",
                rates.llc_misses_per_sec
            );
            continue;
        }
        if b != Benchmark::Fmm
            && !within_factor(rates.llc_misses_per_sec, row.llc_misses_per_sec, 5.0)
        {
            failures.push(format!(
                "{}: misses/s {:.2e} vs paper {:.2e}",
                row.short, rates.llc_misses_per_sec, row.llc_misses_per_sec
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "Table 2 mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn categories_match_the_paper() {
    let cfg = cfg();
    let mut failures = Vec::new();
    for b in Benchmark::all() {
        let measured = measure::classify(&cfg, &b.spec());
        let expected = b.category();
        if measured != expected {
            let (llc, bw) = measure::degradations(&cfg, &b.spec());
            failures.push(format!(
                "{}: measured {measured} (llc {llc:.3}, bw {bw:.3}) vs paper {expected}",
                b.table2().short
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "category mismatches:\n{}",
        failures.join("\n")
    );
}

#[test]
fn llc_sensitive_way_requirements_match_section_4_1() {
    // "WN, WS, and RT require 4, 3, and 2 LLC ways to achieve 90% of the
    // performance that can be achieved with the full LLC capacity."
    let cfg = cfg();
    let anchors = [
        (Benchmark::WaterNsquared, 4),
        (Benchmark::WaterSpatial, 3),
        (Benchmark::Raytrace, 2),
    ];
    for (b, expected) in anchors {
        let ways = measure::required_ways(&cfg, &b.spec(), 0.9).unwrap_or(cfg.llc_ways + 1);
        assert!(
            (ways as i64 - expected).abs() <= 1,
            "{}: needs {ways} ways for 90%, paper says {expected}",
            b.table2().short
        );
    }
}

#[test]
fn bw_sensitive_mba_requirements_match_section_4_1() {
    // "OC, CG, and FT require MBA levels of 30, 20, and 30 to achieve 90%
    // of the performance that can be achieved at the 100% MBA level."
    let cfg = cfg();
    let anchors = [
        (Benchmark::OceanCp, 30u8),
        (Benchmark::Cg, 20),
        (Benchmark::Ft, 30),
    ];
    for (b, expected) in anchors {
        let level = measure::required_mba(&cfg, &b.spec(), 0.9)
            .map(|l| l.percent())
            .unwrap_or(110);
        assert!(
            (i16::from(level) - i16::from(expected)).abs() <= 10,
            "{}: needs MBA {level}% for 90%, paper says {expected}%",
            b.table2().short
        );
    }
}

#[test]
fn lm_benchmarks_have_equivalent_system_states() {
    // §4.1: "SP achieves similar performance when it is allocated 8 LLC
    // ways and the 20% MBA level and 3 LLC ways and the 40% MBA level."
    let cfg = cfg();
    let spec = Benchmark::Sp.spec();
    let a = measure::measure_ips(&cfg, &spec, 8, MbaLevel::new(20));
    let b = measure::measure_ips(&cfg, &spec, 3, MbaLevel::new(40));
    let ratio = a.max(b) / a.min(b);
    assert!(
        ratio < 1.35,
        "SP: states (8 ways, MBA 20) and (3 ways, MBA 40) differ by {ratio:.2}×"
    );
}

#[test]
fn insensitive_benchmarks_barely_move() {
    let cfg = cfg();
    for b in [Benchmark::Swaptions, Benchmark::Ep] {
        let (llc, bw) = measure::degradations(&cfg, &b.spec());
        assert!(
            llc < 0.01 && bw < 0.01,
            "{}: degradations llc {llc:.4}, bw {bw:.4} exceed the 1% insensitivity bound",
            b.table2().short
        );
    }
}

#[test]
fn llc_sensitive_benchmarks_ignore_mba() {
    // §4.1 finding 1: LLC-sensitive performance is relatively insensitive
    // to allocated memory bandwidth, even at small MBA levels.
    let cfg = cfg();
    for b in [
        Benchmark::WaterNsquared,
        Benchmark::WaterSpatial,
        Benchmark::Raytrace,
    ] {
        let full = measure::measure_ips(&cfg, &b.spec(), cfg.llc_ways, MbaLevel::MAX);
        let throttled = measure::measure_ips(&cfg, &b.spec(), cfg.llc_ways, MbaLevel::MIN);
        let deg = (full - throttled) / full;
        assert!(
            deg < 0.15,
            "{}: {deg:.3} degradation from MBA alone contradicts its category",
            b.table2().short
        );
    }
}

#[test]
fn bw_sensitive_benchmarks_ignore_llc() {
    // §4.1 finding: BW-sensitive apps show little sensitivity to LLC
    // capacity even when bandwidth is scarce.
    let cfg = cfg();
    for b in [Benchmark::OceanCp, Benchmark::Cg, Benchmark::Ft] {
        let full = measure::measure_ips(&cfg, &b.spec(), cfg.llc_ways, MbaLevel::MAX);
        let one_way = measure::measure_ips(&cfg, &b.spec(), 1, MbaLevel::MAX);
        let deg = (full - one_way) / full;
        assert!(
            deg < 0.15,
            "{}: {deg:.3} degradation from LLC alone contradicts its category",
            b.table2().short
        );
    }
}

#[test]
fn stream_is_the_traffic_ceiling() {
    // Every benchmark's miss rate must stay below STREAM's at full
    // resources — STREAM is the paper's empirical traffic maximum.
    let cfg = cfg();
    let stream = copart_workloads::stream::StreamReference::for_machine(&cfg);
    let ceiling = stream.misses_per_sec(MbaLevel::MAX);
    for b in Benchmark::all() {
        let (_, rates) = measure::measure_full(&cfg, &b.spec());
        assert!(
            rates.llc_misses_per_sec < ceiling,
            "{} out-streams STREAM: {:.2e} vs {ceiling:.2e}",
            b.table2().short,
            rates.llc_misses_per_sec
        );
    }
}
