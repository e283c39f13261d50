//! Solo-run measurement harness (the §4.1 methodology).
//!
//! The paper characterizes each benchmark by running it alone with four
//! threads under a swept resource allocation and recording IPS and the LLC
//! counters. These helpers reproduce that methodology on the simulator and
//! back both the calibration tests and the Figure 1–3 / Table 2
//! experiment harnesses.

use copart_sim::{AppSpec, CbmMask, ClosId, Machine, MachineConfig, MbaLevel};
use copart_telemetry::Rates;

use crate::Category;

/// Simulation window used for solo measurements (50 ms of virtual time).
pub const WINDOW_NS: u64 = 50_000_000;
/// Warm-up windows discarded before measuring.
pub const WARMUP_WINDOWS: u32 = 30;
/// Windows averaged for the measurement.
pub const MEASURE_WINDOWS: u32 = 20;

/// Runs `spec` alone with `ways` LLC ways (lowest ways first) at the given
/// MBA level, returning the steady-state IPS.
pub fn measure_ips(cfg: &MachineConfig, spec: &AppSpec, ways: u32, mba: MbaLevel) -> f64 {
    measure(cfg, spec, ways, mba).0
}

/// Like [`measure_ips`], but also returns counter-derived rates over the
/// measurement span.
pub fn measure(cfg: &MachineConfig, spec: &AppSpec, ways: u32, mba: MbaLevel) -> (f64, Rates) {
    let mut m = Machine::new(cfg.clone());
    let clos = ClosId(1);
    let mask = CbmMask::contiguous(0, ways, cfg.llc_ways).expect("valid way count");
    m.set_cbm(clos, mask).expect("mask fits machine");
    m.set_mba(clos, mba);
    let app = m.add_app(spec.clone(), clos).expect("machine starts empty");

    for _ in 0..WARMUP_WINDOWS {
        m.tick(WINDOW_NS);
    }
    let start = m.counters(app).expect("app is live");
    let mut ips_sum = 0.0;
    for _ in 0..MEASURE_WINDOWS {
        let reports = m.tick(WINDOW_NS);
        ips_sum += reports[0].ips;
    }
    let end = m.counters(app).expect("app is live");
    let rates = end
        .delta_since(&start)
        .and_then(|d| d.rates())
        .unwrap_or_default();
    (ips_sum / f64::from(MEASURE_WINDOWS), rates)
}

/// IPS with every resource (all ways, MBA 100 %), the paper's
/// `IPS_full` reference (Eq 1).
pub fn measure_full(cfg: &MachineConfig, spec: &AppSpec) -> (f64, Rates) {
    measure(cfg, spec, cfg.llc_ways, MbaLevel::MAX)
}

/// The two §3.3 degradation probes: (LLC degradation when ways drop from
/// all to 1 at MBA 100 %, bandwidth degradation when MBA drops from 100 %
/// to 10 % with all ways). Both are fractions in `[0, 1]`.
pub fn degradations(cfg: &MachineConfig, spec: &AppSpec) -> (f64, f64) {
    let full = measure_ips(cfg, spec, cfg.llc_ways, MbaLevel::MAX);
    let one_way = measure_ips(cfg, spec, 1, MbaLevel::MAX);
    let throttled = measure_ips(cfg, spec, cfg.llc_ways, MbaLevel::MIN);
    let deg = |x: f64| ((full - x) / full).max(0.0);
    (deg(one_way), deg(throttled))
}

/// Applies the paper's classification thresholds to measured degradations.
pub fn classify(cfg: &MachineConfig, spec: &AppSpec) -> Category {
    let (llc, bw) = degradations(cfg, spec);
    Category::classify(llc, bw)
}

/// One point of a miss-ratio curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MrcPoint {
    /// Allocated LLC ways.
    pub ways: u32,
    /// Steady-state LLC miss ratio at that allocation.
    pub miss_ratio: f64,
    /// Steady-state IPS at that allocation.
    pub ips: f64,
}

/// Profiles the benchmark's miss-ratio curve: one solo run per way count
/// from 1 to the machine's way count, at MBA 100 %.
///
/// This is the curve utility-based partitioning schemes (UCP, dCat, …)
/// build on; CoPart deliberately avoids constructing it online — the
/// paper's point is that its FSM probes are much cheaper — but the
/// offline curve is invaluable for calibration and visualisation. Each
/// point is one [`measure`] run, so the curve is a pure function of
/// `(cfg, spec)`: the Utility comparator reads it point by point through
/// `copart_core::policies::solo_points`, which answers from the
/// checked-in table ([`crate::reference`]) where it can and equals this
/// function bit for bit everywhere.
pub fn miss_ratio_curve(cfg: &MachineConfig, spec: &AppSpec) -> Vec<MrcPoint> {
    (1..=cfg.llc_ways)
        .map(|ways| {
            let (ips, rates) = measure(cfg, spec, ways, MbaLevel::MAX);
            MrcPoint {
                ways,
                miss_ratio: rates.miss_ratio,
                ips,
            }
        })
        .collect()
}

/// Minimum way count at which the benchmark reaches `fraction` of its
/// full-resource IPS (at MBA 100 %); `None` if even all ways fall short
/// (possible only through measurement noise).
pub fn required_ways(cfg: &MachineConfig, spec: &AppSpec, fraction: f64) -> Option<u32> {
    let full = measure_ips(cfg, spec, cfg.llc_ways, MbaLevel::MAX);
    (1..=cfg.llc_ways).find(|&w| measure_ips(cfg, spec, w, MbaLevel::MAX) >= fraction * full)
}

/// Minimum MBA level at which the benchmark reaches `fraction` of its
/// full-resource IPS (with all ways); `None` if even 100 % falls short.
pub fn required_mba(cfg: &MachineConfig, spec: &AppSpec, fraction: f64) -> Option<MbaLevel> {
    let full = measure_ips(cfg, spec, cfg.llc_ways, MbaLevel::MAX);
    MbaLevel::all().find(|&l| measure_ips(cfg, spec, cfg.llc_ways, l) >= fraction * full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_sim::trace::AccessPattern;

    fn cfg() -> MachineConfig {
        MachineConfig::xeon_gold_6130()
    }

    fn compute_spec() -> AppSpec {
        AppSpec {
            name: "compute".into(),
            cores: 4,
            ipc_peak: 1.5,
            apki: 0.01,
            write_fraction: 0.0,
            mlp: 4.0,
            phases: vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: 64 * 1024,
                    stride: 64,
                },
            )],
        }
    }

    #[test]
    fn compute_bound_spec_is_insensitive_and_peaks() {
        let cfg = cfg();
        let spec = compute_spec();
        let (ips, rates) = measure_full(&cfg, &spec);
        let peak = 4.0 * cfg.freq_hz * 1.5;
        assert!(ips > 0.95 * peak);
        assert!(rates.ips > 0.9 * peak);
        assert_eq!(classify(&cfg, &spec), Category::Insensitive);
        assert_eq!(required_ways(&cfg, &spec, 0.9), Some(1));
        assert_eq!(required_mba(&cfg, &spec, 0.9), Some(MbaLevel::MIN));
    }

    #[test]
    fn miss_ratio_curve_falls_with_ways_for_a_loop() {
        let cfg = cfg();
        let spec = AppSpec {
            name: "loop".into(),
            cores: 4,
            ipc_peak: 1.2,
            apki: 30.0,
            write_fraction: 0.1,
            mlp: 4.0,
            phases: vec![(
                1.0,
                AccessPattern::WorkingSetLoop {
                    bytes: 10 * 1024 * 1024, // 5 of 11 ways.
                    stride: 64,
                },
            )],
        };
        let curve = miss_ratio_curve(&cfg, &spec);
        assert_eq!(curve.len(), cfg.llc_ways as usize);
        // Starved: thrashing; ample: fitting.
        assert!(curve[0].miss_ratio > 0.5, "1 way: {:?}", curve[0]);
        assert!(
            curve.last().unwrap().miss_ratio < 0.05,
            "11 ways: {:?}",
            curve.last().unwrap()
        );
        // The knee is at the working-set size (5 ways).
        let at_6 = curve[5].miss_ratio;
        assert!(at_6 < 0.1, "past the knee: {at_6}");
        // Weakly decreasing (up to sampling noise).
        for pair in curve.windows(2) {
            assert!(
                pair[1].miss_ratio <= pair[0].miss_ratio + 0.05,
                "MRC rose: {pair:?}"
            );
        }
    }

    #[test]
    fn streamer_is_bw_sensitive() {
        let cfg = cfg();
        let spec = AppSpec {
            name: "streamer".into(),
            cores: 4,
            ipc_peak: 1.0,
            apki: 120.0,
            write_fraction: 0.3,
            mlp: 12.0,
            phases: vec![(1.0, AccessPattern::Stream { bytes: 1 << 30 })],
        };
        assert_eq!(classify(&cfg, &spec), Category::BwSensitive);
        let low = measure_ips(&cfg, &spec, cfg.llc_ways, MbaLevel::MIN);
        let high = measure_ips(&cfg, &spec, cfg.llc_ways, MbaLevel::MAX);
        assert!(low < 0.7 * high);
    }
}
