//! The Table 2 benchmark models.
//!
//! Each constructor returns an [`AppSpec`] calibrated against the paper's
//! published counter signature and sensitivity anchors (see the crate
//! docs). The numeric parameters are *model calibration data*, not
//! measurements: the original benchmarks cannot run inside a simulator, so
//! the phase mixtures below are the closest synthetic equivalents whose
//! counter behaviour matches what the paper reports.

use copart_sim::trace::AccessPattern;
use copart_sim::AppSpec;

use crate::Category;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// Paper-reported characteristics of a benchmark (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Short name used in the paper ("WN", "CG", ...).
    pub short: &'static str,
    /// Full benchmark name.
    pub name: &'static str,
    /// The paper's category.
    pub category: Category,
    /// LLC accesses per second at full resources.
    pub llc_accesses_per_sec: f64,
    /// LLC misses per second at full resources.
    pub llc_misses_per_sec: f64,
}

/// The 11 evaluated benchmarks (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SPLASH-2 `water_nsquared` (WN) — LLC-sensitive.
    WaterNsquared,
    /// SPLASH-2 `water_spatial` (WS) — LLC-sensitive.
    WaterSpatial,
    /// SPLASH-2 `raytrace` (RT) — LLC-sensitive.
    Raytrace,
    /// SPLASH-2 `ocean_cp` (OC) — memory bandwidth-sensitive.
    OceanCp,
    /// NPB `CG` — memory bandwidth-sensitive.
    Cg,
    /// NPB `FT` — memory bandwidth-sensitive.
    Ft,
    /// NPB `SP` — LLC- and memory bandwidth-sensitive.
    Sp,
    /// SPLASH-2 `ocean_ncp` (ON) — LLC- and memory bandwidth-sensitive.
    OceanNcp,
    /// SPLASH-2 `FMM` — LLC- and memory bandwidth-sensitive.
    Fmm,
    /// PARSEC `swaptions` (SW) — insensitive.
    Swaptions,
    /// NPB `EP` — insensitive.
    Ep,
}

impl Benchmark {
    /// All benchmarks, in Table 2 order.
    pub fn all() -> [Benchmark; 11] {
        use Benchmark::*;
        [
            WaterNsquared,
            WaterSpatial,
            Raytrace,
            OceanCp,
            Cg,
            Ft,
            Sp,
            OceanNcp,
            Fmm,
            Swaptions,
            Ep,
        ]
    }

    /// The benchmark with this Table 2 short name (`WN`, `SP`, ...; case
    /// is ignored).
    ///
    /// # Errors
    ///
    /// Rejects unknown short names.
    pub fn from_short(short: &str) -> Result<Benchmark, String> {
        Benchmark::all()
            .into_iter()
            .find(|b| b.table2().short.eq_ignore_ascii_case(short))
            .ok_or_else(|| format!("unknown benchmark {short:?} (use the Table 2 short names)"))
    }

    /// The paper's reported characteristics (Table 2).
    pub fn table2(self) -> Table2Row {
        use Benchmark::*;
        use Category::*;
        match self {
            WaterNsquared => Table2Row {
                short: "WN",
                name: "water_nsquared",
                category: LlcSensitive,
                llc_accesses_per_sec: 6.91e7,
                llc_misses_per_sec: 2.58e4,
            },
            WaterSpatial => Table2Row {
                short: "WS",
                name: "water_spatial",
                category: LlcSensitive,
                llc_accesses_per_sec: 4.32e7,
                llc_misses_per_sec: 9.12e5,
            },
            Raytrace => Table2Row {
                short: "RT",
                name: "raytrace",
                category: LlcSensitive,
                llc_accesses_per_sec: 3.76e7,
                llc_misses_per_sec: 2.16e4,
            },
            OceanCp => Table2Row {
                short: "OC",
                name: "ocean_cp",
                category: BwSensitive,
                llc_accesses_per_sec: 5.19e7,
                llc_misses_per_sec: 4.88e7,
            },
            Cg => Table2Row {
                short: "CG",
                name: "CG",
                category: BwSensitive,
                llc_accesses_per_sec: 3.10e8,
                llc_misses_per_sec: 1.12e8,
            },
            Ft => Table2Row {
                short: "FT",
                name: "FT",
                category: BwSensitive,
                llc_accesses_per_sec: 2.45e7,
                llc_misses_per_sec: 2.00e7,
            },
            Sp => Table2Row {
                short: "SP",
                name: "SP",
                category: Both,
                llc_accesses_per_sec: 1.69e8,
                llc_misses_per_sec: 9.21e7,
            },
            OceanNcp => Table2Row {
                short: "ON",
                name: "ocean_ncp",
                category: Both,
                llc_accesses_per_sec: 9.49e7,
                llc_misses_per_sec: 7.89e7,
            },
            Fmm => Table2Row {
                short: "FMM",
                name: "FMM",
                category: Both,
                llc_accesses_per_sec: 6.12e6,
                llc_misses_per_sec: 3.47e6,
            },
            Swaptions => Table2Row {
                short: "SW",
                name: "swaptions",
                category: Insensitive,
                llc_accesses_per_sec: 1.08e4,
                llc_misses_per_sec: 7.98e2,
            },
            Ep => Table2Row {
                short: "EP",
                name: "EP",
                category: Insensitive,
                llc_accesses_per_sec: 7.34e5,
                llc_misses_per_sec: 1.79e4,
            },
        }
    }

    /// The paper's category for this benchmark.
    pub fn category(self) -> Category {
        self.table2().category
    }

    /// The calibrated model with the paper's default four threads/cores.
    ///
    /// # Examples
    ///
    /// ```
    /// use copart_workloads::Benchmark;
    ///
    /// let spec = Benchmark::Cg.spec();
    /// assert_eq!(spec.name, "CG");
    /// assert_eq!(spec.cores, 4);
    /// ```
    pub fn spec(self) -> AppSpec {
        self.spec_with_cores(4)
    }

    /// The calibrated model pinned to `cores` dedicated cores.
    ///
    /// Per-instruction characteristics (APKI, IPC, phase mixture) are
    /// core-count invariant; aggregate rates scale with the core count, as
    /// they do for the compute-bound region of real benchmarks.
    pub fn spec_with_cores(self, cores: u32) -> AppSpec {
        use AccessPattern::*;
        use Benchmark::*;
        let (ipc_peak, apki, write_fraction, mlp, phases): (
            f64,
            f64,
            f64,
            f64,
            Vec<(f64, AccessPattern)>,
        ) = match self {
            WaterNsquared => (
                1.4,
                5.9,
                0.20,
                2.0,
                vec![
                    (
                        0.5495,
                        WorkingSetLoop {
                            bytes: 7 * MB,
                            stride: 64,
                        },
                    ),
                    (
                        0.30,
                        Zipf {
                            bytes: 9 * MB,
                            exponent: 1.3,
                        },
                    ),
                    (
                        0.15,
                        WorkingSetLoop {
                            bytes: 512 * KB,
                            stride: 64,
                        },
                    ),
                    // Cold/compulsory misses (Table 2: 2.58e4 misses/s).
                    (0.0005, UniformRandom { bytes: 1 << 30 }),
                ],
            ),
            WaterSpatial => (
                1.35,
                3.8,
                0.20,
                2.0,
                vec![
                    (
                        0.578,
                        WorkingSetLoop {
                            bytes: 5 * MB,
                            stride: 64,
                        },
                    ),
                    (
                        0.25,
                        Zipf {
                            bytes: 7 * MB,
                            exponent: 1.3,
                        },
                    ),
                    (
                        0.15,
                        WorkingSetLoop {
                            bytes: 256 * KB,
                            stride: 64,
                        },
                    ),
                    // Boundary-exchange misses (Table 2: 9.12e5 misses/s).
                    (0.022, UniformRandom { bytes: 1 << 30 }),
                ],
            ),
            Raytrace => (
                1.5,
                3.0,
                0.10,
                2.0,
                vec![
                    (
                        0.5993,
                        WorkingSetLoop {
                            bytes: 3 * MB + 256 * KB,
                            stride: 64,
                        },
                    ),
                    (
                        0.30,
                        Zipf {
                            bytes: 5 * MB,
                            exponent: 1.4,
                        },
                    ),
                    (
                        0.10,
                        WorkingSetLoop {
                            bytes: 128 * KB,
                            stride: 64,
                        },
                    ),
                    // Cold scene-graph misses (Table 2: 2.16e4 misses/s).
                    (0.0007, UniformRandom { bytes: 1 << 30 }),
                ],
            ),
            OceanCp => (
                1.0,
                10.0,
                0.30,
                2.5,
                vec![
                    (0.95, Stream { bytes: 128 * MB }),
                    (
                        0.05,
                        WorkingSetLoop {
                            bytes: 256 * KB,
                            stride: 64,
                        },
                    ),
                ],
            ),
            Cg => (
                0.9,
                41.0,
                0.15,
                10.0,
                vec![
                    (0.25, Stream { bytes: 256 * MB }),
                    (0.15, UniformRandom { bytes: 64 * MB }),
                    (
                        0.60,
                        WorkingSetLoop {
                            bytes: 3 * MB / 2,
                            stride: 64,
                        },
                    ),
                ],
            ),
            Ft => (
                1.3,
                4.0,
                0.25,
                2.2,
                vec![
                    (0.80, Stream { bytes: 192 * MB }),
                    (
                        0.20,
                        WorkingSetLoop {
                            bytes: 512 * KB,
                            stride: 64,
                        },
                    ),
                ],
            ),
            Sp => (
                0.8,
                25.0,
                0.25,
                6.0,
                vec![
                    (
                        0.45,
                        WorkingSetLoop {
                            bytes: 9 * MB,
                            stride: 64,
                        },
                    ),
                    (
                        0.10,
                        Zipf {
                            bytes: 12 * MB,
                            exponent: 1.2,
                        },
                    ),
                    (0.45, Stream { bytes: 128 * MB }),
                ],
            ),
            OceanNcp => (
                0.7,
                30.0,
                0.30,
                4.0,
                vec![
                    (
                        0.35,
                        WorkingSetLoop {
                            bytes: 6 * MB,
                            stride: 64,
                        },
                    ),
                    (
                        0.05,
                        Zipf {
                            bytes: 8 * MB,
                            exponent: 1.2,
                        },
                    ),
                    (0.60, Stream { bytes: 192 * MB }),
                ],
            ),
            Fmm => (
                1.2,
                1.2,
                0.20,
                0.4,
                vec![
                    (
                        0.40,
                        WorkingSetLoop {
                            bytes: 10 * MB,
                            stride: 64,
                        },
                    ),
                    (
                        0.20,
                        Zipf {
                            bytes: 14 * MB,
                            exponent: 1.1,
                        },
                    ),
                    (0.40, Stream { bytes: 64 * MB }),
                ],
            ),
            Swaptions => (
                1.8,
                7.1e-4,
                0.10,
                1.0,
                vec![
                    (
                        0.925,
                        WorkingSetLoop {
                            bytes: 64 * KB,
                            stride: 64,
                        },
                    ),
                    // Rare swap-path misses (Table 2: 7.98e2 misses/s).
                    (0.075, UniformRandom { bytes: 1 << 30 }),
                ],
            ),
            Ep => (
                1.6,
                0.055,
                0.10,
                1.0,
                vec![
                    (
                        0.675,
                        WorkingSetLoop {
                            bytes: 512 * KB,
                            stride: 64,
                        },
                    ),
                    (
                        0.30,
                        Zipf {
                            bytes: MB,
                            exponent: 1.3,
                        },
                    ),
                    // Random-number table misses (Table 2: 1.79e4 misses/s).
                    (0.025, UniformRandom { bytes: 1 << 30 }),
                ],
            ),
        };
        AppSpec {
            name: self.table2().name.to_string(),
            cores,
            ipc_peak,
            apki,
            write_fraction,
            mlp,
            phases,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_eleven_unique_benchmarks() {
        let all = Benchmark::all();
        assert_eq!(all.len(), 11);
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn every_short_name_resolves_back_to_its_benchmark() {
        for b in Benchmark::all() {
            let short = b.table2().short;
            assert_eq!(Benchmark::from_short(short), Ok(b));
            assert_eq!(Benchmark::from_short(&short.to_lowercase()), Ok(b));
        }
        assert!(Benchmark::from_short("nope").is_err());
    }

    #[test]
    fn table2_shorts_are_unique() {
        let shorts: Vec<&str> = Benchmark::all().iter().map(|b| b.table2().short).collect();
        let mut dedup = shorts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), shorts.len());
    }

    #[test]
    fn specs_are_well_formed() {
        for b in Benchmark::all() {
            let s = b.spec();
            assert_eq!(s.cores, 4);
            assert!(s.ipc_peak > 0.0 && s.apki >= 0.0);
            assert!((0.0..=1.0).contains(&s.write_fraction));
            assert!(!s.phases.is_empty());
            let total_weight: f64 = s.phases.iter().map(|(w, _)| w).sum();
            assert!(
                (total_weight - 1.0).abs() < 1e-9,
                "{}: weights {total_weight}",
                s.name
            );
        }
    }

    #[test]
    fn core_count_override() {
        let s = Benchmark::Cg.spec_with_cores(2);
        assert_eq!(s.cores, 2);
        assert_eq!(s.apki, Benchmark::Cg.spec().apki);
    }

    #[test]
    fn categories_match_table2_counts() {
        use Category::*;
        let count = |c: Category| {
            Benchmark::all()
                .iter()
                .filter(|b| b.category() == c)
                .count()
        };
        assert_eq!(count(LlcSensitive), 3);
        assert_eq!(count(BwSensitive), 3);
        assert_eq!(count(Both), 3);
        assert_eq!(count(Insensitive), 2);
    }
}
