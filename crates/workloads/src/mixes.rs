//! Workload-mix construction (§6.1 / §6.2 of the paper).
//!
//! The evaluation consolidates benchmarks into seven mix kinds:
//! highly/moderately LLC-sensitive, bandwidth-sensitive, and
//! both-sensitive, plus an all-insensitive mix. For application counts
//! other than four the paper states the mixes are "generated similarly";
//! this module applies the natural generalization: a *highly* sensitive
//! mix keeps exactly one insensitive member and fills the rest with the
//! category (cycling through its three benchmarks when more instances are
//! needed than exist), a *moderately* sensitive mix fills half the slots
//! with the category and the rest with insensitive benchmarks.

use copart_sim::AppSpec;

use crate::{Benchmark, Category};

/// The seven evaluated mix kinds (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MixKind {
    /// Highly LLC-sensitive: all-but-one LLC-sensitive + one insensitive.
    HighLlc,
    /// Highly memory bandwidth-sensitive.
    HighBw,
    /// Highly LLC- and memory bandwidth-sensitive.
    HighBoth,
    /// Moderately LLC-sensitive: half LLC-sensitive, half insensitive.
    ModerateLlc,
    /// Moderately memory bandwidth-sensitive.
    ModerateBw,
    /// Moderately LLC- and memory bandwidth-sensitive.
    ModerateBoth,
    /// All insensitive.
    Insensitive,
}

impl MixKind {
    /// All seven kinds, in Figure 12 order.
    pub fn all() -> [MixKind; 7] {
        use MixKind::*;
        [
            HighLlc,
            HighBw,
            HighBoth,
            ModerateLlc,
            ModerateBw,
            ModerateBoth,
            Insensitive,
        ]
    }

    /// The label the paper uses for this mix.
    pub fn label(self) -> &'static str {
        match self {
            MixKind::HighLlc => "H-LLC",
            MixKind::HighBw => "H-BW",
            MixKind::HighBoth => "H-Both",
            MixKind::ModerateLlc => "M-LLC",
            MixKind::ModerateBw => "M-BW",
            MixKind::ModerateBoth => "M-Both",
            MixKind::Insensitive => "IS",
        }
    }

    /// The name the mix goes by on the command line (`--mix`), in
    /// compare-scenario names and in trace file names: the label in
    /// lower case.
    pub fn wire_name(self) -> &'static str {
        match self {
            MixKind::HighLlc => "h-llc",
            MixKind::HighBw => "h-bw",
            MixKind::HighBoth => "h-both",
            MixKind::ModerateLlc => "m-llc",
            MixKind::ModerateBw => "m-bw",
            MixKind::ModerateBoth => "m-both",
            MixKind::Insensitive => "is",
        }
    }

    /// The mix with this wire name.
    pub fn from_wire(name: &str) -> Option<MixKind> {
        MixKind::all().into_iter().find(|k| k.wire_name() == name)
    }

    fn sensitive_category(self) -> Option<Category> {
        match self {
            MixKind::HighLlc | MixKind::ModerateLlc => Some(Category::LlcSensitive),
            MixKind::HighBw | MixKind::ModerateBw => Some(Category::BwSensitive),
            MixKind::HighBoth | MixKind::ModerateBoth => Some(Category::Both),
            MixKind::Insensitive => None,
        }
    }

    fn sensitive_count(self, n_apps: usize) -> usize {
        match self {
            MixKind::HighLlc | MixKind::HighBw | MixKind::HighBoth => n_apps - 1,
            MixKind::ModerateLlc | MixKind::ModerateBw | MixKind::ModerateBoth => n_apps / 2,
            MixKind::Insensitive => 0,
        }
    }
}

/// A concrete consolidated workload: benchmarks plus a per-application
/// core allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMix {
    /// Which mix family this is.
    pub kind: MixKind,
    /// The member benchmarks, in slot order.
    pub members: Vec<Benchmark>,
    /// Dedicated cores per application.
    pub cores_per_app: u32,
}

impl WorkloadMix {
    /// Builds the mix of the given kind with `n_apps` applications on a
    /// machine with `total_cores` cores.
    ///
    /// Each application receives `min(4, total_cores / n_apps)` cores — 4
    /// threads per benchmark as in the paper, reduced when more than four
    /// applications share the 16-core machine.
    ///
    /// # Panics
    ///
    /// Panics when `n_apps` is zero or exceeds `total_cores`; evaluation
    /// sweeps use 3–6 applications.
    pub fn build(kind: MixKind, n_apps: usize, total_cores: u32) -> WorkloadMix {
        assert!(n_apps >= 1, "a mix needs at least one application");
        assert!(
            n_apps as u32 <= total_cores,
            "cannot give {n_apps} applications dedicated cores out of {total_cores}"
        );
        let llc = [
            Benchmark::WaterNsquared,
            Benchmark::WaterSpatial,
            Benchmark::Raytrace,
        ];
        let bw = [Benchmark::OceanCp, Benchmark::Cg, Benchmark::Ft];
        let both = [Benchmark::Sp, Benchmark::OceanNcp, Benchmark::Fmm];
        let insensitive = [Benchmark::Swaptions, Benchmark::Ep];

        let n_sensitive = kind.sensitive_count(n_apps);
        let mut members = Vec::with_capacity(n_apps);
        if let Some(cat) = kind.sensitive_category() {
            let pool: &[Benchmark] = match cat {
                Category::LlcSensitive => &llc,
                Category::BwSensitive => &bw,
                Category::Both => &both,
                Category::Insensitive => unreachable!("sensitive category"),
            };
            for i in 0..n_sensitive {
                members.push(pool[i % pool.len()]);
            }
        }
        let mut k = 0;
        while members.len() < n_apps {
            members.push(insensitive[k % insensitive.len()]);
            k += 1;
        }
        let cores_per_app = (total_cores / n_apps as u32).min(4);
        WorkloadMix {
            kind,
            members,
            cores_per_app,
        }
    }

    /// The default 4-application mixes of §6.1 on the 16-core testbed.
    pub fn paper_default(kind: MixKind) -> WorkloadMix {
        WorkloadMix::build(kind, 4, 16)
    }

    /// Application specs with unique names (duplicated benchmarks get an
    /// instance suffix).
    pub fn specs(&self) -> Vec<AppSpec> {
        let mut seen: std::collections::HashMap<Benchmark, u32> = std::collections::HashMap::new();
        self.members
            .iter()
            .map(|&b| {
                let mut spec = b.spec_with_cores(self.cores_per_app);
                let n = seen.entry(b).or_insert(0);
                if *n > 0 {
                    spec.name = format!("{}#{}", spec.name, *n);
                }
                *n += 1;
                spec
            })
            .collect()
    }

    /// Number of applications in the mix.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the mix is empty (never true for built mixes).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_compositions() {
        let m = WorkloadMix::paper_default(MixKind::HighLlc);
        assert_eq!(
            m.members,
            vec![
                Benchmark::WaterNsquared,
                Benchmark::WaterSpatial,
                Benchmark::Raytrace,
                Benchmark::Swaptions
            ]
        );
        assert_eq!(m.cores_per_app, 4);

        let m = WorkloadMix::paper_default(MixKind::ModerateBw);
        let cats: Vec<Category> = m.members.iter().map(|b| b.category()).collect();
        assert_eq!(
            cats.iter().filter(|c| **c == Category::BwSensitive).count(),
            2
        );
        assert_eq!(
            cats.iter().filter(|c| **c == Category::Insensitive).count(),
            2
        );

        let m = WorkloadMix::paper_default(MixKind::Insensitive);
        assert!(m
            .members
            .iter()
            .all(|b| b.category() == Category::Insensitive));
    }

    #[test]
    fn swept_counts_keep_the_family_shape() {
        for n in 3..=6 {
            let m = WorkloadMix::build(MixKind::HighBoth, n, 16);
            assert_eq!(m.len(), n);
            let sensitive = m
                .members
                .iter()
                .filter(|b| b.category() == Category::Both)
                .count();
            assert_eq!(sensitive, n - 1);
            assert!(m.cores_per_app * n as u32 <= 16);
        }
    }

    #[test]
    fn six_apps_reuse_benchmarks_with_unique_names() {
        let m = WorkloadMix::build(MixKind::HighLlc, 6, 16);
        let specs = m.specs();
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate app names");
        assert_eq!(m.cores_per_app, 2);
    }

    #[test]
    fn core_cap_at_four() {
        let m = WorkloadMix::build(MixKind::Insensitive, 3, 16);
        assert_eq!(m.cores_per_app, 4);
    }

    #[test]
    #[should_panic(expected = "dedicated cores")]
    fn too_many_apps_panics() {
        let _ = WorkloadMix::build(MixKind::Insensitive, 20, 16);
    }

    #[test]
    fn labels_are_paper_labels() {
        let labels: Vec<&str> = MixKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            vec!["H-LLC", "H-BW", "H-Both", "M-LLC", "M-BW", "M-Both", "IS"]
        );
    }

    #[test]
    fn wire_names_round_trip_and_lower_the_labels() {
        for kind in MixKind::all() {
            assert_eq!(MixKind::from_wire(kind.wire_name()), Some(kind));
            assert_eq!(kind.wire_name(), kind.label().to_lowercase());
        }
        assert_eq!(MixKind::from_wire("H-LLC"), None);
    }
}
