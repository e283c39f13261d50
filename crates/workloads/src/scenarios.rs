//! The head-to-head scenario registry for `copart compare`.
//!
//! A [`CompareScenario`] names one consolidated workload the engine
//! comparison runs every registered policy over. The registry spans the
//! paper's steady-state mixes and three stress shapes built from the
//! §6.3 case-study models:
//!
//! * **diurnal-lc** — the LC application sized for the midday peak of
//!   [`LoadTrace::diurnal`] (high-tier reservation) consolidated with
//!   the two Spark batch models,
//! * **flash-crowd-lc** — the LC application under the saturating surge
//!   of [`LoadTrace::flash_crowd`]: the reservation is maxed out and the
//!   batch jobs compete for what is left,
//! * **bully** — one [`antagonist_spec`] cache-and-bandwidth bully
//!   consolidated with three sensitive victims.
//!
//! Scenario construction is a pure function of the machine
//! configuration — no RNG, no measurement — so the registry is the same
//! in every process and at every `--jobs` setting, which is what lets
//! the compare harness demand byte-identical output across worker
//! counts.

use copart_sim::trace::AccessPattern;
use copart_sim::{AppSpec, MachineConfig};

use crate::casestudy::{kmeans_spec, memcached_spec, wordcount_spec, LcReservation, LoadTrace};
use crate::{Benchmark, MixKind, WorkloadMix};

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

/// An antagonist ("bully") profile: a memory hog that streams a huge
/// footprint at maximal concurrency and writes a third of it back. It
/// pollutes every cache way it can reach and saturates the memory
/// controller, yet gains almost nothing from either — the worst
/// neighbour a fairness policy has to contain.
pub fn antagonist_spec(cores: u32) -> AppSpec {
    AppSpec {
        name: "antagonist".into(),
        cores,
        ipc_peak: 0.8,
        apki: 45.0,
        write_fraction: 0.35,
        mlp: 10.0,
        phases: vec![
            (0.7, AccessPattern::Stream { bytes: 768 * MB }),
            (0.3, AccessPattern::UniformRandom { bytes: 256 * MB }),
        ],
    }
}

/// A cache-friendly victim for the bully scenario: a small hot working
/// set that collapses when the antagonist floods the LLC.
fn victim_spec(name: &str, cores: u32) -> AppSpec {
    AppSpec {
        name: name.into(),
        cores,
        ipc_peak: 1.4,
        apki: 12.0,
        write_fraction: 0.1,
        mlp: 2.0,
        phases: vec![
            (
                0.8,
                AccessPattern::WorkingSetLoop {
                    bytes: 6 * MB,
                    stride: 64,
                },
            ),
            (
                0.2,
                AccessPattern::WorkingSetLoop {
                    bytes: 256 * KB,
                    stride: 64,
                },
            ),
        ],
    }
}

/// One named workload of the head-to-head comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareScenario {
    /// One of the paper's §6.1 steady-state mixes (4 applications).
    PaperMix(MixKind),
    /// The LC application at its diurnal midday peak plus the Spark
    /// batch jobs.
    DiurnalLc,
    /// The LC application under the saturating flash-crowd surge plus
    /// the Spark batch jobs.
    FlashCrowdLc,
    /// One antagonist consolidated with three sensitive victims.
    Bully,
}

impl CompareScenario {
    /// The full registry, in report order: two paper anchors bracketing
    /// the sensitivity range, then the three stress shapes.
    pub fn all() -> Vec<CompareScenario> {
        vec![
            CompareScenario::PaperMix(MixKind::HighBoth),
            CompareScenario::PaperMix(MixKind::ModerateLlc),
            CompareScenario::DiurnalLc,
            CompareScenario::FlashCrowdLc,
            CompareScenario::Bully,
        ]
    }

    /// The scenario's stable wire name (JSONL and artifact key).
    pub fn name(self) -> &'static str {
        match self {
            CompareScenario::PaperMix(kind) => kind.wire_name(),
            CompareScenario::DiurnalLc => "diurnal-lc",
            CompareScenario::FlashCrowdLc => "flash-crowd-lc",
            CompareScenario::Bully => "bully",
        }
    }

    /// The consolidated application specs on the given machine.
    pub fn specs(self, machine: &MachineConfig) -> Vec<AppSpec> {
        let quarter = (machine.n_cores / 4).max(1);
        match self {
            CompareScenario::PaperMix(kind) => WorkloadMix::build(kind, 4, machine.n_cores).specs(),
            CompareScenario::DiurnalLc => {
                // The outer manager sizes the LC app for the midday
                // peak; the batch jobs split the remaining cores.
                let r = LcReservation::for_load(LoadTrace::diurnal().peak());
                let batch = ((machine.n_cores - r.lc_cores) / 2).max(1);
                vec![
                    memcached_spec(r.lc_cores),
                    wordcount_spec(batch),
                    kmeans_spec(batch),
                ]
            }
            CompareScenario::FlashCrowdLc => {
                // The surge saturates the LC model at any reservation;
                // the manager still grants the high tier, and a fourth
                // tenant (the insensitive EP) rides along as ballast.
                let r = LcReservation::for_load(LoadTrace::flash_crowd().peak());
                let batch = ((machine.n_cores - r.lc_cores) / 3).max(1);
                let mut ep = Benchmark::Ep.spec_with_cores(batch);
                ep.name = "EP-ballast".into();
                vec![
                    memcached_spec(r.lc_cores),
                    wordcount_spec(batch),
                    kmeans_spec(batch),
                    ep,
                ]
            }
            CompareScenario::Bully => vec![
                antagonist_spec(quarter),
                victim_spec("victim-a", quarter),
                victim_spec("victim-b", quarter),
                victim_spec("victim-c", quarter),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = CompareScenario::all().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec!["h-both", "m-llc", "diurnal-lc", "flash-crowd-lc", "bully"]
        );
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario names");
    }

    #[test]
    fn every_scenario_fits_the_paper_testbed() {
        let machine = MachineConfig::xeon_gold_6130();
        for s in CompareScenario::all() {
            let specs = s.specs(&machine);
            assert!(
                (3..=4).contains(&specs.len()),
                "{}: {} apps",
                s.name(),
                specs.len()
            );
            let cores: u32 = specs.iter().map(|a| a.cores).sum();
            assert!(
                cores <= machine.n_cores,
                "{}: {cores} cores over {}",
                s.name(),
                machine.n_cores
            );
            let mut names: Vec<&str> = specs.iter().map(|a| a.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), specs.len(), "{}: duplicate names", s.name());
            for a in &specs {
                assert!(a.cores >= 1);
                let w: f64 = a.phases.iter().map(|(w, _)| w).sum();
                assert!((w - 1.0).abs() < 1e-9, "{}: ragged phases", a.name);
            }
        }
    }

    #[test]
    fn scenario_construction_is_deterministic() {
        let machine = MachineConfig::xeon_gold_6130();
        for s in CompareScenario::all() {
            assert_eq!(s.specs(&machine), s.specs(&machine));
        }
    }

    #[test]
    fn the_antagonist_is_a_bandwidth_hog() {
        let a = antagonist_spec(4);
        assert!(a.mlp >= 8.0);
        assert!(a.apki >= 40.0);
        // Dominantly streaming: the bully's footprint dwarfs any cache.
        let streamed: f64 = a
            .phases
            .iter()
            .filter(|(_, p)| matches!(p, AccessPattern::Stream { .. }))
            .map(|(w, _)| w)
            .sum();
        assert!(streamed >= 0.5);
    }

    #[test]
    fn lc_scenarios_track_their_load_curves() {
        let machine = MachineConfig::xeon_gold_6130();
        // Both curves peak in the high reservation tier, so the LC app
        // gets the 8-core grant on the 16-core testbed.
        for s in [CompareScenario::DiurnalLc, CompareScenario::FlashCrowdLc] {
            let lc = &s.specs(&machine)[0];
            assert_eq!(lc.name, "memcached");
            assert_eq!(lc.cores, 8);
        }
    }
}
