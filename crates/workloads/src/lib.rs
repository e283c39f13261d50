//! Calibrated synthetic workload models for the CoPart reproduction.
//!
//! The paper evaluates CoPart with 11 multithreaded benchmarks from
//! PARSEC, SPLASH-2, and NPB (Table 2), the STREAM bandwidth probe, and a
//! dynamic-consolidation case study (memcached + Spark batch jobs). None
//! of those binaries run inside the simulator — instead each benchmark is
//! modelled as a [`copart_sim::AppSpec`]: an access-phase mixture plus
//! execution parameters, calibrated so that the model reproduces
//!
//! * the benchmark's Table 2 counter signature (LLC accesses and misses
//!   per second at full resources, within model tolerance),
//! * its §3.3 sensitivity category (LLC-sensitive / bandwidth-sensitive /
//!   both / insensitive, under the paper's 15 % / 1 % thresholds), and
//! * the §4.1 anchor points: WN, WS, and RT reach 90 % of full performance
//!   with 4, 3, and 2 ways; OC, CG, and FT reach 90 % at MBA levels 30,
//!   20, and 30.
//!
//! The calibration is pinned by tests in this crate, so any change to the
//! simulator that breaks an anchor fails loudly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod casestudy;
pub mod category;
pub mod fleet;
pub mod measure;
pub mod mixes;
pub mod reference;
pub mod scenarios;
pub mod stream;

pub use benchmarks::Benchmark;
pub use category::Category;
pub use mixes::{MixKind, WorkloadMix};
pub use scenarios::{antagonist_spec, CompareScenario};
