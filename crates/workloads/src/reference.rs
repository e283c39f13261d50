//! Checked-in reference measurements: the §5.3 STREAM table and the solo
//! MBA-100 % way curves of the applications the command line, the
//! daemon, the fleet and the figure grids consolidate on the testbed.
//!
//! Both are solo simulations whose result is a pure function of the
//! machine model, the application spec and the allocation, so they are
//! measured once, by [`regenerate`], and stored as exact `f64` bit
//! patterns in `reference/tables.rs`. The unit is one point of an
//! application's way curve: its IPS and LLC miss ratio running alone with
//! `ways` LLC ways at MBA 100 % ([`solo_point`]). Every covered
//! application has its all-ways point — the Eq 1 full-resource IPS — and
//! the applications a Utility cell plans have the whole curve.
//!
//! An entry's key is FNV-1a over the `{:?}` rendering of `(MachineConfig,
//! AppSpec)`, which spells out every field and prints floats in their
//! shortest exact form, plus the way count. A calibration edit therefore
//! changes the key and misses the table — the caller then measures,
//! exactly as for a machine or spec the table never covered — and can
//! never read a stale value. A simulator change keeps the keys and moves
//! the values instead; `tests/reference_pin.rs` re-measures every entry,
//! requires bit-equality, and on a mismatch prints the regenerated file to
//! check in.

use std::fmt::Write as _;

use copart_sim::{AppSpec, MachineConfig, MbaLevel};
use copart_telemetry::fnv1a64;

use crate::casestudy::{kmeans_spec, wordcount_spec};
use crate::measure::{self, MrcPoint};
use crate::stream::stream_spec;
use crate::{CompareScenario, MixKind, WorkloadMix};

#[rustfmt::skip]
mod tables;

/// The table key of a solo measurement of `spec` on `machine`.
fn key(machine: &MachineConfig, spec: &AppSpec) -> u64 {
    fnv1a64(format!("{:?}", (machine, spec)).as_bytes())
}

/// The checked-in STREAM miss rates of `machine` (index 0 = MBA 10 %):
/// [`StreamReference::compute`](crate::stream::StreamReference::compute)`(machine, 4)`,
/// bit for bit.
pub fn stream_misses(machine: &MachineConfig) -> Option<[f64; 10]> {
    let key = key(machine, &stream_spec(4));
    let i = tables::STREAM.binary_search_by_key(&key, |e| e.0).ok()?;
    Some(tables::STREAM[i].1.map(f64::from_bits))
}

/// The checked-in solo point of `spec` on `machine` with `ways` LLC ways
/// at MBA 100 %: the IPS and miss ratio of
/// [`measure::measure`]`(machine, spec, ways, MbaLevel::MAX)`, bit for bit.
pub fn solo_point(machine: &MachineConfig, spec: &AppSpec, ways: u32) -> Option<MrcPoint> {
    let key = (key(machine, spec), ways);
    let i = tables::SOLO
        .binary_search_by_key(&key, |e| (e.0, e.1))
        .ok()?;
    let (_, _, ips, miss_ratio) = tables::SOLO[i];
    Some(MrcPoint {
        ways,
        miss_ratio: f64::from_bits(miss_ratio),
        ips: f64::from_bits(ips),
    })
}

/// Every `(application, ways)` point the tables cover on `machine`. At
/// all ways: each mix kind at one to six applications (`sim-run`,
/// `serve`, the figure grids), each compare scenario (`copart compare`),
/// and the Figure 15 batch jobs. At every way count: the applications a
/// Utility cell plans — the compare scenarios and each mix kind at four
/// applications (`repro compare-utility`).
fn covered_points(machine: &MachineConfig) -> Vec<(AppSpec, u32)> {
    let mixes = |n| {
        MixKind::all()
            .into_iter()
            .flat_map(move |kind| WorkloadMix::build(kind, n, machine.n_cores).specs())
    };
    let scenarios = || {
        CompareScenario::all()
            .into_iter()
            .flat_map(|s| s.specs(machine))
    };
    let case_study = [wordcount_spec(4), kmeans_spec(4)];
    let full = (1..=6)
        .flat_map(mixes)
        .chain(scenarios())
        .chain(case_study)
        .map(|spec| (spec, machine.llc_ways));
    let curves = scenarios()
        .chain(mixes(4))
        .flat_map(|spec| (1..=machine.llc_ways).map(move |ways| (spec.clone(), ways)));
    full.chain(curves).collect()
}

/// Measures every covered entry on the testbed model and renders the
/// tables file (`src/reference/tables.rs`) byte for byte: entries sorted
/// by key (then way count), each value as its `f64` bits. The solo runs
/// fan out on the [`copart_parallel`] pool and come back in input order,
/// so the file is the same at every `--jobs`.
pub fn regenerate() -> String {
    let machine = MachineConfig::xeon_gold_6130();
    let stream = stream_spec(4);
    let mut solo: Vec<(u64, u32, AppSpec)> = covered_points(&machine)
        .into_iter()
        .map(|(spec, ways)| (key(&machine, &spec), ways, spec))
        .collect();
    solo.sort_by_key(|e| (e.0, e.1));
    solo.dedup_by_key(|e| (e.0, e.1));
    let runs: Vec<(&AppSpec, u32, MbaLevel)> = MbaLevel::all()
        .map(|level| (&stream, machine.llc_ways, level))
        .chain(
            solo.iter()
                .map(|(_, ways, spec)| (spec, *ways, MbaLevel::MAX)),
        )
        .collect();
    let mut measured = copart_parallel::par_map_indexed(&runs, 1, |_, &(spec, ways, mba)| {
        measure::measure(&machine, spec, ways, mba)
    })
    .into_iter();

    let mut out = String::from(
        "// Generated by `copart_workloads::reference::regenerate` on\n\
         // `MachineConfig::xeon_gold_6130()`; do not edit by hand.\n\
         // `crates/workloads/tests/reference_pin.rs` re-measures every entry.\n\n",
    );
    out.push_str(
        "/// `(key, bits)`: STREAM (`stream_spec(4)`) LLC misses/s at MBA 10 %..100 %.\n\
         pub(super) const STREAM: &[(u64, [u64; 10])] = &[\n",
    );
    let _ = writeln!(out, "    ({:#018x}, [", key(&machine, &stream));
    for (level, (_, rates)) in MbaLevel::all().zip(measured.by_ref()) {
        let bits = rates.llc_misses_per_sec.to_bits();
        let _ = writeln!(out, "        {bits:#018x}, // {level}");
    }
    out.push_str("    ]),\n];\n\n");
    out.push_str(
        "/// `(key, ways, IPS bits, miss-ratio bits)`: solo runs at MBA 100 %,\n\
         /// sorted by key, then ways.\n\
         pub(super) const SOLO: &[(u64, u32, u64, u64)] = &[\n",
    );
    for ((key, ways, spec), (ips, rates)) in solo.iter().zip(measured) {
        let _ = writeln!(
            out,
            "    ({key:#018x}, {ways:2}, {:#018x}, {:#018x}), // {} x{}",
            ips.to_bits(),
            rates.miss_ratio.to_bits(),
            spec.name,
            spec.cores
        );
    }
    out.push_str("];\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_field_edit_misses_the_table() {
        let machine = MachineConfig::xeon_gold_6130();
        let spec = crate::Benchmark::Swaptions.spec();
        let all = machine.llc_ways;
        assert!(solo_point(&machine, &spec, all).is_some());
        assert!(stream_misses(&machine).is_some());
        let nudged = AppSpec {
            apki: spec.apki.next_up(),
            ..spec.clone()
        };
        assert_eq!(solo_point(&machine, &nudged, all), None);
        let prefetching = MachineConfig {
            prefetch_next_line: true,
            ..machine.clone()
        };
        assert_eq!(solo_point(&prefetching, &spec, all), None);
        assert_eq!(stream_misses(&prefetching), None);
        assert_eq!(stream_misses(&MachineConfig::tiny_test()), None);
        // The way count is part of the key: a curve point is never
        // answered by another allocation's row.
        assert!(solo_point(&machine, &spec, 1).is_some_and(|p| p.ways == 1));
        assert_eq!(solo_point(&machine, &spec, 0), None);
        assert_eq!(solo_point(&machine, &spec, all + 1), None);
    }
}
