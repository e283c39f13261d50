//! Every reference a surface resolves before its first epoch is checked
//! in: the STREAM table of the machine `sim-run`, `serve`, `sim-run
//! --state-dir` and `fleet-run` boot on, and the solo full-resource IPS
//! of every application `sim-run`, `copart compare` and the `repro`
//! figures grade against. So is every curve a Utility cell plans from:
//! the solo point at every way count of each application in `copart
//! compare` and `repro compare-utility`. A mix or scenario added without
//! regenerating `crates/workloads/src/reference/tables.rs` fails here
//! instead of quietly simulating solo runs on every boot (or in every
//! Utility cell) again. Nothing here simulates: every lookup is a table
//! read.

use copart_core::policies::{EvalOptions, PolicyKind};
use copart_experiments::{Grid, Row};
use copart_persist::Scenario;
use copart_sim::{AppSpec, MachineConfig};
use copart_workloads::casestudy::{kmeans_spec, wordcount_spec};
use copart_workloads::{reference, MixKind, WorkloadMix};

fn assert_checked_in(who: &str, machine: &MachineConfig, specs: &[AppSpec]) {
    assert!(
        reference::stream_misses(machine).is_some(),
        "{who}: no checked-in STREAM table for {machine:?}"
    );
    for spec in specs {
        assert!(
            reference::solo_point(machine, spec, machine.llc_ways).is_some(),
            "{who}: no checked-in solo IPS for {} x{}",
            spec.name,
            spec.cores
        );
    }
}

/// Every application of `row` has its whole MBA-100 % way curve checked
/// in, so a Utility cell on it reads its plan instead of simulating it.
fn assert_curves_checked_in(row: &Row) {
    for spec in &row.specs {
        for ways in 1..=row.machine.llc_ways {
            assert!(
                reference::solo_point(&row.machine, spec, ways).is_some(),
                "{}: no checked-in curve point for {} x{} at {ways} ways",
                row.name,
                spec.name,
                spec.cores
            );
        }
    }
}

#[test]
fn every_mix_at_every_app_count_is_checked_in() {
    // `sim-run`, `serve` and `sim-run --state-dir` accept 1-6 apps of
    // any mix.
    let machine = MachineConfig::xeon_gold_6130();
    for kind in MixKind::all() {
        for n in 1..=6 {
            let specs = WorkloadMix::build(kind, n, machine.n_cores).specs();
            assert_checked_in(&format!("{} x{n}", kind.label()), &machine, &specs);
        }
    }
}

#[test]
fn scenario_environments_are_checked_in() {
    for kind in MixKind::all() {
        let scenario = Scenario::new(kind, 4, PolicyKind::CoPart, 1, None).unwrap();
        let env = scenario.env();
        assert_checked_in(kind.label(), &env.machine, &scenario.specs(&env));
    }
}

#[test]
fn grid_rows_are_checked_in() {
    let machine = MachineConfig::xeon_gold_6130();
    // `copart compare` / `repro compare-engines`: the paper mixes, the
    // LC scenarios with `EP-ballast`, and the antagonist with its victims.
    for row in Grid::compare(EvalOptions::default()).rows {
        assert_checked_in(&row.name, &row.machine, &row.specs);
    }
    // `repro fig12` (and figures 4-6, 11, 13, 17 on the same mixes).
    for kind in MixKind::all() {
        let row = Row::mix(&machine, kind, 4);
        assert_checked_in(&row.name, &row.machine, &row.specs);
    }
    // `repro fig15`'s batch jobs.
    assert_checked_in("fig15", &machine, &[wordcount_spec(4), kmeans_spec(4)]);
}

#[test]
fn utility_curves_are_checked_in() {
    // `copart compare`'s Utility column.
    for row in &Grid::compare(EvalOptions::default()).rows {
        assert_curves_checked_in(row);
    }
    // `repro compare-utility` (its three sensitive mixes and the rest).
    let machine = MachineConfig::xeon_gold_6130();
    for kind in MixKind::all() {
        assert_curves_checked_in(&Row::mix(&machine, kind, 4));
    }
}
