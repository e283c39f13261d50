//! Figures 11, 13, 14, 17: sensitivity sweeps and throughput.

use copart_core::metrics::geomean;
use copart_core::policies::{EvalOptions, EvalResult, PolicyKind};
use copart_core::CoPartParams;
use copart_experiments::{Column, Grid, Row};
use copart_sim::MachineConfig;
use copart_workloads::MixKind;

use crate::common::{default_opts, eq_cell, f3, Table};

/// Figure 11: sensitivity of CoPart's fairness to the three key design
/// parameters — δ_P (performance threshold), Β (LLC miss-ratio demand
/// threshold), and Γ (memory-traffic-ratio demand threshold). Each series
/// is normalized to the paper-default setting.
pub fn fig11() {
    let machine = MachineConfig::xeon_gold_6130();
    // The sensitivity study averages across the sensitive 4-app mixes.
    let kinds = [MixKind::HighLlc, MixKind::HighBw, MixKind::HighBoth];
    let opts = EvalOptions {
        total_periods: 80,
        measure_periods: 40,
        ..default_opts()
    };

    type Sweep = (&'static str, [f64; 5], f64, fn(f64) -> CoPartParams);
    let sweeps: [Sweep; 3] = [
        (
            "(a) performance threshold δ_P",
            [0.01, 0.03, 0.05, 0.20, 0.40],
            0.05,
            |v| CoPartParams {
                delta_p: v,
                ..CoPartParams::default()
            },
        ),
        (
            "(b) LLC miss ratio threshold Β",
            [0.01, 0.02, 0.03, 0.06, 0.12],
            0.03,
            |v| CoPartParams {
                miss_ratio_demand: v,
                miss_ratio_supply: (v / 3.0).min(0.01),
                ..CoPartParams::default()
            },
        ),
        (
            "(c) memory traffic ratio threshold Γ",
            [0.05, 0.10, 0.30, 0.60, 0.90],
            0.30,
            |v| CoPartParams {
                traffic_ratio_demand: v,
                traffic_ratio_supply: (v / 3.0).min(0.10),
                ..CoPartParams::default()
            },
        ),
    ];
    // Every (value × mix) cell of the three sweeps is an independent run
    // from an explicit seed: one column per swept value.
    let grid = Grid {
        rows: kinds.iter().map(|&k| Row::mix(&machine, k, 4)).collect(),
        columns: sweeps
            .iter()
            .flat_map(|(_, values, _, make)| values.iter().map(|&v| Column::CoPart(make(v))))
            .collect(),
        opts,
    };
    let results = grid.run();

    println!("Figure 11 — sensitivity to the design parameters");
    println!("(geomean unfairness over the H-LLC, H-BW, H-Both mixes)");
    for (si, (label, values, default_value, _)) in sweeps.iter().enumerate() {
        let unf: Vec<f64> = (0..values.len())
            .map(|vi| {
                let column = si * values.len() + vi;
                let per_mix: Vec<f64> = results
                    .iter()
                    .map(|row| row[column].unfairness.max(1e-6))
                    .collect();
                geomean(&per_mix)
            })
            .collect();
        let default_idx = values
            .iter()
            .position(|&v| (v - default_value).abs() < 1e-12)
            .expect("default value is in the sweep");
        let norm = unf[default_idx].max(1e-9);
        println!("\n{label} (normalized to the paper default {default_value}):");
        let mut t = Table::new(&["value", "unfairness (norm.)"]);
        for (v, u) in values.iter().zip(&unf) {
            t.row(vec![format!("{v}"), f3(u / norm)]);
        }
        t.print();
    }
}

/// Figure 13: unfairness of every policy, swept over application counts
/// 3–6, geomean across the seven mixes, normalized to EQ.
pub fn fig13() {
    println!("Figure 13 — sensitivity to the application count");
    println!("(geomean over the 7 mixes, normalized to EQ; lower is better)");
    println!("Paper: CoPart is 23.3% better than EQ at 3 apps, 70.6% at 6.\n");
    count_sweep(|r| r.unfairness.max(1e-6), true);
}

/// Figure 17: throughput (geomean IPS) of every policy, swept over
/// application counts, normalized to EQ (higher is better).
pub fn fig17() {
    println!("Figure 17 — throughput vs application count");
    println!("(geomean IPS over the 7 mixes, normalized to EQ; higher is better)");
    println!("Paper: CoPart is comparable to or slightly better than the others.\n");
    count_sweep(|r| r.throughput.max(1.0), false);
}

/// One sweep point: its label, machine and application count.
type Point = (String, MachineConfig, usize);

/// Figure 12's five policies over the seven mixes at every point, as
/// one grid, reduced to a `corner`-headed table with one row per point:
/// each policy's geomean over the mixes of `norm(cell, EQ cell)`.
/// Returns the table and the geomeans.
fn sweep(
    corner: &str,
    points: &[Point],
    norm: impl Fn(&EvalResult, &EvalResult) -> f64,
) -> (Table, Vec<Vec<f64>>) {
    let kinds = MixKind::all();
    let rows = (points.iter())
        .flat_map(|(_, machine, n)| kinds.iter().map(move |&k| Row::mix(machine, k, *n)))
        .collect();
    let grid = Grid::policies(rows, PolicyKind::evaluated(), default_opts());
    let gms: Vec<Vec<f64>> = (grid.run().chunks(kinds.len()))
        .map(|per_mix| {
            let series = |i: usize| -> Vec<f64> {
                per_mix
                    .iter()
                    .map(|row| norm(&row[i], eq_cell(row)))
                    .collect()
            };
            (0..grid.columns.len())
                .map(|i| geomean(&series(i)))
                .collect()
        })
        .collect();
    let mut header = vec![corner];
    header.extend(grid.columns.iter().map(|c| c.label()));
    let mut t = Table::new(&header);
    for ((label, ..), gms) in points.iter().zip(&gms) {
        t.row(
            std::iter::once(label.clone())
                .chain(gms.iter().map(|&g| f3(g)))
                .collect(),
        );
    }
    (t, gms)
}

fn count_sweep(metric: impl Fn(&EvalResult) -> f64, print_copart_gain: bool) {
    let points: Vec<Point> = (3..=6usize)
        .map(|n| (n.to_string(), MachineConfig::xeon_gold_6130(), n))
        .collect();
    let (t, gms) = sweep("apps", &points, |r, eq| {
        let eq = metric(eq);
        if eq > 0.0 {
            metric(r) / eq
        } else {
            1.0
        }
    });
    if print_copart_gain {
        for ((n, ..), gms) in points.iter().zip(&gms) {
            println!(
                "  n={n}: CoPart improvement over EQ = {:.1}%",
                (1.0 - gms[4]) * 100.0
            );
        }
    }
    println!();
    t.emit(if print_copart_gain { "fig13" } else { "fig17" });
}

/// Figure 14: unfairness of every policy as the total LLC capacity is
/// swept from 7 to 11 ways, geomean over the seven mixes, normalized to
/// EQ.
pub fn fig14() {
    println!("Figure 14 — sensitivity to the total LLC capacity");
    println!("(4-app mixes; geomean over the 7 mixes, normalized to EQ)\n");
    let points: Vec<Point> = (7..=11u32)
        .map(|llc_ways| {
            let machine = MachineConfig {
                llc_ways,
                ..MachineConfig::xeon_gold_6130()
            };
            (llc_ways.to_string(), machine, 4)
        })
        .collect();
    let (t, _) = sweep("ways", &points, |r, eq| {
        (r.unfairness / eq.unfairness.max(1e-6)).max(1e-6)
    });
    t.emit("fig14");
}
