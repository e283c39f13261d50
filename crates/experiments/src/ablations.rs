//! Ablations of CoPart's design choices (DESIGN.md §6).
//!
//! Each harness runs CoPart and one degraded variant on the three highly
//! sensitive mixes and reports ground-truth unfairness side by side.

use copart_core::metrics::geomean;
use copart_core::policies::{self, PolicyKind};
use copart_core::CoPartParams;
use copart_experiments::{Column, Grid, Row};
use copart_sim::MachineConfig;
use copart_workloads::MixKind;

use crate::common::{default_opts, f3, Table};

const KINDS: [MixKind; 3] = [MixKind::HighLlc, MixKind::HighBw, MixKind::HighBoth];

/// Runs the three sensitive mixes under each named column and prints
/// their absolute unfairness with a geomean row.
fn run_variants(title: &str, variants: Vec<(&str, Column)>) {
    let machine = MachineConfig::xeon_gold_6130();
    let (names, columns): (Vec<&str>, Vec<Column>) = variants.into_iter().unzip();
    let grid = Grid {
        rows: KINDS.iter().map(|&k| Row::mix(&machine, k, 4)).collect(),
        columns,
        opts: default_opts(),
    };
    let results = grid.run();

    let mut header: Vec<&str> = vec!["mix"];
    header.extend(&names);
    let mut t = Table::new(&header);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    for (row, results) in grid.rows.iter().zip(&results) {
        let mut cells_row = vec![row.name.clone()];
        for (s, r) in series.iter_mut().zip(results) {
            s.push(r.unfairness.max(1e-6));
            cells_row.push(f3(r.unfairness));
        }
        t.row(cells_row);
    }
    let mut cells = vec!["geomean".to_string()];
    for s in &series {
        cells.push(f3(geomean(s)));
    }
    t.row(cells);
    println!("{title}\n(absolute unfairness; lower is better)\n");
    t.print();
    println!();
}

/// CoPart at the paper defaults beside one degraded variant.
fn copart_vs(title: &str, paper: &str, variant: &str, params: CoPartParams) {
    run_variants(
        title,
        vec![
            (paper, Column::CoPart(CoPartParams::default())),
            (variant, Column::CoPart(params)),
        ],
    );
}

/// HR matching (Algorithm 2) vs the greedy single-transfer allocator.
pub fn matching() {
    copart_vs(
        "Ablation — Hospitals/Residents matching vs greedy reallocation",
        "HR matching",
        "greedy",
        CoPartParams {
            use_hr_matching: false,
            ..CoPartParams::default()
        },
    );
}

/// The §5.3 cross-resource FSM rule on vs off.
pub fn fsm_awareness() {
    copart_vs(
        "Ablation — cross-resource FSM awareness",
        "aware (paper)",
        "unaware",
        CoPartParams {
            cross_resource_awareness: false,
            ..CoPartParams::default()
        },
    );
}

/// θ-retry random neighbor restarts on vs off.
pub fn retry() {
    copart_vs(
        "Ablation — θ-retry random restarts",
        "θ = 3 (paper)",
        "θ = 0",
        CoPartParams {
            theta_retries: 0,
            ..CoPartParams::default()
        },
    );
}

/// The next-line prefetcher on vs off: solo anchor shifts and the H-Both
/// fairness comparison.
pub fn prefetch() {
    use copart_workloads::Benchmark;

    println!("Ablation — next-line hardware prefetcher\n");

    let base = MachineConfig::xeon_gold_6130();
    let with_pf = MachineConfig {
        prefetch_next_line: true,
        ..base.clone()
    };

    let benches = [
        Benchmark::WaterNsquared,
        Benchmark::OceanCp,
        Benchmark::Cg,
        Benchmark::Sp,
    ];
    let specs: Vec<_> = benches.iter().map(|b| b.spec()).collect();
    let solo = |machine| policies::solo_full_ips(machine, &specs);
    let mut t = Table::new(&["bench", "IPS (no PF)", "IPS (PF)", "speedup"]);
    for ((b, off), on) in benches.iter().zip(solo(&base)).zip(solo(&with_pf)) {
        t.row(vec![
            b.table2().short.to_string(),
            format!("{off:.3e}"),
            format!("{on:.3e}"),
            format!("{:.3}", on / off),
        ]);
    }
    t.print();

    // Does the controller still win with prefetching enabled?
    let rows = [("prefetch off", &base), ("prefetch on", &with_pf)]
        .into_iter()
        .map(|(label, cfg)| Row {
            name: label.to_string(),
            ..Row::mix(cfg, MixKind::HighBoth, 4)
        })
        .collect();
    let grid = Grid::policies(
        rows,
        &[PolicyKind::Equal, PolicyKind::CoPart],
        default_opts(),
    );
    for (row, results) in grid.rows.iter().zip(grid.run()) {
        let (eq, co) = (&results[0], &results[1]);
        println!(
            "\nH-Both with {}: EQ unfairness {:.4}, CoPart {:.4} ({:.0}% better)",
            row.name,
            eq.unfairness,
            co.unfairness,
            (1.0 - co.unfairness / eq.unfairness.max(1e-9)) * 100.0
        );
    }
    println!(
        "\n(The calibrated models assume the prefetcher's average benefit is folded\n\
         into their timing constants, so the paper anchors are pinned with it off.)"
    );
}

/// Extra comparator: utility-based static LLC partitioning (UCP/dCat
/// style, the paper's closest related work) vs CoPart across the
/// sensitive mixes.
pub fn utility() {
    let columns = [PolicyKind::Equal, PolicyKind::Utility, PolicyKind::CoPart]
        .map(|p| (p.label(), Column::Policy(p)));
    run_variants(
        "Comparator — utility-based LLC partitioning (UCP/dCat-style) vs CoPart",
        columns.to_vec(),
    );
    println!(
        "(Utility maximizes hit *throughput*, not fairness: it happily starves a\n\
         low-utility application — the dCat/UCP weakness CoPart's slowdown-driven\n\
         matching avoids. It also ignores memory bandwidth entirely.)"
    );
}
