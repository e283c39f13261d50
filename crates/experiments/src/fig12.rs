//! Figure 12: unfairness of every policy on the seven 4-application
//! workload mixes, normalized to EQ, plus the geometric mean.
//!
//! Paper headline: CoPart achieves 57.3 %, 28.6 %, and 56.4 % lower
//! unfairness than EQ, CAT-only, and MBA-only on average, and is
//! comparable to ST.

use copart_core::policies::PolicyKind;
use copart_experiments::{Grid, Row};
use copart_sim::MachineConfig;
use copart_workloads::MixKind;

use crate::common::{default_opts, eq_normalized, trace_sink};

/// Runs and prints Figure 12.
pub fn fig12() {
    let kinds = MixKind::all();
    let machine = MachineConfig::xeon_gold_6130();

    // All 7 mixes × 5 policies fan out as one grid on the parallel
    // pool (--jobs / COPART_JOBS); the CoPart cells drop their
    // per-epoch decision traces as results/fig12_<mix>.jsonl (see
    // common::trace_dir).
    let rows = kinds.iter().map(|&k| Row::mix(&machine, k, 4)).collect();
    let grid = Grid::policies(rows, PolicyKind::evaluated(), default_opts());
    let results = grid.run_traced(&|row, p| {
        (p == PolicyKind::CoPart).then(|| trace_sink(&format!("fig12_{}", kinds[row].wire_name())))
    });
    let (table, copart_gm) = eq_normalized(&grid, &results, "mix", true);

    println!("Figure 12 — unfairness normalized to EQ (lower is better)");
    println!("Paper: CoPart geomean ≈ 0.427 vs EQ (57.3% improvement),");
    println!("       ≈ 0.714 vs CAT-only (28.6%), ≈ 0.436 vs MBA-only (56.4%).\n");
    table.emit("fig12");
    println!(
        "\nCoPart improvement over EQ: {:.1}%",
        (1.0 - copart_gm) * 100.0
    );
}
