//! `copart compare` — the head-to-head fairness harness.
//!
//! Runs **every registered policy engine** (`PolicyKind::registry()`)
//! over **every compare scenario** (`CompareScenario::all()`) — the
//! library's [`Grid::compare`], the grid `repro compare-engines` also
//! runs — and reports per-(engine, scenario) unfairness and slowdowns:
//! an aligned table on stdout (rows = scenarios, columns = engines) and,
//! with `--out`, one JSONL line per cell.
//!
//! Every cell runs on a fresh simulated machine from an explicit seed
//! and the grid fans out on the `copart-parallel` pool, so the output —
//! table and JSONL — is byte-identical at any `--jobs` setting.
//! `crates/cli/tests/compare_short.rs` holds the harness to that at
//! `--jobs 1` and `--jobs 8`.

use copart_core::policies::EvalOptions;
use copart_experiments::Grid;

use crate::args::{seconds_to_periods, Options};

/// `copart compare`: the full engine × scenario fairness grid.
pub fn compare(opts: &Options) -> Result<(), String> {
    opts.apply_jobs()?;
    let total_periods = seconds_to_periods(opts.number("seconds", 30.0f64)?)?.max(2);
    let seed: u64 = opts.number("seed", copart_core::CoPartParams::default().seed)?;
    let grid = Grid::compare(EvalOptions {
        total_periods,
        measure_periods: (total_periods / 2).max(1),
        seed,
        ..EvalOptions::default()
    });
    let (engines, scenarios) = (grid.columns.len(), grid.rows.len());

    // The grading references (STREAM table, solo full IPS) are resolved —
    // checked in, or measured — before the grid fans out, so the progress
    // line marks the end of set-up. Utility's way curves are read inside
    // its own cells, like ST's search.
    grid.references();
    eprintln!(
        "running the {engines}-engine x {scenarios}-scenario grid ({} cells)...",
        engines * scenarios
    );
    let results = grid.run();

    outln!("unfairness (sigma/mu of slowdowns; lower is better):\n");
    grid.table(&results, "scenario", |r| format!("{:.4}", r.unfairness))
        .print();

    if let Some(path) = opts.get("out") {
        std::fs::write(path, grid.render_jsonl(&results))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("per-cell JSONL written to {path}");
    }
    Ok(())
}
