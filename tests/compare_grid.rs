//! The head-to-head fairness grid `copart compare --seconds 6 --seed 42`
//! runs — every registered engine × every compare scenario, 30 periods
//! per cell, the second half measured — pinned whole: the FNV-1a digest
//! of its per-cell JSONL (the bytes `--out` writes). Any change to a
//! cell's unfairness, throughput or slowdowns moves it.

use copart_core::policies::EvalOptions;
use copart_experiments::Grid;
use copart_telemetry::fnv1a64;

#[test]
fn six_second_compare_grid_is_pinned() {
    copart_parallel::set_jobs(Some(2));
    let grid = Grid::compare(EvalOptions {
        total_periods: 30,
        measure_periods: 15,
        seed: 42,
        ..EvalOptions::default()
    });
    let jsonl = grid.render_jsonl(&grid.run());
    assert_eq!(jsonl.lines().count(), 35, "7 engines x 5 scenarios");
    assert_eq!(
        format!("{:#018x}", fnv1a64(jsonl.as_bytes())),
        "0x3989851c8e0773ef",
        "grid_digest"
    );
}
