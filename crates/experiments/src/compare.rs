//! The head-to-head engine grid: every registered policy engine over
//! every compare scenario (see `copart_workloads::scenarios`), printed
//! as a paper-style table normalized to EQ.
//!
//! `copart compare` runs the same [`Grid::compare`] through the same
//! runner; the two are views of one grid. The CLI renders the raw
//! unfairness, the cell JSONL and the digest-gated artifact; this
//! command renders the EQ-normalized geomean column EXPERIMENTS.md
//! records.

use copart_experiments::Grid;

use crate::common::{default_opts, eq_normalized};

/// Runs and prints the engine × scenario head-to-head.
pub fn compare_engines() {
    let grid = Grid::compare(default_opts());
    let (table, _) = eq_normalized(&grid, &grid.run(), "scenario", false);

    println!("Head-to-head — unfairness normalized to EQ (lower is better)");
    println!("Engines: the five Figure 12 policies plus the Utility and LFOC comparators.");
    println!("Scenarios: two paper anchors, the diurnal/flash-crowd LC curves, the bully.\n");
    table.emit("compare_engines");
}
