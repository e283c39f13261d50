//! The CoPart evaluation grid, shared by the `repro` figure harness and
//! `copart compare`: one runner ([`Grid`]) that fans `(consolidation ×
//! engine)` cells out on the parallel pool after reading every row's
//! references ([`Grid::references`]), the cell JSONL
//! ([`Grid::render_jsonl`]), and the aligned [`Table`] every view
//! prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod table;

pub use grid::{Column, Grid, Row};
pub use table::Table;
