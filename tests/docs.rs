//! Documentation checks, with no shell: what OPERATIONS.md tells an
//! operator matches what the code emits, and DESIGN.md does not grow.

use copart_telemetry::{SeriesKind, SERIES};
use std::collections::BTreeSet;

const OPERATIONS: &str = include_str!("../OPERATIONS.md");
const DESIGN: &str = include_str!("../DESIGN.md");

/// DESIGN.md's size ceiling, in bytes: prose a change adds must replace
/// prose, until the by-layer rewrite lowers it.
const DESIGN_MAX_BYTES: usize = 99_541;

/// The `(series, kind)` rows of the tables under OPERATIONS.md's
/// `/metrics` exposition heading: every row whose first cell is a
/// backticked `copart_*` name.
fn documented_series() -> BTreeSet<(String, String)> {
    let section = OPERATIONS
        .split("\n## The `/metrics` exposition\n")
        .nth(1)
        .expect("OPERATIONS.md has a /metrics exposition section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let kind = cells.next()?;
            name.starts_with("copart_")
                .then(|| (name.to_string(), kind.to_string()))
        })
        .collect()
}

/// The exposed name and kind of every series in the table: counters
/// carry Prometheus's `_total` suffix, gauges and histograms do not.
fn table_series() -> BTreeSet<(String, String)> {
    SERIES
        .iter()
        .map(|&(name, kind, _)| match kind {
            SeriesKind::Counter => (format!("copart_{name}_total"), "counter".to_string()),
            SeriesKind::Gauge => (format!("copart_{name}"), "gauge".to_string()),
            SeriesKind::Histogram => (format!("copart_{name}"), "histogram".to_string()),
        })
        .collect()
}

#[test]
fn operations_documents_exactly_the_series_table() {
    let documented = documented_series();
    for (name, kind) in &documented {
        assert_eq!(
            name.ends_with("_total"),
            kind == "counter",
            "{name} is documented as a {kind}: counters, and only they, end in _total"
        );
    }
    let table = table_series();
    let undocumented: Vec<_> = table.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&table).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "OPERATIONS.md lacks {undocumented:?} and documents {unknown:?}, which the series table does not list"
    );
}

#[test]
fn design_stays_under_its_byte_ceiling() {
    assert!(
        DESIGN.len() <= DESIGN_MAX_BYTES,
        "DESIGN.md is {} bytes, over its {DESIGN_MAX_BYTES}-byte ceiling: replace prose rather than add it",
        DESIGN.len()
    );
}
