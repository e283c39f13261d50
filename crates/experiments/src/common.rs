//! Shared helpers of the figure harness: run lengths, trace sinks, the
//! EQ-normalized view of a policy grid and number formatting. The grid
//! runner and [`Table`] live in the library.

use std::path::PathBuf;

use copart_core::metrics::geomean;
use copart_core::policies::{EvalOptions, EvalResult, PolicyKind};
use copart_experiments::{Column, Grid};
use copart_telemetry::{JsonlRecorder, NullRecorder, Recorder};

pub use copart_experiments::Table;

/// The EQ cell of a result row.
pub fn eq_cell(results: &[EvalResult]) -> &EvalResult {
    results
        .iter()
        .find(|r| r.policy == PolicyKind::Equal)
        .expect("EQ is a column")
}

/// The paper's Figure 12 view of a policy grid: every cell's unfairness
/// over its row's EQ cell (1.0 where EQ is ~0, as on the IS mix), after
/// a `corner`-headed name column and the absolute EQ column, then a
/// geomean row. `copart_ratio` repeats CoPart's column last as
/// `CoPart/EQ`. Returns the table and CoPart's geomean.
pub fn eq_normalized(
    grid: &Grid,
    results: &[Vec<EvalResult>],
    corner: &str,
    copart_ratio: bool,
) -> (Table, f64) {
    let mut header = vec![corner, "EQ(abs)"];
    header.extend(grid.columns.iter().map(|c| c.label()));
    if copart_ratio {
        header.push("CoPart/EQ");
    }
    let mut table = Table::new(&header);
    let copart = (grid.columns.iter()).position(|c| *c == Column::Policy(PolicyKind::CoPart));
    let copart_of = |values: &[f64]| copart.map_or(f64::NAN, |i| values[i]);
    let cells = |head: [String; 2], values: &[f64]| {
        let ratio = copart_ratio.then(|| copart_of(values));
        let values = values.iter().chain(&ratio).map(|&v| f3(v));
        head.into_iter().chain(values).collect()
    };
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); grid.columns.len()];
    for (row, results) in grid.rows.iter().zip(results) {
        let eq = eq_cell(results).unfairness;
        let norms: Vec<f64> = (results.iter())
            .map(|r| if eq > 1e-9 { r.unfairness / eq } else { 1.0 })
            .collect();
        for (s, n) in series.iter_mut().zip(&norms) {
            s.push(n.max(1e-6));
        }
        table.row(cells([row.name.clone(), f3(eq)], &norms));
    }
    let gms: Vec<f64> = series.iter().map(|s| geomean(s)).collect();
    table.row(cells(["geomean".into(), "-".into()], &gms));
    (table, copart_of(&gms))
}

/// Directory experiment runs drop JSONL decision traces into:
/// `$REPRO_TRACE_DIR` when set, `results/` (relative to the working
/// directory) otherwise.
pub fn trace_dir() -> PathBuf {
    std::env::var("REPRO_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Opens a JSONL trace sink named `<name>.jsonl` under [`trace_dir`].
/// Falls back to a no-op recorder (with a warning) when the file cannot
/// be created, so figure runs never fail on trace I/O.
pub fn trace_sink(name: &str) -> Box<dyn Recorder + Send> {
    let dir = trace_dir();
    let path = dir.join(format!("{name}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| JsonlRecorder::create(&path)) {
        Ok(r) => {
            eprintln!("(trace -> {})", path.display());
            Box::new(r)
        }
        Err(e) => {
            eprintln!("warning: cannot create {}: {e}", path.display());
            Box::new(NullRecorder)
        }
    }
}

/// Whether `REPRO_FAST` asks for shrunk runs (any value but empty/`0`):
/// the smoke mode the byte-pin tests run in, trading statistical weight
/// for minutes.
pub fn fast_mode() -> bool {
    std::env::var("REPRO_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Default evaluation lengths used by the figure harnesses (~30 s of
/// virtual time per run at the 200 ms period). Under [`fast_mode`]
/// every run is shrunk to smoke-test length — trends survive, absolute
/// numbers lose precision.
pub fn default_opts() -> EvalOptions {
    if fast_mode() {
        EvalOptions {
            total_periods: 40,
            measure_periods: 20,
            static_candidates: 8,
            static_probe_periods: 6,
            ..EvalOptions::default()
        }
    } else {
        EvalOptions::default()
    }
}

/// Formats a ratio to three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a rate in scientific notation.
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(sci(12345.0), "1.23e4");
    }

    #[test]
    fn trace_sink_writes_jsonl_under_trace_dir() {
        use copart_telemetry::{TraceDecision, TraceEvent, TracePhase};
        let dir = std::env::temp_dir().join(format!("copart-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Only this test touches REPRO_TRACE_DIR.
        std::env::set_var("REPRO_TRACE_DIR", &dir);
        let mut sink = trace_sink("unit_test_trace");
        sink.record(&TraceEvent {
            epoch: 0,
            time_ns: 42,
            phase: TracePhase::Profiling,
            decision: TraceDecision::Profiled,
            retry_count: 0,
            matching_rounds: 0,
            unfairness: 0.0,
            apps: Vec::new(),
            proposed: Vec::new(),
            applied: Vec::new(),
            fault: None,
        });
        sink.flush().unwrap();
        std::env::remove_var("REPRO_TRACE_DIR");
        let events = copart_telemetry::read_trace_file(dir.join("unit_test_trace.jsonl")).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time_ns, 42);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
