//! Shared infrastructure for the experiment harness: cached measurement
//! context and plain-text table rendering.

use std::collections::HashMap;
use std::path::PathBuf;

use copart_core::policies::{self, EvalOptions, EvalResult, PolicyKind};
use copart_sim::{AppSpec, MachineConfig};
use copart_telemetry::{JsonlRecorder, NullRecorder, Recorder};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

/// Cached per-session measurement context: machine configuration, STREAM
/// reference, and memoized solo full-resource IPS per spec (keyed by name
/// and core count).
pub struct Context {
    /// The simulated testbed.
    pub machine: MachineConfig,
    /// STREAM miss-rate reference table.
    pub stream: StreamReference,
    solo_cache: HashMap<(String, u32), f64>,
}

impl Context {
    /// Builds the context on the paper's testbed configuration.
    pub fn new() -> Context {
        let machine = MachineConfig::xeon_gold_6130();
        let stream = StreamReference::for_machine(&machine);
        Context {
            machine,
            stream,
            solo_cache: HashMap::new(),
        }
    }

    /// Builds the context for a machine with a different total LLC way
    /// count (the Figure 14 sweep).
    pub fn with_ways(ways: u32) -> Context {
        let mut machine = MachineConfig::xeon_gold_6130();
        machine.llc_ways = ways;
        let stream = StreamReference::for_machine(&machine);
        Context {
            machine,
            stream,
            solo_cache: HashMap::new(),
        }
    }

    /// Solo full-resource IPS for each spec (memoized).
    pub fn solo_full(&mut self, specs: &[AppSpec]) -> Vec<f64> {
        self.prewarm(specs);
        self.solo_full_shared(specs)
    }

    /// Fills the solo-IPS cache for `specs`, measuring the misses on the
    /// parallel pool (each spec solo run is independent). Parallel cell
    /// fan-out calls this first so the shared-`&self` lookups below hit.
    pub fn prewarm(&mut self, specs: &[AppSpec]) {
        let missing: Vec<AppSpec> = {
            let mut seen = std::collections::HashSet::new();
            specs
                .iter()
                .filter(|s| {
                    !self.solo_cache.contains_key(&(s.name.clone(), s.cores))
                        && seen.insert((s.name.clone(), s.cores))
                })
                .cloned()
                .collect()
        };
        let machine = &self.machine;
        let measured = copart_parallel::par_map_indexed(&missing, 1, |_, s| {
            copart_workloads::measure::measure_full(machine, s).0
        });
        for (s, v) in missing.into_iter().zip(measured) {
            self.solo_cache.insert((s.name, s.cores), v);
        }
    }

    /// Cache-only variant of [`Context::solo_full`] for use from worker
    /// threads: a miss is measured on the spot but *not* memoized (the
    /// cache is not shared mutable state across the pool).
    pub fn solo_full_shared(&self, specs: &[AppSpec]) -> Vec<f64> {
        specs
            .iter()
            .map(|s| {
                self.solo_cache
                    .get(&(s.name.clone(), s.cores))
                    .copied()
                    .unwrap_or_else(|| copart_workloads::measure::measure_full(&self.machine, s).0)
            })
            .collect()
    }

    /// Runs one `(mix, policy)` evaluation cell through `&self`, for
    /// cells fanned out on the parallel pool. Callers
    /// [`Context::prewarm`] the mix's specs first so the solo lookups
    /// are cache hits.
    pub fn run_policy_shared(
        &self,
        mix: &WorkloadMix,
        policy: PolicyKind,
        opts: &EvalOptions,
    ) -> EvalResult {
        let specs = mix.specs();
        let full = self.solo_full_shared(&specs);
        policies::evaluate_policy(&self.machine, &specs, &full, &self.stream, policy, opts)
    }

    /// Like [`Context::run_policy_shared`], but records a per-epoch
    /// JSONL decision trace as `<trace_dir()>/<trace_name>.jsonl`. Only
    /// valid for the dynamic policies (CAT-only, MBA-only, CoPart); the
    /// static ones run no controller and emit no epochs. Each cell
    /// writes its own trace file, so concurrent cells never interleave
    /// within one JSONL.
    pub fn run_policy_traced_shared(
        &self,
        mix: &WorkloadMix,
        policy: PolicyKind,
        opts: &EvalOptions,
        trace_name: &str,
    ) -> EvalResult {
        let specs = mix.specs();
        let full = self.solo_full_shared(&specs);
        let recorder = trace_sink(trace_name);
        let (result, mut recorder, _metrics) = policies::evaluate_policy_traced(
            &self.machine,
            &specs,
            &full,
            &self.stream,
            policy,
            opts,
            recorder,
        );
        if let Err(e) = recorder.flush() {
            eprintln!("warning: flushing trace {trace_name}: {e}");
        }
        result
    }

    /// The full `(mix × policy)` evaluation grid, fanned out cell-by-cell
    /// on the parallel pool: one row per entry of `kinds`, each row the
    /// five evaluated policies in plot order. Every cell runs on a fresh
    /// simulated machine from an explicit seed, so the grid is identical
    /// at every `--jobs` setting; with `trace_prefix`, each CoPart cell
    /// writes its own `<prefix>_<mix>.jsonl` decision trace.
    pub fn policy_grid(
        &mut self,
        kinds: &[MixKind],
        n_apps: usize,
        opts: &EvalOptions,
        trace_prefix: Option<&str>,
    ) -> Vec<Vec<(PolicyKind, EvalResult)>> {
        let mixes: Vec<WorkloadMix> = kinds
            .iter()
            .map(|&k| WorkloadMix::build(k, n_apps, self.machine.n_cores))
            .collect();
        for mix in &mixes {
            self.prewarm(&mix.specs());
        }
        let cells: Vec<(usize, PolicyKind)> = (0..mixes.len())
            .flat_map(|mi| PolicyKind::evaluated().iter().map(move |&p| (mi, p)))
            .collect();
        let ctx = &*self;
        let results = copart_parallel::par_map_indexed(&cells, 1, |_, &(mi, p)| {
            let mix = &mixes[mi];
            match trace_prefix {
                Some(prefix) if p == PolicyKind::CoPart => {
                    let name = format!("{prefix}_{}", kinds[mi].label().to_lowercase());
                    ctx.run_policy_traced_shared(mix, p, opts, &name)
                }
                _ => ctx.run_policy_shared(mix, p, opts),
            }
        });
        let mut rows: Vec<Vec<(PolicyKind, EvalResult)>> =
            kinds.iter().map(|_| Vec::new()).collect();
        for (&(mi, p), r) in cells.iter().zip(results) {
            rows[mi].push((p, r));
        }
        rows
    }
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

impl Default for Context {
    fn default() -> Self {
        Context::new()
    }
}

/// Whether `REPRO_FAST` asks for shrunk runs (any value but empty/`0`):
/// the CI smoke mode, trading statistical weight for minutes.
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

/// Renders an aligned plain-text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Prints the table and, when `REPRO_CSV_DIR` is set, also writes it
    /// as `<dir>/<name>.csv` for plotting.
    pub fn emit(&self, name: &str) {
        self.print();
        let Ok(dir) = std::env::var("REPRO_CSV_DIR") else {
            return;
        };
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
            let mut out = String::new();
            let csv_row = |cells: &[String]| {
                cells
                    .iter()
                    .map(|c| {
                        if c.contains(',') || c.contains('"') {
                            format!("\"{}\"", c.replace('"', "\"\""))
                        } else {
                            c.clone()
                        }
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            out.push_str(&csv_row(&self.header));
            out.push('\n');
            for row in &self.rows {
                out.push_str(&csv_row(row));
                out.push('\n');
            }
            std::fs::write(&path, out)
        }) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            eprintln!("(csv written to {})", path.display());
        }
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        let ncol = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                s.push_str(&format!("{:<w$}", cells[i], w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.header);
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("--")
        );
        for row in &self.rows {
            line(row);
        }
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
    fn table_renders_aligned_columns() {
        let mut t = Table::new(&["a", "long-header"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        // Printing must not panic; width bookkeeping is internal.
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(sci(12345.0), "1.23e4");
    }

    #[test]
    fn emit_writes_csv_when_directed() {
        let dir = std::env::temp_dir().join(format!("copart-csv-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // SAFETY-free: tests in this binary run single-threaded with
        // respect to this env var (no other test touches it).
        std::env::set_var("REPRO_CSV_DIR", &dir);
        let mut t = Table::new(&["mix", "value"]);
        t.row(vec!["H-LLC".into(), "0.123".into()]);
        t.row(vec!["with,comma".into(), "0.5".into()]);
        t.emit("unit_test_table");
        std::env::remove_var("REPRO_CSV_DIR");
        let text = std::fs::read_to_string(dir.join("unit_test_table.csv")).unwrap();
        assert_eq!(text, "mix,value\nH-LLC,0.123\n\"with,comma\",0.5\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_sink_writes_jsonl_under_trace_dir() {
        use copart_telemetry::{TraceDecision, TraceEvent, TracePhase};
        let dir = std::env::temp_dir().join(format!("copart-traces-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Only this test touches REPRO_TRACE_DIR (cf. the CSV test above).
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

    #[test]
    fn context_memoizes_solo_measurements() {
        let mut ctx = Context::new();
        let specs = vec![copart_workloads::Benchmark::Swaptions.spec()];
        let first = ctx.solo_full(&specs);
        let second = ctx.solo_full(&specs);
        assert_eq!(first, second);
        assert!(first[0] > 0.0);
    }
}
