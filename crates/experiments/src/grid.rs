//! The evaluation grid: named consolidations (rows) × policy engines
//! (columns), every cell one [`policies`] evaluation on a fresh
//! simulated machine from an explicit seed, fanned out on the
//! `copart-parallel` pool. Each cell is graded against the solo
//! full-resource IPS of its applications ([`policies::solo_full_ips`]).
//!
//! The dynamic columns of a row whose runtime configurations
//! [profile alike](copart_core::runtime::RuntimeConfig::profiles_like)
//! (MBA-only, CoPart and LFOC: all at an MBA cap of 100 % under the same
//! parameters) run as one task that profiles the row once and forks the
//! profiled runtime per column ([`policies::evaluate_dynamic`]); every
//! cell is still exactly its standalone [`policies::evaluate`].

use std::fmt::Write as _;

use copart_core::policies::{self, DynamicColumn, EvalOptions, EvalResult, PolicyKind};
use copart_core::runtime::RuntimeConfig;
use copart_core::CoPartParams;
use copart_sim::{AppSpec, MachineConfig};
use copart_telemetry::{MetricsSnapshot, NullRecorder, Recorder};
use copart_workloads::stream::StreamReference;
use copart_workloads::{CompareScenario, MixKind, WorkloadMix};

use crate::Table;

/// What [`Grid::run_traced`] asks for each dynamic-policy cell's trace:
/// `trace(row index, policy)` opens a recorder, or declines with `None`.
type TraceHook<'a> = dyn Fn(usize, PolicyKind) -> Option<Box<dyn Recorder + Send>> + Sync + 'a;

/// One grid row: a named consolidation on a machine.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label: the table's first column and the JSONL `scenario`.
    pub name: String,
    /// The simulated machine every cell of the row runs on.
    pub machine: MachineConfig,
    /// The consolidated applications.
    pub specs: Vec<AppSpec>,
}

impl Row {
    /// The `n_apps`-application mix of `kind` on `machine`, labelled as
    /// in the paper (`H-LLC`).
    pub fn mix(machine: &MachineConfig, kind: MixKind, n_apps: usize) -> Row {
        Row {
            name: kind.label().to_string(),
            machine: machine.clone(),
            specs: WorkloadMix::build(kind, n_apps, machine.n_cores).specs(),
        }
    }
}

/// One grid column: the engine every row is evaluated under.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// A registered policy with its default parameters.
    Policy(PolicyKind),
    /// CoPart under explicit controller parameters (the Figure 11
    /// sweeps and the ablations).
    CoPart(CoPartParams),
}

impl Column {
    /// The column header: the policy's paper label.
    pub fn label(&self) -> &'static str {
        match self {
            Column::Policy(p) => p.label(),
            Column::CoPart(_) => PolicyKind::CoPart.label(),
        }
    }
}

/// A rows × columns evaluation grid.
#[derive(Debug, Clone)]
pub struct Grid {
    /// The consolidations.
    pub rows: Vec<Row>,
    /// The engines.
    pub columns: Vec<Column>,
    /// Run lengths (and the ST seed) shared by every cell.
    pub opts: EvalOptions,
}

impl Grid {
    /// `rows` under each of `policies`.
    pub fn policies(rows: Vec<Row>, policies: &[PolicyKind], opts: EvalOptions) -> Grid {
        Grid {
            rows,
            columns: policies.iter().map(|&p| Column::Policy(p)).collect(),
            opts,
        }
    }

    /// Every registered engine over every compare scenario, rows named
    /// by scenario wire name, on the paper's testbed: the grid behind
    /// `copart compare` and `repro compare-engines`.
    pub fn compare(opts: EvalOptions) -> Grid {
        let machine = MachineConfig::xeon_gold_6130();
        let rows = CompareScenario::all()
            .into_iter()
            .map(|s| Row {
                name: s.name().to_string(),
                machine: machine.clone(),
                specs: s.specs(&machine),
            })
            .collect();
        Grid::policies(rows, PolicyKind::registry(), opts)
    }

    /// What every row's cells are graded against — its machine's STREAM
    /// table and its applications' solo IPS — read from the checked-in
    /// references, or measured on first use and memoized for the process
    /// (one solo fan-out per run of rows on the same machine model).
    /// [`Grid::run`] calls this itself; callers that report the set-up
    /// phase separately call it first.
    pub fn references(&self) -> Vec<(StreamReference, Vec<f64>)> {
        self.rows
            .chunk_by(|a, b| a.machine == b.machine)
            .flat_map(|rows| {
                let machine = &rows[0].machine;
                let specs: Vec<AppSpec> = rows.iter().flat_map(|r| r.specs.clone()).collect();
                let mut solo = policies::solo_full_ips(machine, &specs).into_iter();
                let stream = StreamReference::for_machine(machine);
                rows.iter()
                    .map(|r| (stream.clone(), solo.by_ref().take(r.specs.len()).collect()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Evaluates every cell; `results[row][column]`.
    pub fn run(&self) -> Vec<Vec<EvalResult>> {
        self.run_traced(&|_, _| None)
    }

    /// [`Grid::run`], recording a decision trace for each dynamic-policy
    /// cell `trace(row index, policy)` opens a recorder for. Each cell
    /// writes its own recorder, so concurrent cells never interleave
    /// within one trace.
    pub fn run_traced(&self, trace: &TraceHook<'_>) -> Vec<Vec<EvalResult>> {
        (self.run_cells(trace).into_iter())
            .map(|row| row.into_iter().map(|(result, _)| result).collect())
            .collect()
    }

    /// [`Grid::run_traced`], keeping each cell's runtime metrics beside
    /// its result (empty for a fixed state).
    fn run_cells(&self, trace: &TraceHook<'_>) -> Vec<Vec<(EvalResult, MetricsSnapshot)>> {
        let refs = self.references();
        let tasks = self.tasks(&refs);
        let evaluated = copart_parallel::par_map_indexed(&tasks, 1, |_, (r, columns)| {
            let (row, (stream, full)) = (&self.rows[*r], &refs[*r]);
            let engines: Vec<DynamicColumn> = (columns.iter())
                .map(|&c| {
                    let (policy, params) = self.engine(c);
                    let traced = matches!(self.columns[c], Column::Policy(p) if p.is_dynamic());
                    let recorder = traced.then(|| trace(*r, policy)).flatten();
                    (
                        policy,
                        params,
                        recorder.unwrap_or_else(|| Box::new(NullRecorder)),
                    )
                })
                .collect();
            let evaluated = if engines[0].0.is_dynamic() {
                policies::evaluate_dynamic(
                    &row.machine,
                    &row.specs,
                    full,
                    stream,
                    engines,
                    &self.opts,
                )
            } else {
                // A fixed-state cell is a task of its own.
                (engines.into_iter())
                    .map(|(policy, params, recorder)| {
                        policies::evaluate(
                            &row.machine,
                            &row.specs,
                            full,
                            stream,
                            policy,
                            &params,
                            &self.opts,
                            recorder,
                        )
                    })
                    .collect()
            };
            (evaluated.into_iter())
                .map(|(result, mut recorder, metrics)| {
                    if let Err(e) = recorder.flush() {
                        eprintln!(
                            "warning: flushing the {} trace of {}: {e}",
                            result.policy.label(),
                            row.name
                        );
                    }
                    (result, metrics)
                })
                .collect::<Vec<_>>()
        });
        let mut results: Vec<Vec<Option<_>>> = self
            .rows
            .iter()
            .map(|_| vec![None; self.columns.len()])
            .collect();
        for ((r, columns), evaluated) in tasks.iter().zip(evaluated) {
            for (&c, result) in columns.iter().zip(evaluated) {
                results[*r][c] = Some(result);
            }
        }
        (results.into_iter())
            .map(|row| {
                row.into_iter()
                    .map(|r| r.expect("every cell ran"))
                    .collect()
            })
            .collect()
    }

    /// Column `c`'s policy and controller parameters.
    fn engine(&self, c: usize) -> (PolicyKind, CoPartParams) {
        match &self.columns[c] {
            &Column::Policy(p) => {
                let params = CoPartParams {
                    seed: self.opts.seed,
                    ..CoPartParams::default()
                };
                (p, params)
            }
            Column::CoPart(params) => (PolicyKind::CoPart, params.clone()),
        }
    }

    /// The grid's tasks, row-major, each `(row, columns)`: a fixed-state
    /// cell alone, or every dynamic column of the row whose runtime
    /// configuration profiles like the first's, placed at that first
    /// column.
    fn tasks(&self, refs: &[(StreamReference, Vec<f64>)]) -> Vec<(usize, Vec<usize>)> {
        let mut tasks = Vec::new();
        for (r, (row, (stream, _))) in self.rows.iter().zip(refs).enumerate() {
            let mut profiles: Vec<(RuntimeConfig, usize)> = Vec::new();
            for c in 0..self.columns.len() {
                let (policy, params) = self.engine(c);
                if !policy.is_dynamic() {
                    tasks.push((r, vec![c]));
                    continue;
                }
                let cfg = policies::dynamic_runtime_config(
                    &row.machine,
                    row.specs.len(),
                    stream,
                    policy,
                    &params,
                );
                match profiles.iter().find(|(p, _)| p.profiles_like(&cfg)) {
                    Some(&(_, task)) => tasks[task].1.push(c),
                    None => {
                        profiles.push((cfg, tasks.len()));
                        tasks.push((r, vec![c]));
                    }
                }
            }
        }
        tasks
    }

    /// The results as a table: a `corner`-headed row-name column, then
    /// one `cell(result)` per column under its label.
    pub fn table(
        &self,
        results: &[Vec<EvalResult>],
        corner: &str,
        cell: impl Fn(&EvalResult) -> String,
    ) -> Table {
        let mut header = vec![corner];
        header.extend(self.columns.iter().map(|c| c.label()));
        let mut table = Table::new(&header);
        for (row, results) in self.rows.iter().zip(results) {
            let mut cells = vec![row.name.clone()];
            cells.extend(results.iter().map(&cell));
            table.row(cells);
        }
        table
    }

    /// One JSONL line per cell, row-major. Floats are formatted with
    /// `{:?}` (shortest exact round trip), so identical results render
    /// identical bytes.
    pub fn render_jsonl(&self, results: &[Vec<EvalResult>]) -> String {
        let mut out = String::new();
        for (row, results) in self.rows.iter().zip(results) {
            for (column, r) in self.columns.iter().zip(results) {
                let _ = write!(
                    out,
                    "{{\"engine\":\"{}\",\"scenario\":\"{}\",\"unfairness\":{:?},\"throughput\":{:?},\"slowdowns\":[",
                    column.label(),
                    row.name,
                    r.unfairness,
                    r.throughput,
                );
                for (i, (spec, sd)) in row.specs.iter().zip(&r.slowdowns).enumerate() {
                    let comma = if i > 0 { "," } else { "" };
                    let _ = write!(
                        out,
                        "{comma}{{\"app\":\"{}\",\"slowdown\":{sd:?}}}",
                        spec.name
                    );
                }
                out.push_str("]}\n");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_telemetry::SharedRecorder;
    use std::sync::Mutex;

    fn lines(shared: &SharedRecorder) -> Vec<String> {
        shared.events().iter().map(|e| e.to_json_line()).collect()
    }

    /// Profiling a row once and forking it per column changes nothing:
    /// every cell of a traced compare grid at `REPRO_FAST` length —
    /// result, trace (the replayed profiling events included) and
    /// metrics — is that cell's standalone evaluation.
    #[test]
    fn every_grid_cell_is_its_standalone_evaluation() {
        let opts = EvalOptions {
            total_periods: 40,
            measure_periods: 20,
            static_candidates: 8,
            static_probe_periods: 6,
            ..EvalOptions::default()
        };
        let grid = Grid::compare(opts);
        let traces: Mutex<Vec<((usize, PolicyKind), SharedRecorder)>> = Mutex::new(Vec::new());
        let cells = grid.run_cells(&|row, policy| {
            let shared = SharedRecorder::default();
            traces.lock().unwrap().push(((row, policy), shared.clone()));
            Some(Box::new(shared))
        });
        let traces = traces.into_inner().unwrap();
        let refs = grid.references();
        let mut traced = 0;
        for (r, (row, (stream, full))) in grid.rows.iter().zip(&refs).enumerate() {
            for (c, (result, metrics)) in cells[r].iter().enumerate() {
                let (policy, params) = grid.engine(c);
                let alone = SharedRecorder::default();
                let (expected, _, expected_metrics) = policies::evaluate(
                    &row.machine,
                    &row.specs,
                    full,
                    stream,
                    policy,
                    &params,
                    &grid.opts,
                    Box::new(alone.clone()),
                );
                let cell = format!("{} under {}", row.name, policy.label());
                assert_eq!(*result, expected, "{cell}: result");
                assert_eq!(
                    metrics.simulated(),
                    expected_metrics.simulated(),
                    "{cell}: metrics"
                );
                let trace = traces.iter().find(|(key, _)| *key == (r, policy));
                if let Some((_, shared)) = trace {
                    // One profiling event per app, then one per period.
                    let events = row.specs.len() as u64 + u64::from(grid.opts.total_periods);
                    let gapless: Vec<u64> = (0..events).collect();
                    let epochs: Vec<u64> = shared.events().iter().map(|e| e.epoch).collect();
                    assert_eq!(epochs, gapless, "{cell}: trace epochs");
                    assert_eq!(lines(shared), lines(&alone), "{cell}: trace");
                    traced += 1;
                }
            }
        }
        assert_eq!(traced, 4 * grid.rows.len(), "every dynamic cell traced");
    }

    #[test]
    fn references_follow_each_rows_machine() {
        let testbed = MachineConfig::xeon_gold_6130();
        let tiny = MachineConfig::tiny_test();
        let spec = copart_workloads::Benchmark::Swaptions.spec_with_cores(1);
        let row = |machine: &MachineConfig| Row {
            name: "solo".into(),
            machine: machine.clone(),
            specs: vec![spec.clone()],
        };
        let grid = Grid::policies(
            vec![row(&testbed), row(&tiny), row(&testbed)],
            &[PolicyKind::Equal],
            EvalOptions::default(),
        );
        let refs = grid.references();
        for (r, (stream, full)) in grid.rows.iter().zip(&refs) {
            assert_eq!(*stream, StreamReference::for_machine(&r.machine));
            assert_eq!(*full, policies::solo_full_ips(&r.machine, &r.specs));
        }
        assert_ne!(refs[0].1, refs[1].1, "the machine model matters");
    }

    #[test]
    fn jsonl_rendering_is_exact() {
        let grid = Grid::policies(
            vec![Row {
                name: "bully".into(),
                machine: MachineConfig::xeon_gold_6130(),
                specs: vec![
                    copart_workloads::antagonist_spec(4),
                    copart_workloads::Benchmark::Swaptions.spec(),
                ],
            }],
            &[PolicyKind::LfocCluster],
            EvalOptions::default(),
        );
        let results = vec![vec![EvalResult {
            policy: PolicyKind::LfocCluster,
            unfairness: 0.1 + 0.2, // 0.30000000000000004 must survive
            throughput: 1.5e9,
            slowdowns: vec![1.25, 2.0],
            timeline: Vec::new(),
        }]];
        let jsonl = grid.render_jsonl(&results);
        assert_eq!(
            jsonl,
            "{\"engine\":\"LFOC\",\"scenario\":\"bully\",\"unfairness\":0.30000000000000004,\
             \"throughput\":1500000000.0,\"slowdowns\":[{\"app\":\"antagonist\",\"slowdown\":1.25},\
             {\"app\":\"swaptions\",\"slowdown\":2.0}]}\n"
        );
    }
}
