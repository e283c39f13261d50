//! `copart compare` — the head-to-head fairness harness.
//!
//! Runs **every registered policy engine** (`PolicyKind::registry()`)
//! over **every compare scenario** (`CompareScenario::all()`) and
//! reports per-(engine, scenario) unfairness and slowdowns:
//!
//! * an aligned table on stdout (rows = scenarios, columns = engines),
//! * optionally one JSONL line per cell (`--out`), and
//! * a flat `BENCH_compare.json` artifact when `BENCH_JSON_DIR` is set
//!   (gated by `scripts/bench_gate.sh` like the perf artifacts).
//!
//! Every cell runs on a fresh simulated machine from an explicit seed
//! and the grid fans out on the `copart-parallel` pool, so the output —
//! table, JSONL, and artifact — is byte-identical at any `--jobs`
//! setting. `scripts/compare.sh` holds the harness to that.

use copart_core::policies::{self, EvalOptions, EvalResult, PolicyKind};
use copart_sim::MachineConfig;
use copart_workloads::stream::StreamReference;
use copart_workloads::CompareScenario;
use std::fmt::Write as _;

use crate::args::Options;

/// One evaluated grid cell, ready for rendering.
struct Cell {
    engine: PolicyKind,
    scenario: CompareScenario,
    result: EvalResult,
    apps: Vec<String>,
}

/// `copart compare`: the full engine × scenario fairness grid.
pub fn compare(opts: &Options) -> Result<(), String> {
    opts.apply_jobs()?;
    let seconds: f64 = opts.number("seconds", 30.0f64)?;
    if seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let seed: u64 = opts.number("seed", copart_core::CoPartParams::default().seed)?;

    let machine = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::for_machine(&machine);
    let engines = PolicyKind::registry();
    let scenarios = CompareScenario::all();

    let period_s = copart_core::CoPartParams::default().period.as_secs_f64();
    let total_periods = ((seconds / period_s).ceil() as u32).max(2);
    let eval = EvalOptions {
        total_periods,
        measure_periods: (total_periods / 2).max(1),
        seed,
        ..EvalOptions::default()
    };

    // Solo full-resource references, measured once per scenario before
    // the grid fans out (each solo run is itself an independent task).
    eprintln!(
        "measuring solo references for {} scenarios...",
        scenarios.len()
    );
    let specs_per: Vec<Vec<copart_sim::AppSpec>> =
        scenarios.iter().map(|s| s.specs(&machine)).collect();
    let full_per: Vec<Vec<f64>> = copart_parallel::par_map_indexed(&specs_per, 1, |_, specs| {
        policies::solo_full_ips(&machine, specs)
    });

    eprintln!(
        "running the {}-engine x {}-scenario grid ({} cells)...",
        engines.len(),
        scenarios.len(),
        engines.len() * scenarios.len()
    );
    let cells: Vec<(usize, PolicyKind)> = (0..scenarios.len())
        .flat_map(|si| engines.iter().map(move |&e| (si, e)))
        .collect();
    let results = copart_parallel::par_map_indexed(&cells, 1, |_, &(si, engine)| {
        policies::evaluate_policy(
            &machine,
            &specs_per[si],
            &full_per[si],
            &stream,
            engine,
            &eval,
        )
    });
    let grid: Vec<Cell> = cells
        .iter()
        .zip(results)
        .map(|(&(si, engine), result)| Cell {
            engine,
            scenario: scenarios[si],
            result,
            apps: specs_per[si].iter().map(|s| s.name.clone()).collect(),
        })
        .collect();

    print_table(engines, &scenarios, &grid);

    let jsonl = render_jsonl(&grid);
    if let Some(path) = opts.get("out") {
        std::fs::write(path, &jsonl).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("per-cell JSONL written to {path}");
    }
    write_artifact(&grid, &jsonl);
    Ok(())
}

fn print_table(engines: &[PolicyKind], scenarios: &[CompareScenario], grid: &[Cell]) {
    let mut header = vec!["scenario".to_string()];
    header.extend(engines.iter().map(|e| e.label().to_string()));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &s in scenarios {
        let mut row = vec![s.name().to_string()];
        for &e in engines {
            let cell = grid
                .iter()
                .find(|c| c.engine == e && c.scenario == s)
                .expect("full grid");
            row.push(format!("{:.4}", cell.result.unfairness));
        }
        rows.push(row);
    }
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in &rows {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            let _ = write!(s, "{:<w$}", c, w = widths[i]);
        }
        println!("{}", s.trim_end());
    };
    println!("unfairness (sigma/mu of slowdowns; lower is better):\n");
    line(&header);
    for row in &rows {
        line(row);
    }
}

/// One JSONL line per cell. Floats are formatted with `{:?}` (shortest
/// exact round trip), so identical results render identical bytes.
fn render_jsonl(grid: &[Cell]) -> String {
    let mut out = String::new();
    for cell in grid {
        let _ = write!(
            out,
            "{{\"engine\":\"{}\",\"scenario\":\"{}\",\"unfairness\":{:?},\"throughput\":{:?},\"slowdowns\":[",
            cell.engine.label(),
            cell.scenario.name(),
            cell.result.unfairness,
            cell.result.throughput,
        );
        for (i, (name, sd)) in cell.apps.iter().zip(&cell.result.slowdowns).enumerate() {
            let comma = if i > 0 { "," } else { "" };
            let _ = write!(out, "{comma}{{\"app\":\"{name}\",\"slowdown\":{sd:?}}}");
        }
        out.push_str("]}\n");
    }
    out
}

/// Writes `BENCH_compare.json` into `$BENCH_JSON_DIR` (no-op when
/// unset). The `grid_digest` string field is gated byte-exactly by
/// `copart bench-report`, pinning the whole grid's behaviour; the
/// per-cell unfairness numbers ride along ungated for visibility.
fn write_artifact(grid: &[Cell], jsonl: &str) {
    let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
        return;
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"copart-bench-compare/v1\",");
    let _ = writeln!(
        out,
        "  \"grid_digest\": \"{:#018x}\",",
        fnv1a64(jsonl.as_bytes())
    );
    let _ = writeln!(out, "  \"cells\": {},", grid.len());
    for (i, cell) in grid.iter().enumerate() {
        let key = format!(
            "{}_{}_unfairness",
            cell.engine.label(),
            cell.scenario.name()
        )
        .to_lowercase()
        .replace('-', "_");
        let comma = if i + 1 < grid.len() { "," } else { "" };
        let _ = writeln!(out, "  \"{key}\": {:?}{comma}", cell.result.unfairness);
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(format!("{dir}/BENCH_compare.json"), out))
    {
        eprintln!("warning: cannot write BENCH_compare.json under {dir}: {e}");
    } else {
        println!("bench artifact written to {dir}/BENCH_compare.json");
    }
}

/// FNV-1a over a byte string (the same digest the scale and persist
/// layers use for decision/witness digests).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rendering_is_exact_and_stable() {
        let grid = vec![Cell {
            engine: PolicyKind::LfocCluster,
            scenario: CompareScenario::Bully,
            result: EvalResult {
                policy: PolicyKind::LfocCluster,
                unfairness: 0.1 + 0.2, // 0.30000000000000004 must survive
                throughput: 1.5e9,
                slowdowns: vec![1.25, 2.0],
                timeline: Vec::new(),
            },
            apps: vec!["antagonist".into(), "victim-a".into()],
        }];
        let line = render_jsonl(&grid);
        assert_eq!(
            line,
            "{\"engine\":\"LFOC\",\"scenario\":\"bully\",\"unfairness\":0.30000000000000004,\
             \"throughput\":1500000000.0,\"slowdowns\":[{\"app\":\"antagonist\",\"slowdown\":1.25},\
             {\"app\":\"victim-a\",\"slowdown\":2.0}]}\n"
        );
        // Same input, same bytes: the digest the artifact gates on.
        assert_eq!(
            fnv1a64(line.as_bytes()),
            fnv1a64(render_jsonl(&grid).as_bytes())
        );
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a("a") — the classic test vector.
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
