//! `bench-e2e`: the benchmark's runner. `benchmark/run.sh` builds the
//! binaries and execs this; see `benchmark/README.md`.
//!
//! It links no `copart-*` crate: every end-to-end number comes from
//! driving `target/release/copart` as a subprocess, so a refactor of the
//! library APIs cannot break them. The per-layer numbers come from the
//! separate `bench-layers` binary, run as one more child; when that
//! binary is missing (it failed to build against a changed API) the
//! end-to-end numbers are still reported and the per-layer block is
//! marked missing.

mod child;
mod cli_workloads;
mod ctx;
mod noise;
mod serve_workloads;

use bench_harness::json::Json;
use bench_harness::procfs;
use bench_harness::report::{gated_names, layer_names, Report};
use bench_harness::spec::{self, RUN_SECONDS, WORKLOADS};
use child::Spawned;
use ctx::Ctx;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage: benchmark/run.sh [options]
  (no --workload)      run every workload end to end, then every traced run;
                       print all metrics, write results.json and spans
  --workload NAME      run one workload and end with the driver's JSON line
  --trace 0|1          with --workload: end-to-end metrics (0, default) or the
                       per-layer metrics of a separate traced run (1)
  --seed N             forwarded to every surface that takes one (default 42)
  --seconds S          measuring budget per workload (default 10)
  --out DIR            output directory (default .bench_out)
  --quick              every workload at probe size plus a short traced run
  --calibrate N        run the full set N (>= 5) times on seeds seed..seed+N-1,
                       write NOISE.json and regenerate BENCHMARK.json
  --against FILE       judge this run against a previous results.json
  --print-manifest     print BENCHMARK.json as generated from NOISE.json";

#[derive(Debug)]
struct Opts {
    copart: PathBuf,
    layers: Option<PathBuf>,
    bench_dir: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    calibrate: Option<usize>,
    against: Option<PathBuf>,
    print_manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        copart: PathBuf::new(),
        layers: None,
        bench_dir: PathBuf::from("benchmark"),
        out: PathBuf::from(".bench_out"),
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        calibrate: None,
        against: None,
        print_manifest: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
        }
        match flag.as_str() {
            "--copart" => o.copart = value()?.into(),
            "--layers" => o.layers = Some(value()?.into()),
            "--bench-dir" => o.bench_dir = value()?.into(),
            "--out" => o.out = value()?.into(),
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = num(flag, value()?)?,
            "--seconds" => o.seconds = num(flag, value()?)?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => o.quick = true,
            "--calibrate" => o.calibrate = Some(num(flag, value()?)?),
            "--against" => o.against = Some(value()?.into()),
            "--print-manifest" => o.print_manifest = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if let Some(w) = &o.workload {
        if spec::workload(w).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {w:?} (one of {})",
                names.join(", ")
            ));
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) {
        return Err("--seconds must be within (0, 60]".into());
    }
    if o.calibrate.is_some_and(|n| n < 5) {
        return Err("--calibrate needs at least 5 runs".into());
    }
    if !o.print_manifest && !o.copart.is_file() {
        return Err(format!("copart binary not found at {}", o.copart.display()));
    }
    Ok(o)
}

/// One workload end to end, tracing off.
fn run_e2e(o: &Opts, workload: &str, seed: u64) -> Report {
    let dir = o.out.join(workload);
    let _ = std::fs::remove_dir_all(&dir);
    let ctx = Ctx {
        copart: o.copart.clone(),
        dir,
        seed,
        seconds: o.seconds,
        quick: o.quick,
    };
    let mut report = match workload {
        "node_steady" => cli_workloads::node_steady(&ctx),
        "planner_scale" => cli_workloads::planner_scale(&ctx),
        "node_persist" => cli_workloads::node_persist(&ctx),
        "fleet_churn" => cli_workloads::fleet_churn(&ctx),
        "serve_reads" => serve_workloads::serve_reads(&ctx),
        "serve_churn" => serve_workloads::serve_churn(&ctx),
        "compare_grid" => cli_workloads::compare_grid(&ctx),
        other => unreachable!("workload {other} was validated at parse time"),
    };
    let ratio = report.fail_ratio();
    report.put("fail_ratio", ratio, "ratio", report.attempted as usize);
    report
}

/// One workload's traced run, in the `bench-layers` child. `None` when
/// the binary is missing or produced no report.
fn run_traced(o: &Opts, workload: &str, seed: u64) -> Option<Report> {
    let layers = o.layers.as_ref().filter(|p| p.is_file())?;
    let dir = o.out.join(format!("{workload}-traced"));
    let _ = std::fs::remove_dir_all(&dir);
    let json_path = dir.join("layers.json");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let mut argv = ctx::args(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--out-json",
        &path("layers.json"),
        "--spans-out",
        &path("spans.jsonl"),
        "--scratch",
        &path("scratch"),
    ]);
    if o.quick {
        argv.push("--quick".to_string());
    }
    let run = Spawned::spawn(layers, &argv, &dir, "layers")
        .ok()?
        .wait(Duration::from_secs(170));
    let mut report = std::fs::read_to_string(&json_path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .and_then(|j| Report::from_json(&j))
        .unwrap_or_else(|| Report::new(workload));
    report.check(run.ok, || run.failure.clone().unwrap_or_default());
    Some(report)
}

/// Where and on what this ran.
fn environment() -> Json {
    let output = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let load = procfs::loadavg_1m();
    Json::obj()
        .with("nproc", Json::Num(nproc as f64))
        .with(
            "cpu_model",
            Json::str(&procfs::cpu_model().unwrap_or_else(|| "unknown".into())),
        )
        .with("rustc", Json::str(&output("rustc", &["--version"])))
        .with("commit", Json::str(&output("git", &["rev-parse", "HEAD"])))
        .with("loadavg_1m", load.map_or(Json::Null, Json::Num))
        // Host-time results taken on a busy machine are flagged, not hidden.
        .with(
            "noisy",
            Json::Bool(load.is_some_and(|l| l > nproc as f64 / 2.0)),
        )
}

fn print_environment(env: &Json) {
    let field = |k: &str| match env.get(k) {
        Some(Json::Str(s)) => s.clone(),
        Some(other) => other.render(),
        None => "unknown".to_string(),
    };
    println!(
        "environment: nproc {}, {}, {}, commit {}, 1-min load {}{}",
        field("nproc"),
        field("cpu_model"),
        field("rustc"),
        field("commit"),
        field("loadavg_1m"),
        if env.get("noisy") == Some(&Json::Bool(true)) {
            "  ** noisy: load > nproc/2 **"
        } else {
            ""
        }
    );
}

/// `--workload`: one run, ending with the driver's result line.
fn driver_mode(o: &Opts, workload: &str) -> ExitCode {
    let (report, line) = if o.trace {
        let Some(report) = run_traced(o, workload, o.seed) else {
            eprintln!("error: the per-layer binary is missing (bench-layers did not build)");
            return ExitCode::FAILURE;
        };
        report.print("per-layer, traced run");
        // A layer this workload's traced run never enters reads 0.
        let line = report.driver_line(&layer_names(), Some(0.0));
        (report, line)
    } else {
        let report = run_e2e(o, workload, o.seed);
        report.print("end-to-end, tracing off");
        let line = report.driver_line(&gated_names(), None);
        (report, line)
    };
    // A --quick run measures no rates, so it has no result line to give.
    if o.quick {
        return if report.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    println!("{line}");
    if report.failed == 0 && line.starts_with("{\"correct\":true") {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What each workload was chosen for, read off the traced runs. Printed,
/// never failed on: a later change may legitimately move these.
fn print_claims(e2e: &[Report], traced: &[Report]) -> Json {
    let of = |reports: &[Report], w: &str, m: &str| {
        reports
            .iter()
            .find(|r| r.workload == w)
            .and_then(|r| r.get(m))
    };
    let mut claims = Json::obj();
    let mut claim = |name: &str, value: Option<f64>, want: &str, met: fn(f64) -> bool| {
        let verdict = match value {
            Some(v) if met(v) => "met",
            Some(_) => "NOT MET",
            None => "unverified (no traced run)",
        };
        println!(
            "  {name:<44} {:>12}  want {want:<8} {verdict}",
            value.map_or("-".to_string(), bench_harness::report::format_value)
        );
        claims.set(name, value.map_or(Json::Null, Json::Num));
    };
    println!("== what each workload was chosen for ==");
    claim(
        "node_steady sim.advance_share",
        of(traced, "node_steady", "sim.advance_share"),
        ">= 0.9",
        |v| v >= 0.9,
    );
    claim(
        "planner_scale sim.advance_share",
        of(traced, "planner_scale", "sim.advance_share"),
        "== 0",
        |v| v == 0.0,
    );
    claim(
        "node_persist persist.share",
        of(traced, "node_persist", "persist.share"),
        ">= 0.3",
        |v| v >= 0.3,
    );
    claim(
        "node_steady bench.epoch_coverage",
        of(traced, "node_steady", "bench.epoch_coverage"),
        "1 +- 0.02",
        |v| (v - 1.0).abs() <= 0.02,
    );
    claim(
        "node_steady bench.trace_overhead_ratio",
        of(traced, "node_steady", "bench.trace_overhead_ratio"),
        ">= 0.97",
        |v| v >= 0.97,
    );
    // Queue wait: what an admission costs over the wire beyond the
    // admission itself.
    let wait = of(e2e, "serve_churn", "admit_ms_p50")
        .zip(of(traced, "serve_churn", "serve.admit_ns"))
        .map(|(wire_ms, direct_ns)| wire_ms - direct_ns / 1e6);
    claim(
        "serve_churn admit queue wait (ms)",
        wait,
        "reported",
        |_| true,
    );
    claims
}

/// No `--workload`: everything, printed and written to `results.json`.
fn full_mode(o: &Opts) -> ExitCode {
    let env = environment();
    print_environment(&env);
    let e2e: Vec<Report> = WORKLOADS
        .iter()
        .map(|w| {
            let r = run_e2e(o, w.name, o.seed);
            r.print("end-to-end, tracing off");
            r
        })
        .collect();
    // --quick traces one short loop, not every workload.
    let traced: Vec<Report> = WORKLOADS
        .iter()
        .take(if o.quick { 1 } else { WORKLOADS.len() })
        .filter_map(|w| {
            let r = run_traced(o, w.name, o.seed)?;
            r.print("per-layer, traced run");
            Some(r)
        })
        .collect();
    if traced.is_empty() {
        println!("== per-layer block MISSING: bench-layers did not build or run ==");
    }
    let claims = print_claims(&e2e, &traced);

    let reports = |rs: &[Report]| Json::Arr(rs.iter().map(Report::to_json).collect());
    let doc = Json::obj()
        .with("env", env)
        .with("seed", Json::Num(o.seed as f64))
        .with("quick", Json::Bool(o.quick))
        .with("end_to_end", reports(&e2e))
        .with(
            "per_layer",
            if traced.is_empty() {
                Json::Null
            } else {
                reports(&traced)
            },
        )
        .with("claims", claims);
    let results = o.out.join("results.json");
    let mut ok = std::fs::create_dir_all(&o.out)
        .and_then(|()| std::fs::write(&results, doc.render_pretty()))
        .map_err(|e| eprintln!("error: cannot write {}: {e}", results.display()))
        .is_ok();
    println!("results written to {}", results.display());

    if let Some(path) = &o.against {
        ok &= against(o, path, &e2e);
    }
    let failed: u64 = e2e.iter().chain(&traced).map(|r| r.failed).sum();
    println!("{} failed operations across all workloads", failed);
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn load_json(path: &Path) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

/// `--against FILE`: this run's end-to-end cells against a previous
/// run's, under the bounds `NOISE.json` records.
fn against(o: &Opts, path: &Path, new: &[Report]) -> bool {
    let base: Option<Vec<Report>> = load_json(path).and_then(|j| {
        j.get("end_to_end")?
            .as_arr()?
            .iter()
            .map(Report::from_json)
            .collect()
    });
    let Some(base) = base else {
        eprintln!("error: {} is not a results.json", path.display());
        return false;
    };
    let noise = load_json(&o.bench_dir.join("NOISE.json"));
    let (lines, regressed) = noise::judge(&base, new, noise.as_ref());
    println!("== against {} ==", path.display());
    lines.iter().for_each(|l| println!("  {l}"));
    !regressed
}

/// `--calibrate N`.
fn calibrate(o: &Opts, n: usize) -> ExitCode {
    let env = environment();
    print_environment(&env);
    let seeds: Vec<u64> = (0..n as u64).map(|i| o.seed + i).collect();
    let mut failed = 0;
    let runs: Vec<Vec<Report>> = seeds
        .iter()
        .map(|&seed| {
            WORKLOADS
                .iter()
                .map(|w| {
                    let r = run_e2e(o, w.name, seed);
                    println!(
                        "calibrate seed {seed} {:<14} wall_s {:?} failed {}",
                        w.name,
                        r.get("wall_s"),
                        r.failed
                    );
                    failed += r.failed;
                    r
                })
                .collect()
        })
        .collect();
    let cells = noise::cells(&runs);
    println!(
        "== noise over {n} runs (seeds {}..={}) ==",
        seeds[0],
        seeds[n - 1]
    );
    let mut unshippable = Vec::new();
    for c in &cells {
        let (bound, capped) = c.bound();
        println!(
            "  {:<14} {:<20} median {:>14.6} {:<8} spread {:>7.4}  bound {bound:.4}{}",
            c.workload,
            c.metric.name,
            bench_harness::stats::median(&c.values).unwrap_or(f64::NAN),
            c.metric.unit,
            c.spread(),
            // The cell gates, with less than the rule's margin over its noise.
            if capped { "  (capped)" } else { "" }
        );
        if c.unshippable() {
            unshippable.push(format!("{}/{}", c.workload, c.metric.name));
        }
    }
    let disagree = noise::halves_disagree(&cells);
    disagree
        .iter()
        .for_each(|d| println!("  HALVES DISAGREE {d}"));

    let noise_path = o.bench_dir.join("NOISE.json");
    let manifest_path = o.bench_dir.join("../BENCHMARK.json");
    let noise_doc = noise::noise_json(&cells, &seeds, env);
    let written = std::fs::write(&noise_path, noise_doc.render_pretty()).and_then(|()| {
        std::fs::write(
            &manifest_path,
            noise::manifest(Some(&noise_doc)).render_pretty(),
        )
    });
    match &written {
        Ok(()) => println!(
            "wrote {} and {}",
            noise_path.display(),
            manifest_path.display()
        ),
        Err(e) => eprintln!("error: cannot write calibration files: {e}"),
    }
    if !unshippable.is_empty() {
        // The rule: lengthen the run, or demote the metric to per-layer.
        println!(
            "listed cells whose spread exceeds the 25 % cap: {}",
            unshippable.join(", ")
        );
    }
    if written.is_ok() && failed == 0 && disagree.is_empty() && unshippable.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--print-manifest`: `BENCHMARK.json` from the table and the recorded
/// noise.
fn print_manifest(o: &Opts) -> ExitCode {
    let noise = load_json(&o.bench_dir.join("NOISE.json"));
    let manifest = noise::manifest(noise.as_ref());
    print!("{}", manifest.render_pretty());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if opts.print_manifest {
        print_manifest(&opts)
    } else if let Some(n) = opts.calibrate {
        calibrate(&opts, n)
    } else if let Some(workload) = opts.workload.clone() {
        driver_mode(&opts, &workload)
    } else {
        full_mode(&opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        let mut v = vec!["--copart".to_string(), "/bin/sh".to_string()];
        v.extend(parts.iter().map(|s| s.to_string()));
        v
    }

    #[test]
    fn parses_the_driver_invocation() {
        let o = parse_args(&argv(&[
            "--workload",
            "serve_churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("serve_churn"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["--seed"],
            &["--calibrate", "4"],
            &["--frobnicate"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
        let missing = parse_args(&["--copart".to_string(), "/no/such/copart".to_string()]);
        assert!(missing.unwrap_err().contains("not found"));
    }
}
