//! The batch workloads: `sim-run`, `fleet-run` and `compare` driven as
//! subprocesses.
//!
//! Each has a fixed *shape* (the command line a user would type) and a
//! *probe* (the same command with its work parameter at minimum).
//! `setup_s` is the median probe wall, and rates are two-point —
//! `(work_full − work_probe) / (wall_full − wall_probe)` — so the fixed
//! set-up both runs pay cancels.

use crate::child::{Run, Spawned, Stream};
use crate::ctx::{args, digest, median_wall, read, timeout_for, Ctx, Usage};
use bench_harness::json::Json;
use bench_harness::report::Report;
use bench_harness::spec::{FLEET_SEED, JOBS, PAPER_COPART_VS_EQ};
use bench_harness::stats;
use bench_harness::surfaces::node_epochs;
use std::time::Instant;

/// The value after the last `:` of the first stdout line containing
/// `label`.
fn field_after_colon(stdout: &str, label: &str) -> Option<f64> {
    stdout
        .lines()
        .find(|l| l.contains(label))?
        .rsplit(':')
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Reports what all the batch workloads share: `wall_s`, `cpu_s` and
/// `epochs_per_s` as medians over the full trials.
fn put_trial_medians(r: &mut Report, walls: &[f64], cpus: &[f64], rates: &[f64]) {
    r.put_user("wall_s", stats::median(walls), walls.len());
    r.put_user("cpu_s", stats::median(cpus), cpus.len());
    r.put_user("epochs_per_s", stats::median(rates), rates.len());
}

/// [`put_trial_medians`] for trials that are one invocation each;
/// `rate` gives a successful trial's work per second.
fn put_full_runs(r: &mut Report, fulls: &[Run], rate: impl Fn(&Run) -> Option<f64>) {
    let ok: Vec<&Run> = fulls.iter().filter(|f| f.ok).collect();
    let walls: Vec<f64> = ok.iter().map(|f| f.wall_s).collect();
    let cpus: Vec<f64> = ok.iter().filter_map(|f| f.proc.cpu_s).collect();
    let rates: Vec<f64> = ok.iter().filter_map(|f| rate(f)).collect();
    put_trial_medians(r, &walls, &cpus, &rates);
}

/// `--quick`: no full trial ran, so the probe stands in for it and no
/// rate exists.
fn put_probe_only(r: &mut Report, probes: &[Run]) {
    r.put_user("wall_s", median_wall(probes), probes.len());
    let cpu = probes.iter().filter_map(|p| p.proc.cpu_s).reduce(f64::max);
    r.put_user("cpu_s", cpu, probes.len());
}

/// Workload 1, `node_steady`: one long warm simulation.
pub fn node_steady(ctx: &Ctx) -> Report {
    let mut r = ctx.report("node_steady");
    let since = Instant::now();
    let shape = |seconds: &str| {
        args(&[
            "sim-run",
            "--mix",
            "h-both",
            "--policy",
            "copart",
            "--apps",
            "4",
            "--seconds",
            seconds,
        ])
    };
    // 200 ms periods: --seconds 2 is 10 epochs, --seconds 400 is 2000.
    let (probe_epochs, full_epochs) = (10.0, 2000.0);
    let mut usage = Usage::default();

    let probes = ctx.probes(|i| ctx.run(&mut r, &format!("probe{i}"), &shape("2"), 1.3));
    let setup = median_wall(&probes);
    r.put_user("setup_s", setup, probes.len());
    let outs: Vec<String> = probes.iter().map(|p| p.stdout.clone()).collect();
    r.check_identical("sim-run probe output", &outs);
    probes.iter().for_each(|p| usage.add(p));

    if ctx.quick {
        put_probe_only(&mut r, &probes);
    } else {
        let fulls = ctx.trials(since, |i| {
            let run = ctx.run(&mut r, &format!("full{i}"), &shape("400"), 7.0);
            let wall = run.wall_s;
            (run, wall)
        });
        let outs: Vec<String> = fulls.iter().map(|f| f.stdout.clone()).collect();
        r.check_identical("sim-run result lines", &outs);
        fulls.iter().for_each(|f| usage.add(f));
        put_full_runs(&mut r, &fulls, |f| {
            stats::two_point_rate(full_epochs, probe_epochs, f.wall_s, setup?)
        });
        // The ground-truth lines sim-run prints: simulated, so they
        // repeat exactly.
        let stdout = fulls.first().map_or("", |f| f.stdout.as_str());
        r.put_user("unfairness", field_after_colon(stdout, "unfairness ("), 1);
        r.put_user(
            "throughput_gips",
            field_after_colon(stdout, "throughput (").map(|ips| ips / 1e9),
            1,
        );
        r.note(format!(
            "sim-run result digest {}",
            digest(stdout.as_bytes())
        ));
    }
    r.put_user("peak_rss_mb", usage.peak_rss_mb(), 1);
    r
}

/// The planner harness's stdout without its host-time latency line.
fn planner_decisions(stdout: &str) -> String {
    stdout
        .lines()
        .filter(|l| !l.contains("plan latency"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The epoch count the planner harness says it ran.
fn planner_epochs(stdout: &str) -> Option<f64> {
    stdout
        .lines()
        .next()?
        .split(", ")
        .find_map(|part| part.strip_suffix(" epochs"))?
        .parse()
        .ok()
}

/// Workload 2, `planner_scale`: the planner alone over 4000 synthetic apps.
pub fn planner_scale(ctx: &Ctx) -> Report {
    let mut r = ctx.report("planner_scale");
    let since = Instant::now();
    let seed = ctx.seed.to_string();
    let shape = |seconds: &str| {
        args(&[
            "sim-run",
            "--apps",
            "4000",
            "--seconds",
            seconds,
            "--seed",
            &seed,
        ])
    };
    let mut usage = Usage::default();

    let probes = ctx.probes(|i| ctx.run(&mut r, &format!("probe{i}"), &shape("0.2"), 0.01));
    let setup = median_wall(&probes);
    r.put_user("setup_s", setup, probes.len());
    let outs: Vec<String> = probes
        .iter()
        .map(|p| planner_decisions(&p.stdout))
        .collect();
    r.check_identical("planner probe decisions", &outs);
    let probe_epochs = probes.first().and_then(|p| planner_epochs(&p.stdout));
    probes.iter().for_each(|p| usage.add(p));

    if ctx.quick {
        put_probe_only(&mut r, &probes);
    } else {
        let fulls = ctx.trials(since, |i| {
            let run = ctx.run(&mut r, &format!("full{i}"), &shape("4000"), 6.0);
            let wall = run.wall_s;
            (run, wall)
        });
        let outs: Vec<String> = fulls.iter().map(|f| planner_decisions(&f.stdout)).collect();
        r.check_identical("planner decision digest", &outs);
        fulls.iter().for_each(|f| usage.add(f));
        put_full_runs(&mut r, &fulls, |f| {
            stats::two_point_rate(planner_epochs(&f.stdout)?, probe_epochs?, f.wall_s, setup?)
        });
        if let Some(line) = fulls
            .first()
            .and_then(|f| f.stdout.lines().find(|l| l.contains("decision digest")))
        {
            r.note(line.trim().to_string());
        }
    }
    r.put_user("peak_rss_mb", usage.peak_rss_mb(), 1);
    r
}

/// Workload 3, `node_persist`: the same simulation writing beside computing,
/// then a kill and a resume.
pub fn node_persist(ctx: &Ctx) -> Report {
    let mut r = ctx.report("node_persist");
    let since = Instant::now();
    let seed = ctx.seed.to_string();
    let shape = |epochs: &str, dir: &str, extra: &[&str]| {
        let mut a = args(&[
            "sim-run",
            "--mix",
            "h-both",
            "--apps",
            "4",
            "--epochs",
            epochs,
            "--snapshot-every",
            "8",
            "--state-dir",
            dir,
            "--seed",
            &seed,
        ]);
        a.extend(args(extra));
        a
    };
    let fresh = |name: &str| {
        let dir = ctx.dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        ctx.path(name)
    };
    let (full_epochs, kill_at) = (800.0, 792.0);
    let mut usage = Usage::default();

    // --quick folds the kill into its one probe: 2 epochs, killed after 1.
    let (probe_epochs, probe_extra): (&str, &[&str]) = if ctx.quick {
        ("2", &["--kill-at-epoch", "1"])
    } else {
        ("1", &[])
    };
    let probes = ctx.probes(|i| {
        let dir = fresh(&format!("P{i}"));
        ctx.run(
            &mut r,
            &format!("probe{i}"),
            &shape(probe_epochs, &dir, probe_extra),
            1.3,
        )
    });
    let setup = median_wall(&probes);
    r.put_user("setup_s", setup, probes.len());
    let traces: Vec<String> = (0..probes.len())
        .map(|i| read(&ctx.dir.join(format!("P{i}/trace.jsonl"))))
        .collect();
    r.check(traces.first().is_some_and(|t| !t.is_empty()), || {
        "probe wrote no trace".to_string()
    });
    r.check_identical("persisted probe trace", &traces);
    probes.iter().for_each(|p| usage.add(p));

    if ctx.quick {
        // Probe size still exercises kill and resume.
        let resumed = ctx.run(
            &mut r,
            "quick-resume",
            &shape("2", &ctx.path("P0"), &["--resume"]),
            1.3,
        );
        r.check(resumed.stdout.contains("run complete: 2 epochs"), || {
            "resume did not complete the run".to_string()
        });
        usage.add(&resumed);
        r.put_user("resume_s", Some(resumed.wall_s), 1);
        put_probe_only(&mut r, &probes);
    } else {
        struct Trial {
            wall: f64,
            cpu: Option<f64>,
            resume: f64,
            rates: Vec<f64>,
            ok: bool,
        }
        let trials = ctx.trials(since, |i| {
            let (a_dir, b_dir) = (fresh("A"), fresh("B"));
            let a = ctx.run(&mut r, &format!("A{i}"), &shape("800", &a_dir, &[]), 4.5);
            let b = ctx.run(
                &mut r,
                &format!("B{i}-kill"),
                &shape("800", &b_dir, &["--kill-at-epoch", "792"]),
                4.5,
            );
            r.check(b.stdout.contains("killed at epoch 792"), || {
                "run B did not stop at its kill point".to_string()
            });
            let res = ctx.run(
                &mut r,
                &format!("B{i}-resume"),
                &shape("800", &b_dir, &["--resume"]),
                1.0,
            );
            r.check(res.stdout.contains("run complete: 800 epochs"), || {
                "resume did not complete the run".to_string()
            });
            // The uninterrupted trace must be well-formed, and the
            // resumed one well-formed and byte-identical to it.
            let a_trace = format!("{a_dir}/trace.jsonl");
            let b_trace = format!("{b_dir}/trace.jsonl");
            ctx.run(
                &mut r,
                &format!("check-A{i}"),
                &args(&["trace-check", "--path", &a_trace]),
                0.1,
            );
            ctx.run(
                &mut r,
                &format!("check-B{i}"),
                &args(&["trace-check", "--path", &b_trace]),
                0.1,
            );
            ctx.run(
                &mut r,
                &format!("check-B{i}-vs-A"),
                &args(&["trace-check", "--path", &b_trace, "--reference", &a_trace]),
                0.1,
            );
            if i == 0 {
                let trace = std::fs::read(&a_trace).unwrap_or_default();
                r.note(format!(
                    "trace digest {} ({} bytes)",
                    digest(&trace),
                    trace.len()
                ));
            }
            [&a, &b, &res].iter().for_each(|run| usage.add(run));
            let wall = a.wall_s + b.wall_s + res.wall_s;
            let cpu = [&a, &b, &res]
                .iter()
                .map(|run| run.proc.cpu_s)
                .sum::<Option<f64>>();
            let rates = [(full_epochs, &a), (kill_at, &b)]
                .iter()
                .filter_map(|(epochs, run)| stats::two_point_rate(*epochs, 1.0, run.wall_s, setup?))
                .collect();
            let trial = Trial {
                wall,
                cpu,
                resume: res.wall_s,
                rates,
                ok: a.ok && b.ok && res.ok,
            };
            (trial, wall)
        });
        let ok: Vec<&Trial> = trials.iter().filter(|t| t.ok).collect();
        let walls: Vec<f64> = ok.iter().map(|t| t.wall).collect();
        let cpus: Vec<f64> = ok.iter().filter_map(|t| t.cpu).collect();
        let rates: Vec<f64> = ok.iter().flat_map(|t| t.rates.iter().copied()).collect();
        let resumes: Vec<f64> = ok.iter().map(|t| t.resume).collect();
        put_trial_medians(&mut r, &walls, &cpus, &rates);
        r.put_user("resume_s", stats::median(&resumes), resumes.len());
    }
    r.put_user("peak_rss_mb", usage.peak_rss_mb(), 1);
    // State directories are rebuilt per trial; the children's stdout and
    // stderr stay for post-mortem.
    if r.failed == 0 {
        for entry in std::fs::read_dir(&ctx.dir).into_iter().flatten().flatten() {
            if entry.path().is_dir() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
    r
}

/// Workload 4, `fleet_churn`: the `fleet.sh` shape on two workers.
pub fn fleet_churn(ctx: &Ctx) -> Report {
    let mut r = ctx.report("fleet_churn");
    let since = Instant::now();
    // Not `ctx.seed`: see `FLEET_SEED`.
    let (seed, jobs) = (FLEET_SEED.to_string(), JOBS.to_string());
    let shape = |apps: &str, epochs: &str, tag: &str| {
        args(&[
            "fleet-run",
            "--nodes",
            "64",
            "--apps",
            apps,
            "--epochs",
            epochs,
            "--seed",
            &seed,
            "--jobs",
            &jobs,
            "--trace-out",
            &ctx.path(&format!("{tag}-trace.jsonl")),
            "--tickets-out",
            &ctx.path(&format!("{tag}-tickets.jsonl")),
        ])
    };
    let outputs = |tag: &str| {
        (
            read(&ctx.dir.join(format!("{tag}-trace.jsonl"))),
            read(&ctx.dir.join(format!("{tag}-tickets.jsonl"))),
        )
    };
    let mut usage = Usage::default();

    let probes = ctx.probes(|i| {
        let tag = format!("probe{i}");
        ctx.run(&mut r, &tag, &shape("1", "1", &tag), 0.8)
    });
    let setup = median_wall(&probes);
    r.put_user("setup_s", setup, probes.len());
    let outs: Vec<String> = (0..probes.len())
        .map(|i| {
            let (trace, tickets) = outputs(&format!("probe{i}"));
            trace + &tickets
        })
        .collect();
    r.check_identical("fleet probe trace and tickets", &outs);
    let probe_work = outs.first().and_then(|t| node_epochs(t));
    r.check(probe_work.is_some(), || {
        "probe trace has no summary line".to_string()
    });
    probes.iter().for_each(|p| usage.add(p));

    if ctx.quick {
        let trace = ctx.path("probe0-trace.jsonl");
        ctx.run(
            &mut r,
            "check-probe",
            &args(&["trace-check", "--fleet", "--path", &trace]),
            0.1,
        );
        put_probe_only(&mut r, &probes);
    } else {
        let fulls = ctx.trials(since, |i| {
            let tag = format!("full{i}");
            let run = ctx.run(&mut r, &tag, &shape("500", "48", &tag), 12.5);
            let trace = ctx.path(&format!("{tag}-trace.jsonl"));
            ctx.run(
                &mut r,
                &format!("check-{tag}"),
                &args(&["trace-check", "--fleet", "--path", &trace]),
                0.1,
            );
            let wall = run.wall_s;
            (run, wall)
        });
        let outs: Vec<(String, String)> = (0..fulls.len())
            .map(|i| outputs(&format!("full{i}")))
            .collect();
        let joined: Vec<String> = outs.iter().map(|(t, k)| format!("{t}{k}")).collect();
        r.check_identical("fleet trace and tickets", &joined);
        fulls.iter().for_each(|f| usage.add(f));
        let work = outs.first().and_then(|(trace, _)| node_epochs(trace));
        r.check(work.is_some(), || {
            "fleet trace has no summary lines".to_string()
        });
        // Work is node-epochs: fleet epochs weighted by how many nodes
        // were live in each.
        put_full_runs(&mut r, &fulls, |f| {
            stats::two_point_rate(work?, probe_work?, f.wall_s, setup?)
        });
        if let Some((trace, tickets)) = outs.first() {
            r.note(format!(
                "{} node-epochs; trace digest {}, tickets digest {}",
                work.unwrap_or(0.0),
                digest(trace.as_bytes()),
                digest(tickets.as_bytes())
            ));
        }
    }
    r.put_user("peak_rss_mb", usage.peak_rss_mb(), 1);
    r
}

/// Unfairness per `(engine, scenario)` from `cells.jsonl`, scenarios in
/// first-seen order.
fn grid_cells(cells: &str) -> Option<Vec<(String, String, f64)>> {
    cells
        .lines()
        .map(|line| {
            let j = Json::parse(line).ok()?;
            Some((
                j.get("engine")?.as_str()?.to_string(),
                j.get("scenario")?.as_str()?.to_string(),
                j.get("unfairness")?.as_f64()?,
            ))
        })
        .collect()
}

/// Geomean over scenarios of CoPart's unfairness over a reference's;
/// the reference is the smallest unfairness among `others`.
fn geomean_ratio(cells: &[(String, String, f64)], others: &[&str]) -> Option<f64> {
    let of = |engine: &str, scenario: &str| {
        cells
            .iter()
            .find(|(e, s, _)| e == engine && s == scenario)
            .map(|c| c.2)
    };
    let mut scenarios: Vec<&str> = Vec::new();
    for (_, s, _) in cells {
        if !scenarios.contains(&s.as_str()) {
            scenarios.push(s);
        }
    }
    let logs: Vec<f64> = scenarios
        .iter()
        .map(|s| {
            let reference = others
                .iter()
                .filter_map(|e| of(e, s))
                .fold(f64::INFINITY, f64::min);
            let ratio = of("CoPart", s)? / reference;
            (ratio.is_finite() && ratio > 0.0).then(|| ratio.ln())
        })
        .collect::<Option<_>>()?;
    stats::mean(&logs).map(f64::exp)
}

/// Workload 7, `compare_grid`: the head-to-head fairness grid.
pub fn compare_grid(ctx: &Ctx) -> Report {
    let mut r = ctx.report("compare_grid");
    let (seed, jobs) = (ctx.seed.to_string(), JOBS.to_string());
    // The 14.7 s offline search does not shrink with --seconds, so the
    // probe size only trims the cells. One virtual second is the least
    // that measures: below four periods every cell's unfairness is NaN.
    let virtual_s = if ctx.quick { "1" } else { "6" };
    let periods_per_cell = if ctx.quick { 5.0 } else { 30.0 };
    let cells_path = ctx.path("cells.jsonl");
    let argv = args(&[
        "compare",
        "--seconds",
        virtual_s,
        "--seed",
        &seed,
        "--jobs",
        &jobs,
        "--out",
        &cells_path,
    ]);
    let expected_s = 17.5;
    let (run, setup) = match Spawned::spawn(&ctx.copart, &argv, &ctx.dir, "compare") {
        Ok(mut child) => {
            // Set-up ends when the solo references are in and the grid
            // fans out.
            let marker = child.wait_for_line(Stream::Err, "running the", timeout_for(expected_s));
            (
                Some(child.wait(timeout_for(expected_s))),
                marker.map(|(at, _)| at),
            )
        }
        Err(e) => {
            r.check(false, || format!("compare: cannot spawn: {e}"));
            (None, None)
        }
    };
    if let Some(run) = &run {
        r.check(run.ok, || run.failure.clone().unwrap_or_default());
    }
    r.put_user("setup_s", setup, 1);
    let cells_text = read(&ctx.dir.join("cells.jsonl"));
    let cells = grid_cells(&cells_text);
    r.check(cells.as_ref().is_some_and(|c| c.len() == 35), || {
        format!(
            "cells.jsonl does not hold the 35-cell grid ({} lines)",
            cells_text.lines().count()
        )
    });
    if let (Some(run), Some(cells)) = (&run, &cells) {
        r.put_user("wall_s", Some(run.wall_s), 1);
        r.put_user("cpu_s", run.proc.cpu_s, 1);
        r.put_user(
            "peak_rss_mb",
            run.proc.hwm_kb.map(|kb| kb as f64 / 1024.0),
            1,
        );
        // Cell-epochs per second of grid time; the ST/Utility offline
        // search runs inside its cells and is deliberately in the
        // denominator.
        let grid_s = setup.map(|s| run.wall_s - s).filter(|&s| s > 0.0);
        r.put_user(
            "epochs_per_s",
            grid_s.map(|s| cells.len() as f64 * periods_per_cell / s),
            1,
        );
        let vs_eq = geomean_ratio(cells, &["EQ"]);
        r.put_user("copart_vs_eq", vs_eq, 5);
        r.put_user(
            "copart_vs_ablation",
            geomean_ratio(cells, &["CAT-only", "MBA-only"]),
            5,
        );
        if let Some(v) = vs_eq {
            r.note(format!(
                "copart_vs_eq {v:.3} against the paper's Fig 12 reference {PAPER_COPART_VS_EQ} \
                 (error {:+.3}); everything else here is unvalidated against hardware",
                v - PAPER_COPART_VS_EQ
            ));
        }
        r.note(format!(
            "cells.jsonl digest {}",
            digest(cells_text.as_bytes())
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sim_run_result_lines() {
        let out = "mix H-Both\n\npolicy CoPart over 400 virtual seconds:\n  \
                   unfairness (σ/μ of slowdowns): 0.0757\n  throughput (geomean IPS):      6.258e9\n";
        assert_eq!(field_after_colon(out, "unfairness ("), Some(0.0757));
        assert_eq!(field_after_colon(out, "throughput ("), Some(6.258e9));
        assert_eq!(field_after_colon(out, "absent"), None);
    }

    #[test]
    fn planner_output_is_compared_without_its_host_time_line() {
        let a = "planner-scale run: 4000 synthetic apps (uniform population), 20000 epochs, seed 0x2a\n  \
                 plan latency: p50 0.231 ms\n  decision digest: 0xfed1\n";
        let b = a.replace("0.231", "0.244");
        assert_eq!(planner_decisions(a), planner_decisions(&b));
        assert_ne!(
            planner_decisions(a),
            planner_decisions(&a.replace("0xfed1", "0xbeef"))
        );
        assert_eq!(planner_epochs(a), Some(20000.0));
    }

    #[test]
    fn grid_ratios_are_geomeans_over_scenarios() {
        let line = |e: &str, s: &str, u: f64| {
            format!("{{\"engine\":\"{e}\",\"scenario\":\"{s}\",\"unfairness\":{u}}}\n")
        };
        let text = [
            line("EQ", "a", 0.4),
            line("CAT-only", "a", 0.2),
            line("MBA-only", "a", 0.1),
            line("CoPart", "a", 0.2),
            line("EQ", "b", 0.1),
            line("CAT-only", "b", 0.05),
            line("MBA-only", "b", 0.2),
            line("CoPart", "b", 0.025),
        ]
        .concat();
        let cells = grid_cells(&text).unwrap();
        // vs EQ: 0.5 and 0.25 -> sqrt(0.125).
        let vs_eq = geomean_ratio(&cells, &["EQ"]).unwrap();
        assert!((vs_eq - 0.125f64.sqrt()).abs() < 1e-12);
        // vs min(CAT, MBA): 0.2/0.1 = 2 and 0.025/0.05 = 0.5 -> 1.
        let vs_abl = geomean_ratio(&cells, &["CAT-only", "MBA-only"]).unwrap();
        assert!((vs_abl - 1.0).abs() < 1e-12);
        assert!(grid_cells("not json\n").is_none());
    }
}
