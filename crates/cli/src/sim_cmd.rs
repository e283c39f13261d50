//! Simulator-backed commands: `sim-run` and `classify`.

use copart_core::policies::{self, EvalOptions, EvalResult, PolicyKind};
use copart_core::scale::{run_planner_scale, ScaleConfig, ScalePopulation};
use copart_faults::FaultPlan;
use copart_persist::{harness_run, Scenario};
use copart_rdt::{ClosId, RdtBackend};
use copart_sim::MachineConfig;
use copart_telemetry::{JsonlRecorder, NullRecorder, Recorder};
use copart_workloads::stream::StreamReference;
use copart_workloads::{measure, Benchmark, MixKind, WorkloadMix};
use std::path::PathBuf;

use crate::args::{seconds_to_periods, Options};

pub(crate) fn parse_mix(s: &str) -> Result<MixKind, String> {
    MixKind::from_wire(s).ok_or_else(|| format!("unknown mix {s:?}"))
}

fn parse_faults(opts: &Options) -> Result<Option<FaultPlan>, String> {
    opts.get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("option --faults: {e}")))
        .transpose()
}

/// `copart sim-run`: one consolidation run with ground-truth metrics.
pub fn sim_run(opts: &Options) -> Result<(), String> {
    let mix_kind = parse_mix(opts.get("mix").unwrap_or("h-both"))?;
    let policy_name = opts.get("policy").unwrap_or("copart");
    let policy = PolicyKind::from_wire(policy_name)
        .ok_or_else(|| format!("unknown policy {policy_name:?}"))?;
    let n_apps: usize = opts.number("apps", 4usize)?;
    let seconds: f64 = opts.number("seconds", 30.0f64)?;
    let total_periods = seconds_to_periods(seconds)?;
    if n_apps == 0 || n_apps > 4096 {
        return Err("--apps must be between 1 and 4096".into());
    }
    if n_apps > 6 {
        // Beyond the simulated machine's CLOS capacity: drive the planner
        // alone over a synthetic population (the scale harness).
        return planner_scale(opts, n_apps, total_periods);
    }
    // Worker count for the parallel sweeps (the ST offline search).
    opts.apply_jobs()?;
    if opts.get("state-dir").is_some() {
        // Crash-safe persistence: hand the run to the kill/resume
        // harness instead of the one-shot evaluation.
        return sim_run_persisted(opts, mix_kind, policy, n_apps, total_periods);
    }

    let machine = MachineConfig::xeon_gold_6130();
    let mix = WorkloadMix::build(mix_kind, n_apps, machine.n_cores);
    let specs = mix.specs();
    outln!(
        "mix {} ({} apps × {} cores): {:?}",
        mix_kind.label(),
        specs.len(),
        mix.cores_per_app,
        specs.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );

    let full = policies::solo_full_ips(&machine, &specs);

    let eval = EvalOptions {
        total_periods,
        measure_periods: (total_periods / 2).max(1),
        seed: opts.number("seed", EvalOptions::default().seed)?,
        ..EvalOptions::default()
    };

    let r = if policy.is_dynamic() {
        run_dynamic(opts, mix_kind, n_apps, policy, &full, &eval)?
    } else if opts.get("faults").is_some() {
        let dynamic = PolicyKind::dynamic_wire_names();
        return Err(format!("--faults needs a dynamic policy ({dynamic})"));
    } else if opts.get("trace-out").is_some() || opts.flag("metrics") {
        let dynamic = PolicyKind::dynamic_wire_names();
        return Err(format!(
            "--trace-out/--metrics need a dynamic policy ({dynamic})"
        ));
    } else {
        let stream = StreamReference::for_machine(&machine);
        policies::evaluate_policy(&machine, &specs, &full, &stream, policy, &eval)
    };

    outln!(
        "\npolicy {} over {:.0} virtual seconds:",
        policy.label(),
        seconds
    );
    outln!("  unfairness (σ/μ of slowdowns): {:.4}", r.unfairness);
    outln!("  throughput (geomean IPS):      {:.3e}", r.throughput);
    for (spec, slowdown) in specs.iter().zip(&r.slowdowns) {
        outln!("  {:<16} slowdown {slowdown:.3}", spec.name);
    }
    Ok(())
}

/// The `--state-dir` path of `sim-run`: the crash-safe kill/resume
/// harness. The run snapshots every `--snapshot-every` epochs and logs
/// every epoch in between; `--kill-at-epoch K` stops dead after K
/// epochs (no final snapshot — a simulated SIGKILL), and `--resume`
/// recovers from the state directory and continues, extending the trace
/// to bytes identical with an uninterrupted run.
fn sim_run_persisted(
    opts: &Options,
    mix: MixKind,
    policy: PolicyKind,
    n_apps: usize,
    periods: u32,
) -> Result<(), String> {
    let seed: u64 = opts.number("seed", copart_core::CoPartParams::default().seed)?;
    let scenario = Scenario::new(mix, n_apps, policy, seed, parse_faults(opts)?)?;
    let state_dir = PathBuf::from(opts.required("state-dir")?);
    std::fs::create_dir_all(&state_dir)
        .map_err(|e| format!("cannot create state dir {}: {e}", state_dir.display()))?;

    let epochs: u64 = opts.number("epochs", u64::from(periods))?;
    if epochs == 0 {
        return Err("--epochs must be positive".into());
    }
    let snapshot_every: u64 = opts.number("snapshot-every", 16u64)?;
    let kill_at: Option<u64> = opts
        .get("kill-at-epoch")
        .map(|s| {
            s.parse::<u64>()
                .map_err(|_| format!("option --kill-at-epoch: cannot parse {s:?}"))
        })
        .transpose()?;
    let trace_path = opts
        .get("trace-out")
        .map(PathBuf::from)
        .unwrap_or_else(|| state_dir.join("trace.jsonl"));

    let outcome = harness_run(
        &scenario,
        epochs,
        kill_at,
        &state_dir,
        snapshot_every,
        &trace_path,
        opts.flag("resume"),
        &[],
    )?;
    if outcome.killed {
        outln!(
            "killed at epoch {} of {epochs}; state in {} (rerun with --resume to finish)",
            outcome.epochs_done,
            state_dir.display()
        );
    } else {
        outln!(
            "run complete: {} epochs, trace {}, state {}",
            outcome.epochs_done,
            trace_path.display(),
            state_dir.display()
        );
    }
    if opts.flag("metrics") {
        outln!("\nmetrics:");
        out!("{}", outcome.metrics);
    }
    Ok(())
}

/// The `--apps 7..4096` path of `sim-run`: no machine fits that many
/// CLOS groups, so the planner runs solo over a deterministic synthetic
/// population (see `copart_core::scale`), reporting per-epoch planning
/// latency against the paper's ~1 ms epoch budget.
fn planner_scale(opts: &Options, n_apps: usize, epochs: u32) -> Result<(), String> {
    let seed: u64 = opts.number("seed", copart_core::CoPartParams::default().seed)?;
    let churn: f64 = opts.number("churn", 0.02f64)?;
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be within [0, 1]".into());
    }
    let population = match opts.get("population").unwrap_or("uniform") {
        "uniform" => ScalePopulation::Uniform,
        "fleet" => ScalePopulation::FleetMix,
        other => return Err(format!("unknown population {other:?} (uniform or fleet)")),
    };
    let cfg = ScaleConfig {
        churn,
        population,
        ..ScaleConfig::new(n_apps, epochs, seed)
    };
    outln!(
        "planner-scale run: {n_apps} synthetic apps ({} population), {epochs} epochs, seed {seed:#x}",
        match population {
            ScalePopulation::Uniform => "uniform",
            ScalePopulation::FleetMix => "zipf fleet-mix",
        }
    );
    let r = run_planner_scale(&cfg);
    outln!(
        "  decisions: {} transfers, {} θ-retries, {} converges",
        r.transfers,
        r.theta_retries,
        r.converges
    );
    outln!("  matching rounds: {}", r.matching_rounds);
    outln!(
        "  plan latency: p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms (budget ~1 ms/epoch)",
        r.plan_ns_p50 as f64 / 1e6,
        r.plan_ns_p99 as f64 / 1e6,
        r.plan_ns_max as f64 / 1e6
    );
    outln!(
        "  role cache: {} hits, {} misses",
        r.role_cache_hits,
        r.role_cache_misses
    );
    outln!("  decision digest: {:#018x}", r.digest);
    Ok(())
}

/// The dynamic-policy path of a one-shot `sim-run`: the scenario is
/// launched exactly as `--state-dir` and `serve` launch it (simulator
/// behind the fault decorator, transparent without `--faults`), then
/// measured while it adapts. Ground truth is read from under the
/// decorator so the fairness measurement stays exact even when the
/// controller's own view is degraded.
fn run_dynamic(
    opts: &Options,
    mix: MixKind,
    n_apps: usize,
    policy: PolicyKind,
    full: &[f64],
    eval: &EvalOptions,
) -> Result<EvalResult, String> {
    let scenario = Scenario::new(mix, n_apps, policy, eval.seed, parse_faults(opts)?)?;
    let trace_out = opts.get("trace-out");
    let recorder: Box<dyn Recorder + Send> = match trace_out {
        Some(path) => {
            Box::new(JsonlRecorder::create(path).map_err(|e| format!("cannot create {path}: {e}"))?)
        }
        // Metrics are collected by the runtime unconditionally; no
        // recorder needed when only --metrics was asked for.
        None => Box::new(NullRecorder),
    };
    let runtime = scenario.launch(&scenario.env(), recorder)?;
    let groups: Vec<ClosId> = runtime.apps().iter().map(|a| a.group).collect();
    let (r, mut runtime) =
        policies::evaluate_runtime_traced(runtime, &groups, full, policy, eval, |b, g| {
            b.inner_mut().read_counters(g).expect("group is live")
        })
        .map_err(|e| format!("consolidation run failed: {e}"))?;
    runtime
        .recorder_mut()
        .flush()
        .map_err(|e| format!("flushing trace: {e}"))?;
    if let Some(path) = trace_out {
        eprintln!("trace written to {path}");
    }
    if scenario.faults.is_some() {
        let stats = runtime.backend().stats();
        eprintln!(
            "faults injected: {} (dropouts {}, CAT writes {}, MBA writes {}, vanishes {}, clock stalls {})",
            stats.total(),
            stats.dropouts,
            stats.cbm_write_faults,
            stats.mba_write_faults,
            stats.vanishes,
            stats.clock_stalls
        );
    }
    if opts.flag("metrics") {
        outln!("\nmetrics:");
        out!("{}", runtime.metrics_snapshot());
    }
    Ok(r)
}

/// `copart trace-check`: validate a JSONL decision trace — it must
/// parse and hold [`copart_telemetry::check_trace`]'s invariants (epoch
/// numbers gapless from 0, time never rewinding), here for trace files
/// any run wrote.
pub fn trace_check(opts: &Options) -> Result<(), String> {
    let path = opts.required("path")?;
    let min_events: usize = opts.number("min-events", 1usize)?;
    let events = copart_telemetry::read_trace_file(path)
        .map_err(|e| format!("{path}: trace does not parse: {e}"))?;
    if events.len() < min_events {
        return Err(format!(
            "{path}: only {} events, expected at least {min_events}",
            events.len()
        ));
    }
    let (n, profiled) =
        copart_telemetry::check_trace(&events).map_err(|e| format!("{path}: {e}"))?;
    if let Some(reference) = opts.get("reference") {
        check_reference(path, reference)?;
    }
    outln!(
        "{path}: OK — {n} events, epochs 0..{} gapless, {profiled} profiling probes",
        n.saturating_sub(1),
    );
    Ok(())
}

/// The `--reference` mode of `trace-check`: the trace must be
/// byte-identical to a known-good trace — the determinism contract a
/// recovered run is held to (`tests/recovery.rs` diffs a kill/resume
/// trace against its uninterrupted reference with this).
pub(crate) fn check_reference(path: &str, reference: &str) -> Result<(), String> {
    let got = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let want = std::fs::read(reference).map_err(|e| format!("{reference}: {e}"))?;
    if got == want {
        outln!(
            "{path}: byte-identical to reference {reference} ({} bytes)",
            got.len()
        );
        return Ok(());
    }
    let got_lines: Vec<&[u8]> = got.split(|&b| b == b'\n').collect();
    let want_lines: Vec<&[u8]> = want.split(|&b| b == b'\n').collect();
    let line = got_lines
        .iter()
        .zip(want_lines.iter())
        .position(|(a, b)| a != b)
        .unwrap_or(got_lines.len().min(want_lines.len()));
    Err(format!(
        "{path}: differs from reference {reference} at line {} ({} vs {} bytes)",
        line + 1,
        got.len(),
        want.len()
    ))
}

/// `copart classify`: the §3.3 probes for one benchmark.
pub fn classify(opts: &Options) -> Result<(), String> {
    let bench = Benchmark::from_short(opts.required("bench")?)?;
    let machine = MachineConfig::xeon_gold_6130();
    let spec = bench.spec();
    eprintln!("probing {} (solo, 4 threads)...", spec.name);
    let (llc_deg, bw_deg) = measure::degradations(&machine, &spec);
    let category = measure::classify(&machine, &spec);
    let (ips, rates) = measure::measure_full(&machine, &spec);
    outln!("benchmark {} ({})", bench.table2().short, spec.name);
    outln!(
        "  category:        {category} (paper: {})",
        bench.category()
    );
    outln!("  IPS (full):      {ips:.3e}");
    outln!("  LLC accesses/s:  {:.3e}", rates.llc_accesses_per_sec);
    outln!("  LLC misses/s:    {:.3e}", rates.llc_misses_per_sec);
    outln!("  LLC degradation (11→1 ways):    {:.1}%", llc_deg * 100.0);
    outln!("  BW degradation (100%→10% MBA):  {:.1}%", bw_deg * 100.0);
    if let Some(w) = measure::required_ways(&machine, &spec, 0.9) {
        outln!("  ways for 90% of full perf:      {w}");
    }
    if let Some(l) = measure::required_mba(&machine, &spec, 0.9) {
        outln!("  MBA level for 90% of full perf: {l}");
    }
    Ok(())
}
