//! Daemon commands: `copart serve` (the always-on control daemon) and
//! `copart load` (the API load generator).

use copart_faults::FaultPlan;
use copart_persist::{parse_dynamic_policy, Scenario};
use copart_serve::loadgen::{self, LoadConfig};
use copart_serve::ServeConfig;
use std::time::Duration;

use crate::args::Options;
use crate::sim_cmd::parse_mix;

/// `copart serve`: boot the daemon and block until `POST /shutdown`.
pub fn serve(opts: &Options) -> Result<(), String> {
    let mix = parse_mix(opts.get("mix").unwrap_or("h-both"))?;
    let policy = parse_dynamic_policy(opts.get("policy").unwrap_or("copart"))?;
    let n_apps: usize = opts.number("apps", 4usize)?;
    let seed: u64 = opts.number("seed", 42u64)?;
    let faults = opts
        .get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| format!("option --faults: {e}")))
        .transpose()?;
    let scenario = Scenario::new(mix, n_apps, policy, seed, faults)?;

    let port: u16 = opts.number("port", 0u16)?;
    let tick_ms: u64 = opts.number("tick-ms", 25u64)?;
    let epochs: u64 = opts.number("epochs", 0u64)?;
    let cfg = ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        tick: Duration::from_millis(tick_ms),
        max_epochs: (epochs > 0).then_some(epochs),
        trace_dir: opts.get("trace-dir").map(Into::into),
        state_dir: opts.get("state-dir").map(Into::into),
        snapshot_every: opts.number("snapshot-every", ServeConfig::default().snapshot_every)?,
        ..ServeConfig::default()
    };

    eprintln!(
        "booting: mix {} × {n_apps} apps, policy {}, seed {seed} (profiling...)",
        mix.label(),
        policy.label()
    );
    let handle = copart_serve::serve_scenario(&scenario, cfg)?;
    // scripts/loadtest.sh parses this line for the ephemeral port.
    outln!("copart serve listening on http://{}", handle.addr());
    let report = handle.join();
    let misses = report.snapshot.counter("epoch_deadline_misses");
    outln!(
        "copart serve drained: {} epochs, {} requests served, {} deadline misses",
        report.epochs,
        report.snapshot.counter("http_requests"),
        misses
    );
    Ok(())
}

/// `copart load`: hammer a daemon's read API and report what came back.
pub fn load(opts: &Options) -> Result<(), String> {
    let addr = opts.required("addr")?;
    let cfg = LoadConfig {
        requests: opts.number("requests", 10_000u64)?,
        concurrency: opts.number("concurrency", 8usize)?,
    };
    if cfg.requests == 0 {
        return Err("--requests must be positive".into());
    }
    let started = std::time::Instant::now();
    let report = loadgen::run(addr, &cfg)?;
    let elapsed = started.elapsed();
    let rate = report.sent as f64 / elapsed.as_secs_f64().max(1e-9);
    outln!(
        "sent {} requests over {} connections in {:.2}s ({rate:.0} req/s): {} 2xx, {} failures",
        report.sent,
        cfg.concurrency,
        elapsed.as_secs_f64(),
        report.ok2xx,
        report.failures
    );
    // The daemon's own view: did the control loop hold its epoch grid?
    match loadgen::fetch(addr, "GET", "/metrics", "") {
        Ok((200, body)) => {
            let misses = body
                .lines()
                .find_map(|l| l.strip_prefix("copart_epoch_deadline_misses_total "))
                .unwrap_or("?");
            outln!("daemon epoch deadline misses: {misses}");
        }
        Ok((status, _)) => outln!("daemon /metrics answered {status}"),
        Err(e) => outln!("daemon /metrics unreachable after the run: {e}"),
    }
    if report.failures > 0 {
        return Err(format!(
            "{} of {} requests failed",
            report.failures, report.sent
        ));
    }
    Ok(())
}
