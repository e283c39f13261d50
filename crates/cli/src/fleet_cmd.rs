//! `copart fleet-run` — drive a multi-node fleet on the simulated
//! testbed: N per-node CoPart runtimes under one deterministic
//! controller (placement, rebalancing migrations, fleet-wide metrics).

use std::path::PathBuf;

use copart_faults::ScopedFaultPlan;
use copart_fleet::{check_fleet_trace, run_fleet, FleetConfig};

use crate::args::Options;

/// `copart fleet-run`: one fleet consolidation run.
pub fn fleet_run(opts: &Options) -> Result<(), String> {
    let nodes: usize = opts.number("nodes", 4usize)?;
    let apps: u64 = opts.number("apps", 16u64)?;
    let seed: u64 = opts.number("seed", 42u64)?;
    let mut cfg = FleetConfig::new(nodes, apps, seed);
    cfg.horizon = opts.number("epochs", cfg.horizon)?;
    cfg.capacity = opts.number("capacity", cfg.capacity)?;
    cfg.rebalance.threshold = opts.number("rebalance-threshold", cfg.rebalance.threshold)?;
    cfg.rebalance.patience = opts.number("rebalance-patience", cfg.rebalance.patience)?;
    cfg.faults = opts
        .get("faults")
        .map(|spec| ScopedFaultPlan::parse(spec).map_err(|e| format!("option --faults: {e}")))
        .transpose()?;
    cfg.state_dir = opts.get("state-dir").map(PathBuf::from);
    if let Some(dir) = &cfg.state_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create state dir {}: {e}", dir.display()))?;
    }
    opts.apply_jobs()?;

    let out = run_fleet(&cfg)?;

    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, &out.trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("fleet trace written to {path}");
    }
    if let Some(path) = opts.get("tickets-out") {
        let mut body = out.tickets.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("migration tickets written to {path}");
    }

    let stats = check_fleet_trace(&out.trace)
        .map_err(|e| format!("fleet trace failed its own checker: {e}"))?;
    let agg = &out.aggregator;
    outln!(
        "fleet run: {nodes} nodes × capacity {}, {apps} tenants, {} epochs, seed {seed:#x}",
        cfg.capacity,
        cfg.horizon
    );
    outln!(
        "  placements: {} ({} deferrals), departures: {}, migrations: {}",
        agg.placements,
        agg.deferrals,
        agg.departures,
        agg.migrations
    );
    outln!(
        "  node boots: {}, teardowns: {}, final active nodes: {} running {} apps",
        agg.node_boots,
        agg.node_teardowns,
        agg.active_nodes(),
        agg.running_apps()
    );
    outln!(
        "  unfairness (per-node CoV of slowdowns): p50 {:.4}, p99 {:.4}, max {:.4}",
        agg.unfairness.p50,
        agg.unfairness.p99,
        agg.unfairness.max
    );
    outln!(
        "  slowdown: p50 {:.3}, p99 {:.3}, max {:.3}",
        agg.slowdown.p50,
        agg.slowdown.p99,
        agg.slowdown.max
    );
    outln!(
        "  trace: {} events over {} epochs",
        stats.events,
        stats.epochs
    );
    if out.snapshots_written > 0 {
        outln!(
            "  state: {} node snapshots in {}",
            out.snapshots_written,
            cfg.state_dir
                .as_deref()
                .unwrap_or(std::path::Path::new("?"))
                .display()
        );
    }
    if opts.flag("metrics") {
        outln!("\nmetrics:");
        outln!("{}", out.metrics_json);
    }
    Ok(())
}

/// The `--fleet` mode of `copart trace-check`: structural validation of
/// a fleet JSONL trace by full occupancy replay (see
/// [`copart_fleet::check_fleet_trace`]).
pub fn fleet_trace_check(opts: &Options) -> Result<(), String> {
    let path = opts.required("path")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read trace: {e}"))?;
    let stats = check_fleet_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let min_events: usize = opts.number("min-events", 1usize)?;
    if stats.events < min_events {
        return Err(format!(
            "{path}: only {} events, expected at least {min_events}",
            stats.events
        ));
    }
    if let Some(reference) = opts.get("reference") {
        crate::sim_cmd::check_reference(path, reference)?;
    }
    outln!(
        "{path}: OK — {} events, {} epochs, {} placements, {} departures, {} migrations, {} deferrals",
        stats.events, stats.epochs, stats.placements, stats.departures, stats.migrations,
        stats.deferrals
    );
    Ok(())
}
