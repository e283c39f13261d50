//! The traced `fleet_churn`. The fleet controller owns its nodes'
//! backends, so nothing inside it can be decorated from here: the run
//! is one span, read through its outcome, and the pieces a fleet epoch
//! is made of — placement, the migration ticket, the fault decorator
//! every node sits behind, profiling at admission — are driven alone.

use crate::cx::Cx;
use crate::node;
use crate::timing::{once_ns, per_call_ns};
use bench_harness::spec::{FLEET_SEED, JOBS};
use bench_harness::stats;
use bench_harness::surfaces::node_epochs;
use copart_core::NodeRuntime;
use copart_faults::{FaultPlan, FaultyBackend};
use copart_fleet::{
    check_fleet_trace, run_fleet, Demand, FleetConfig, MigrationTicket, PlacementEngine,
    RebalanceConfig,
};
use copart_rdt::{ClosId, MbaLevel, RdtBackend, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::{Benchmark, MixKind, WorkloadMix};
use std::hint::black_box;
use std::time::Duration;

/// The fleet run, the jobs-1-over-jobs-2 speed-up, and the drives.
pub fn fleet_churn(cx: &mut Cx) {
    let log = cx.log.clone();
    copart_parallel::set_jobs(Some(JOBS));
    let cfg = if cx.quick {
        FleetConfig {
            horizon: 8,
            ..FleetConfig::new(8, 30, FLEET_SEED)
        }
    } else {
        // `fleet-run --nodes 64 --apps 500 --epochs 48 --seed 1001 --jobs 2`.
        FleetConfig::new(64, 500, FLEET_SEED)
    };
    let (wall_ns, outcome) = log.time("fleet.run", || once_ns(|| run_fleet(&cfg)));
    let outcome = outcome.expect("the fleet shape is valid");
    let work = node_epochs(&outcome.trace).unwrap_or(0.0);
    cx.report
        .check(check_fleet_trace(&outcome.trace).is_ok(), || {
            "the fleet trace fails its structural check".to_string()
        });
    cx.put("fleet.node_epochs", work, 1);
    cx.put(
        "fleet.ns_per_node_epoch",
        wall_ns / work.max(1.0),
        work as usize,
    );
    let agg = &outcome.aggregator;
    cx.put("fleet.placements", agg.placements as f64, 1);
    cx.put("fleet.migrations", agg.migrations as f64, 1);
    cx.put("fleet.node_boots", agg.node_boots as f64, 1);
    cx.put("fleet.deferrals", agg.deferrals as f64, 1);

    // Each epoch waits for its slowest node, so a booting or admitting
    // node sets the barrier: the speed-up on two workers stays under 2.
    // Aggressive rebalancing so this smaller fleet migrates and leaves a
    // ticket for the drive below.
    let small = {
        let (nodes, apps, horizon) = if cx.quick { (8, 40, 12) } else { (16, 120, 24) };
        FleetConfig {
            horizon,
            rebalance: RebalanceConfig {
                threshold: 0.005,
                patience: 1,
                ..RebalanceConfig::default()
            },
            ..FleetConfig::new(nodes, apps, FLEET_SEED)
        }
    };
    let timed = |jobs: usize| {
        copart_parallel::set_jobs(Some(jobs));
        let (ns, outcome) = once_ns(|| run_fleet(&small));
        (ns, outcome.expect("the fleet shape is valid"))
    };
    let (serial_ns, serial) = log.time("fleet.run_jobs1", || timed(1));
    let (pair_ns, pair) = log.time("fleet.run_jobs2", || timed(JOBS));
    cx.report.check(
        serial.trace == pair.trace && serial.tickets == pair.tickets,
        || "fleet trace or tickets differ between --jobs 1 and --jobs 2".to_string(),
    );
    cx.put("fleet.speedup_jobs2", serial_ns / pair_ns, 1);

    // Admission profiles the node it lands on. Most fleet nodes hold one
    // tenant, so: the mean cost of launching a single-tenant node over
    // the Table-2 benchmarks, and the share of the fleet's wall the run's
    // placements would account for at that cost on two workers if nothing
    // overlapped (an estimate, not a measurement).
    let machine = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::compute(&machine, 4);
    let launches: Vec<f64> = Benchmark::all()
        .iter()
        .map(|bench| {
            let backend = SimBackend::new(Machine::new(machine.clone()));
            let specs = [bench.spec_with_cores(4)];
            let cfg = node::copart_config(&machine, &stream);
            let (ns, node) = log.time("core.profile", || {
                once_ns(|| NodeRuntime::launch(backend, &specs, cfg, 1))
            });
            node.expect("a single tenant fits and profiles");
            ns
        })
        .collect();
    let profile_ns = stats::mean(&launches).expect("Table 2 is not empty");
    cx.put("core.profile_ns", profile_ns, launches.len());
    cx.put(
        "fleet.est_admission_share",
        agg.placements as f64 * profile_ns / (JOBS as f64 * wall_ns),
        1,
    );
    let spans = log.take();
    cx.absorb(spans);

    drives(cx, &machine, pair.tickets.first());
}

fn drives(cx: &mut Cx, machine: &MachineConfig, ticket_line: Option<&String>) {
    let budget = Duration::from_millis(if cx.quick { 20 } else { 100 });

    // Place + commit a full 64 x 4 fleet, one tenant per call.
    let benches = Benchmark::all();
    let (nodes, capacity) = (64usize, 4u32);
    let mut engine = PlacementEngine::new(nodes, capacity);
    let (mut k, mut placed) = (0usize, 0usize);
    let (ns, batches) = per_call_ns(budget, || {
        if placed == nodes * capacity as usize {
            engine = PlacementEngine::new(nodes, capacity);
            placed = 0;
        }
        let demand = Demand::of(benches[k % benches.len()]);
        k += 1;
        let node = engine.place(demand).expect("the fleet has a free slot");
        engine.commit(node, demand);
        placed += 1;
    });
    cx.put("fleet.place_ns", ns, batches);

    // A ticket's whole wire trip: encode, render, parse, digest.
    match ticket_line.map(|l| MigrationTicket::parse_json_line(l)) {
        Some(Ok(ticket)) => {
            let (ns, batches) = per_call_ns(budget, || {
                let line = black_box(&ticket).to_json_line();
                let back = MigrationTicket::parse_json_line(&line).expect("a ticket parses back");
                black_box(back.digest());
            });
            cx.put("fleet.ticket_roundtrip_ns", ns, batches);
        }
        Some(Err(e)) => cx.report.check(false, || {
            format!("the run's own ticket does not parse: {e}")
        }),
        // No migration fired at this seed; the metric reads 0.
        None => cx
            .report
            .note("no migration ticket at this seed".to_string()),
    }

    // One epoch's worth of backend calls other than `advance` (4 counter
    // reads, 4 CAT + 4 MBA writes) through the fault decorator with the
    // empty plan, minus the same calls on the bare simulator.
    let specs = WorkloadMix::build(MixKind::HighBoth, 4, machine.n_cores).specs();
    let ways = machine.llc_ways;
    fn calls<B: RdtBackend>(backend: &mut B, groups: &[ClosId], ways: u32) {
        for (i, &g) in groups.iter().enumerate() {
            black_box(backend.read_counters(g).expect("group is live"));
            let mask = copart_rdt::CbmMask::contiguous(i as u32 * 2, 2, ways).expect("mask fits");
            backend.set_cbm(g, mask).expect("group is live");
            backend.set_mba(g, MbaLevel::MAX).expect("group is live");
        }
    }
    let (mut bare, named) = node::boot(machine, &specs);
    let groups: Vec<ClosId> = named.iter().map(|(g, _)| *g).collect();
    let (bare_ns, _) = per_call_ns(budget, || calls(&mut bare, &groups, ways));
    let (inner, _) = node::boot(machine, &specs);
    let mut faulty = FaultyBackend::new(inner, FaultPlan::none());
    let (faulty_ns, batches) = per_call_ns(budget, || calls(&mut faulty, &groups, ways));
    cx.put("faults.none_overhead_ns", faulty_ns - bare_ns, batches);
}
