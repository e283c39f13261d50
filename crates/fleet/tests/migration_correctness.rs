//! Migration correctness: what leaves the source is what the audit
//! trail says, and arriving via migration is indistinguishable from
//! having been admitted directly.
//!
//! Two layers:
//!
//! * At the [`NodeRuntime`] seam, a hand-driven migration (snapshot →
//!   ticket → evict → admit at the destination) must produce a
//!   destination trace byte-identical to a reference node that admitted
//!   the same tenant directly at the same point in its history, and the
//!   ticket must round-trip the tenant's controller state bit-exactly.
//! * At the fleet level, every migration event's digest must match the
//!   recomputed digest of the ticket in the audit trail, and the ticket
//!   must survive a JSONL round trip unchanged.

use copart_core::runtime::RuntimeConfig;
use copart_core::{CoPartParams, NodeRuntime, WaysBudget};
use copart_fleet::{run_fleet, FleetConfig, FleetEvent, MigrationTicket};
use copart_rdt::SimBackend;
use copart_sim::{Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::Benchmark;

fn node_cfg(machine: &MachineConfig, seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        params: CoPartParams {
            seed,
            ..CoPartParams::default()
        },
        manage_llc: true,
        manage_mba: true,
        budget: WaysBudget::full_machine(machine.llc_ways),
        stream: StreamReference::compute(machine, 1),
        planner: Default::default(),
    }
}

fn launch(machine: &MachineConfig, benches: &[Benchmark], seed: u64) -> NodeRuntime<SimBackend> {
    let specs: Vec<_> = benches
        .iter()
        .map(|b| {
            let mut s = b.spec_with_cores(1);
            s.name = format!("{}-solo", b.table2().short);
            s
        })
        .collect();
    let backend = SimBackend::new(Machine::new(machine.clone()));
    NodeRuntime::launch(backend, &specs, node_cfg(machine, seed), 1).unwrap()
}

fn step_trace(node: &mut NodeRuntime<SimBackend>, periods: usize) -> Vec<String> {
    (0..periods)
        .map(|_| format!("{:?}", node.runtime_mut().run_period().unwrap()))
        .collect()
}

#[test]
fn migrated_state_is_bit_exact_and_destination_matches_direct_admission() {
    let machine = MachineConfig::tiny_test();

    // Source node: two tenants, warmed up for a few periods.
    let mut source = launch(
        &machine,
        &[Benchmark::WaterNsquared, Benchmark::Swaptions],
        7,
    );
    step_trace(&mut source, 6);
    let victim = source.runtime().apps()[0].group;
    let state = source
        .snapshot()
        .apps
        .into_iter()
        .find(|a| a.group == victim.0)
        .expect("victim is under management");

    // The wire format preserves the captured state bit-exactly.
    let ticket = MigrationTicket {
        app: 0,
        epoch: 6,
        from: 0,
        to: 1,
        state: state.clone(),
    };
    let back = MigrationTicket::parse_json_line(&ticket.to_json_line()).unwrap();
    assert_eq!(back.state, state, "codec round trip must be lossless");
    assert_eq!(
        back.state.last_ips.to_bits(),
        state.last_ips.to_bits(),
        "floats travel as bits, not decimal approximations"
    );
    assert_eq!(back.digest(), ticket.digest());
    source.evict(victim).unwrap();

    // Destination node receiving the migrated tenant through the normal
    // admission path...
    let mut dest = launch(&machine, &[Benchmark::Ep], 9);
    step_trace(&mut dest, 6);
    let mut spec = Benchmark::WaterNsquared.spec_with_cores(1);
    spec.name = "WN-moved".to_string();
    dest.admit(spec, "WN-moved".to_string()).unwrap();
    let migrated_trace = step_trace(&mut dest, 8);

    // ...is byte-identical to a reference node that admitted the tenant
    // directly at the same point in an identical history.
    let mut reference = launch(&machine, &[Benchmark::Ep], 9);
    step_trace(&mut reference, 6);
    let mut spec = Benchmark::WaterNsquared.spec_with_cores(1);
    spec.name = "WN-moved".to_string();
    reference.admit(spec, "WN-moved".to_string()).unwrap();
    let direct_trace = step_trace(&mut reference, 8);

    assert_eq!(
        migrated_trace, direct_trace,
        "migration delivery must be indistinguishable from direct admission"
    );

    // The source keeps running consistently with one tenant gone.
    let record = source.runtime_mut().run_period().unwrap();
    assert_eq!(record.apps.len(), 1);
}

/// PR 10 bugfix pin: node snapshots carry their *true* derived seeds
/// end-to-end. The master seed sits above 2⁵³, so every derived value
/// (and the master itself) would be corrupted by the old JSON-number
/// encoding — the hex seed codec is load-bearing here.
#[test]
fn state_dir_snapshots_carry_true_derived_seeds_beyond_2_pow_53() {
    let master = (1u64 << 53) + 4099;
    let dir = std::env::temp_dir().join(format!("copart-fleet-big-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = FleetConfig::new(3, 8, master);
    cfg.horizon = 12;
    cfg.state_dir = Some(dir.clone());
    let out = run_fleet(&cfg).unwrap();
    assert!(out.snapshots_written > 0, "at least one node stayed live");
    for id in 0..3u64 {
        let node_dir = dir.join(format!("node-{id:04}"));
        if !node_dir.exists() {
            continue;
        }
        let (doc, _) = copart_persist::latest_good(&node_dir)
            .unwrap()
            .expect("live node has a snapshot");
        let expect = copart_rng::derive_seed(master, id);
        assert_eq!(
            doc.meta.seed, expect,
            "node {id} must persist its derived seed bit-exactly"
        );
        assert_ne!(doc.meta.seed, master, "no master-seed workaround");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_migrations_carry_verifiable_tickets() {
    let mut cfg = FleetConfig::new(6, 30, 97);
    cfg.horizon = 24;
    // Aggressive rebalancing so churn reliably triggers migrations.
    cfg.rebalance.threshold = 0.005;
    cfg.rebalance.patience = 1;
    cfg.rebalance.cooldown = 2;
    let out = run_fleet(&cfg).unwrap();
    assert!(
        out.aggregator.migrations >= 1,
        "expected at least one migration, got metrics {}",
        out.metrics_json
    );
    assert_eq!(out.tickets.len() as u64, out.aggregator.migrations);

    // Pair every migration event with its audit ticket, in order.
    let events: Vec<FleetEvent> = out
        .trace
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| FleetEvent::parse_json_line(l).unwrap())
        .collect();
    let migrations: Vec<&FleetEvent> = events
        .iter()
        .filter(|e| matches!(e, FleetEvent::Migration { .. }))
        .collect();
    assert_eq!(migrations.len(), out.tickets.len());
    for (event, line) in migrations.iter().zip(&out.tickets) {
        let ticket = MigrationTicket::parse_json_line(line).unwrap();
        let FleetEvent::Migration {
            app,
            from,
            to,
            digest,
            epoch,
        } = event
        else {
            unreachable!("filtered to migrations");
        };
        assert_eq!(ticket.app, *app);
        assert_eq!(ticket.from, *from);
        assert_eq!(ticket.to, *to);
        assert_eq!(ticket.epoch, *epoch);
        assert_eq!(
            ticket.digest(),
            *digest,
            "trace digest must match the ticket that actually moved"
        );
        assert_eq!(
            MigrationTicket::parse_json_line(&ticket.to_json_line()).unwrap(),
            ticket,
            "ticket round trip is lossless"
        );
    }
}
