//! The fleet controller: N per-node CoPart runtimes, one deterministic
//! epoch loop.
//!
//! Each fleet epoch runs four phases:
//!
//! 1. **Departures** (serial, node-id order): tenants whose placed
//!    residence expired are evicted; the last tenant out tears the node
//!    down.
//! 2. **Rebalancing** (serial, at most one migration per epoch): the
//!    lowest-id node whose unfairness EWMA has been above threshold for
//!    `patience` consecutive epochs gives up its slowest tenant. The
//!    tenant's controller state is captured as a [`MigrationTicket`]
//!    (the PR-8 snapshot codec is the wire format), the tenant is
//!    evicted, and delivery is queued on the best destination the
//!    placement engine offers.
//! 3. **Placement** (serial): previously deferred tenants retry FIFO,
//!    then the epoch's arrivals from the churn tape are placed by
//!    sensitivity class + occupancy ([`PlacementEngine`]).
//! 4. **Node epochs** (parallel): every node applies its queued
//!    admissions (booting if empty) and steps one adaptation period,
//!    fanned out over the `copart-parallel` pool. All cross-node
//!    decisions were fixed in phases 1–3, every node owns disjoint
//!    state, and results are reassembled in node-id order — so the
//!    fleet trace is byte-identical at any `--jobs` setting.
//!
//! A serial post-pass folds the epoch into the
//! [`FleetAggregator`] and the JSONL fleet trace. A node whose
//! adaptation period fails outright (possible only under injected
//! faults that outlast the resilience retries) is *retired*: its
//! tenants re-enter the admission queue with their remaining service,
//! modelling a node crash plus rescheduling rather than aborting the
//! fleet.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Mutex;

use copart_core::policies::{dynamic_runtime_config, PolicyKind};
use copart_core::runtime::{PeriodRecord, Phase, RuntimeConfig};
use copart_core::{CoPartParams, NodeRuntime};
use copart_faults::{FaultPlan, FaultyBackend, ScopedFaultPlan};
use copart_persist::{
    write_snapshot, MetricsFrozen, PersistableBackend, SnapshotDoc, SnapshotMeta,
};
use copart_rdt::{ClosId, SimBackend};
use copart_rng::derive_seed;
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::{FleetAggregator, NodeGauges};
use copart_workloads::fleet::churn_tape;
use copart_workloads::stream::StreamReference;
use copart_workloads::Benchmark;

use crate::migration::MigrationTicket;
use crate::placement::{Demand, PlacementEngine};
use crate::trace::FleetEvent;

/// Cores each tenant is pinned to. Fleet nodes are the paper's
/// calibrated Xeon Gold 6130 machines, and tenants are the calibrated
/// 4-core benchmark models — so a node hosts up to four, exactly the
/// consolidation density of the paper's 4-app mixes.
const APP_CORES: u32 = 4;

/// The backend every fleet node runs: the simulator behind the fault
/// decorator. Out-of-scope nodes get [`FaultPlan::none`], which is
/// byte-transparent, so the node type is uniform fleet-wide.
pub type FleetBackend = FaultyBackend<SimBackend>;

/// Rebalancer tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// EWMA smoothing factor for per-node unfairness.
    pub alpha: f64,
    /// EWMA level above which a node counts as hot.
    pub threshold: f64,
    /// Consecutive hot epochs before a migration fires.
    pub patience: u32,
    /// Epochs a migration's source and destination sit out afterwards.
    pub cooldown: u32,
}

impl Default for RebalanceConfig {
    fn default() -> RebalanceConfig {
        // Tuned against the simulator's post-convergence unfairness on
        // consolidated Xeon nodes: CoPart itself holds per-node
        // unfairness near 0.01–0.03, with bad mixes sustaining 0.05+.
        // The threshold sits just above the converged band so only
        // mixes partitioning cannot fix trigger a migration.
        RebalanceConfig {
            alpha: 0.5,
            threshold: 0.025,
            patience: 2,
            cooldown: 4,
        }
    }
}

/// A fleet run's full configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Tenants on the churn tape.
    pub apps: u64,
    /// Fleet epochs to drive.
    pub horizon: u64,
    /// Master seed (tape, per-node controller seeds, fault streams).
    pub seed: u64,
    /// Tenants per node (defaults to the paper's 4-app density).
    pub capacity: u32,
    /// Profiling retry budget per admission (matters under faults).
    pub profile_attempts: u32,
    /// Optional fault plan with per-node scoping.
    pub faults: Option<ScopedFaultPlan>,
    /// Rebalancer tuning.
    pub rebalance: RebalanceConfig,
    /// When set, every live node's snapshot is written here at the end
    /// of the run (`node-NNNN/snap-*.json`, PR-8 format).
    pub state_dir: Option<PathBuf>,
}

impl FleetConfig {
    /// The default fleet shape: `nodes` Xeon nodes, `apps` tenants
    /// churning over 48 epochs.
    pub fn new(nodes: usize, apps: u64, seed: u64) -> FleetConfig {
        FleetConfig {
            nodes,
            apps,
            horizon: 48,
            seed,
            capacity: MachineConfig::xeon_gold_6130().n_cores / APP_CORES,
            profile_attempts: 3,
            faults: None,
            rebalance: RebalanceConfig::default(),
            state_dir: None,
        }
    }
}

/// What a fleet run produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The JSONL fleet trace (config header, events, per-epoch
    /// summaries), newline-terminated.
    pub trace: String,
    /// The fleet metrics aggregate as deterministic JSON.
    pub metrics_json: String,
    /// The aggregator itself, for programmatic inspection.
    pub aggregator: FleetAggregator,
    /// Audit trail: one JSONL [`MigrationTicket`] per migration.
    pub tickets: Vec<String>,
    /// Node snapshots written to `state_dir` (0 when unset).
    pub snapshots_written: u64,
}

/// One tenant resident on a node.
#[derive(Debug, Clone)]
struct Resident {
    app: u64,
    bench: Benchmark,
    group: ClosId,
    /// Placed epochs left before departure.
    remaining: u64,
    slowdown: f64,
}

/// An admission queued for the parallel phase.
#[derive(Debug, Clone)]
struct Pending {
    app: u64,
    bench: Benchmark,
    /// Service epochs the tenant still owes (full lifetime for fresh
    /// arrivals, carried over for migrations and crash reschedules).
    remaining: u64,
    migrated: bool,
}

/// Result of one queued admission, reported from the parallel phase.
#[derive(Debug)]
struct AdmitResult {
    pending: Pending,
    /// `Ok(booted)` or the admission error.
    result: Result<bool, String>,
}

/// What one node did during the parallel phase.
#[derive(Debug, Default)]
struct NodeEpochOutcome {
    admissions: Vec<AdmitResult>,
    /// Tenants lost to a node retirement (step failure under faults),
    /// in residence order.
    crashed: Vec<Pending>,
}

struct FleetNode {
    id: u64,
    runtime: Option<NodeRuntime<FleetBackend>>,
    residents: Vec<Resident>,
    pending: Vec<Pending>,
    unfairness: f64,
    ewma: f64,
    hot: u32,
    cooldown: u32,
    record: PeriodRecord,
}

/// Everything the parallel phase reads, shared immutably across nodes.
struct Shared {
    machine: MachineConfig,
    stream: StreamReference,
    seed: u64,
    profile_attempts: u32,
    faults: Option<ScopedFaultPlan>,
    rebalance: RebalanceConfig,
}

impl Shared {
    fn plan_for(&self, node: u64) -> FaultPlan {
        self.faults
            .as_ref()
            .map_or_else(FaultPlan::none, |s| s.plan_for_node(node))
    }

    /// CoPart's configuration for one node, seeded per node. A node
    /// boots with one tenant, and CoPart's configuration does not depend
    /// on the app count.
    fn node_cfg(&self, node: u64) -> RuntimeConfig {
        let params = CoPartParams {
            seed: derive_seed(self.seed, node),
            ..CoPartParams::default()
        };
        dynamic_runtime_config(&self.machine, 1, &self.stream, PolicyKind::CoPart, &params)
    }
}

fn tenant_name(app: u64, bench: Benchmark) -> String {
    format!("a{app}-{}", bench.table2().short)
}

fn blank_record() -> PeriodRecord {
    PeriodRecord {
        time_ns: 0,
        phase: Phase::Exploring,
        state: Default::default(),
        apps: Vec::new(),
        unfairness: 0.0,
    }
}

/// Applies a node's queued admissions and steps one adaptation period.
/// Runs inside the parallel pool; touches only this node's state.
fn node_epoch(node: &mut FleetNode, shared: &Shared) -> NodeEpochOutcome {
    let mut out = NodeEpochOutcome::default();
    for p in std::mem::take(&mut node.pending) {
        let name = tenant_name(p.app, p.bench);
        let mut spec = p.bench.spec_with_cores(APP_CORES);
        spec.name = name.clone();
        let result = if let Some(rt) = node.runtime.as_mut() {
            rt.admit(spec, name).map(|group| (group, false))
        } else {
            let backend = FaultyBackend::new(
                SimBackend::new(Machine::new(shared.machine.clone())),
                shared.plan_for(node.id),
            );
            NodeRuntime::launch(
                backend,
                std::slice::from_ref(&spec),
                shared.node_cfg(node.id),
                shared.profile_attempts,
            )
            .map(|rt| {
                let group = rt.runtime().apps()[0].group;
                node.runtime = Some(rt);
                (group, true)
            })
        };
        let result = match result {
            Ok((group, booted)) => {
                node.residents.push(Resident {
                    app: p.app,
                    bench: p.bench,
                    group,
                    remaining: p.remaining,
                    slowdown: 0.0,
                });
                Ok(booted)
            }
            Err(e) => Err(e),
        };
        out.admissions.push(AdmitResult { pending: p, result });
    }

    if node.residents.is_empty() {
        node.unfairness = 0.0;
    } else {
        let rt = node.runtime.as_mut().expect("residents imply a runtime");
        match rt.step_into(&mut node.record) {
            Ok(()) => {
                node.unfairness = node.record.unfairness;
                for r in &mut node.residents {
                    r.remaining = r.remaining.saturating_sub(1);
                    let name = tenant_name(r.app, r.bench);
                    if let Some(a) = node.record.apps.iter().find(|a| a.name == name) {
                        r.slowdown = a.slowdown;
                    }
                }
            }
            Err(_) => {
                // Node retirement: the platform refused to advance even
                // through the resilience retries. Drop the runtime and
                // hand every tenant back for rescheduling.
                node.runtime = None;
                node.unfairness = 0.0;
                for r in node.residents.drain(..) {
                    out.crashed.push(Pending {
                        app: r.app,
                        bench: r.bench,
                        remaining: r.remaining,
                        migrated: false,
                    });
                }
            }
        }
    }

    // Rebalancer bookkeeping, last epoch's EWMA folded with this one.
    let rb = &shared.rebalance;
    node.ewma = rb.alpha * node.unfairness + (1.0 - rb.alpha) * node.ewma;
    if node.cooldown > 0 {
        node.cooldown -= 1;
        node.hot = 0;
    } else if node.ewma > rb.threshold && node.residents.len() >= 2 {
        node.hot += 1;
    } else {
        node.hot = 0;
    }
    out
}

/// A staged migration, decided serially and resolved after delivery.
struct StagedMigration {
    app: u64,
    from: u64,
    to: u64,
    digest: u64,
    /// Whether evicting the tenant tore the source down.
    teardown_src: bool,
    ticket_line: String,
}

/// Runs a whole fleet to completion.
///
/// # Errors
///
/// Fails on impossible configurations (zero nodes/capacity) or when
/// writing `state_dir` snapshots fails. Node-level fault damage is
/// handled inside the run (retirement + rescheduling), not surfaced as
/// an error.
///
/// # Panics
///
/// Panics only on internal bookkeeping bugs (a resident without a
/// runtime, an engine commit past capacity).
pub fn run_fleet(cfg: &FleetConfig) -> Result<FleetOutcome, String> {
    if cfg.nodes == 0 {
        return Err("a fleet needs at least one node".to_string());
    }
    if cfg.capacity == 0 || cfg.capacity * APP_CORES > MachineConfig::xeon_gold_6130().n_cores {
        return Err(format!(
            "capacity must be 1..={} tenants per node",
            MachineConfig::xeon_gold_6130().n_cores / APP_CORES
        ));
    }

    let machine = MachineConfig::xeon_gold_6130();
    let shared = Shared {
        stream: StreamReference::for_machine(&machine),
        machine,
        seed: cfg.seed,
        profile_attempts: cfg.profile_attempts.max(1),
        faults: cfg.faults.clone(),
        rebalance: cfg.rebalance,
    };

    let tape = churn_tape(cfg.apps, cfg.horizon, cfg.seed);
    let mut next_arrival = 0usize;
    let mut engine = PlacementEngine::new(cfg.nodes, cfg.capacity);
    let mut deferred: VecDeque<Pending> = VecDeque::new();
    let mut agg = FleetAggregator::new(cfg.nodes);
    let mut tickets: Vec<String> = Vec::new();
    let mut trace: Vec<String> = Vec::new();
    trace.push(
        FleetEvent::Config {
            nodes: cfg.nodes as u64,
            apps: cfg.apps,
            capacity: u64::from(cfg.capacity),
            horizon: cfg.horizon,
            seed: cfg.seed,
        }
        .to_json_line(),
    );

    let nodes: Vec<Mutex<FleetNode>> = (0..cfg.nodes)
        .map(|id| {
            Mutex::new(FleetNode {
                id: id as u64,
                runtime: None,
                residents: Vec::new(),
                pending: Vec::new(),
                unfairness: 0.0,
                ewma: 0.0,
                hot: 0,
                cooldown: 0,
                record: blank_record(),
            })
        })
        .collect();
    let lock = |i: usize| nodes[i].lock().expect("fleet node lock never poisoned");

    for epoch in 0..cfg.horizon {
        // Phase 1 — departures.
        for (id, slot) in nodes.iter().enumerate() {
            let mut node = slot.lock().expect("fleet node lock never poisoned");
            let mut i = 0;
            while i < node.residents.len() {
                if node.residents[i].remaining > 0 {
                    i += 1;
                    continue;
                }
                let r = node.residents[i].clone();
                let rt = node.runtime.as_mut().expect("resident implies runtime");
                if rt.evict(r.group).is_err() {
                    // The platform refused the eviction (faults); the
                    // tenant stays one more epoch and we retry.
                    i += 1;
                    continue;
                }
                node.residents.remove(i);
                let teardown = node.residents.is_empty();
                if teardown {
                    node.runtime = None;
                    agg.node_teardowns += 1;
                }
                engine.release(id, Demand::of(r.bench));
                agg.departures += 1;
                trace.push(
                    FleetEvent::Departure {
                        epoch,
                        app: r.app,
                        node: id as u64,
                        teardown,
                    }
                    .to_json_line(),
                );
            }
        }

        // Phase 2 — rebalancing (at most one migration per epoch).
        let mut staged: Option<StagedMigration> = None;
        let hot_src = (0..cfg.nodes).find(|&i| {
            let node = lock(i);
            node.cooldown == 0 && node.hot >= cfg.rebalance.patience && node.residents.len() >= 2
        });
        if let Some(src) = hot_src {
            let mut node = lock(src);
            // The slowest tenant (first index wins ties) is the one the
            // hot node gives up.
            let victim = node
                .residents
                .iter()
                .enumerate()
                .max_by(|(ia, a), (ib, b)| {
                    a.slowdown
                        .partial_cmp(&b.slowdown)
                        .expect("slowdowns are finite")
                        .then(ib.cmp(ia))
                })
                .map(|(i, _)| i)
                .expect("source has residents");
            let r = node.residents[victim].clone();
            let d = Demand::of(r.bench);
            if let Some(dst) = engine.place_excluding(d, src) {
                let rt = node.runtime.as_mut().expect("resident implies runtime");
                let state = rt
                    .snapshot()
                    .apps
                    .into_iter()
                    .find(|a| a.group == r.group.0);
                let evicted = state.is_some() && rt.evict(r.group).is_ok();
                if let (Some(state), true) = (state, evicted) {
                    node.residents.remove(victim);
                    let teardown_src = node.residents.is_empty();
                    if teardown_src {
                        node.runtime = None;
                        agg.node_teardowns += 1;
                    }
                    node.cooldown = cfg.rebalance.cooldown;
                    node.hot = 0;
                    drop(node);
                    engine.release(src, d);
                    engine.commit(dst, d);
                    let ticket = MigrationTicket {
                        app: r.app,
                        epoch,
                        from: src as u64,
                        to: dst as u64,
                        state,
                    };
                    let digest = ticket.digest();
                    let ticket_line = ticket.to_json_line();
                    let mut dest = lock(dst);
                    dest.cooldown = dest.cooldown.max(cfg.rebalance.cooldown);
                    dest.pending.push(Pending {
                        app: r.app,
                        bench: r.bench,
                        remaining: r.remaining,
                        migrated: true,
                    });
                    drop(dest);
                    staged = Some(StagedMigration {
                        app: r.app,
                        from: src as u64,
                        to: dst as u64,
                        digest,
                        teardown_src,
                        ticket_line,
                    });
                } else {
                    // Snapshot/evict refused under faults: sit out a
                    // cooldown rather than hot-looping.
                    node.cooldown = cfg.rebalance.cooldown;
                    node.hot = 0;
                }
            } else {
                // Fleet has nowhere to put the tenant; try again after
                // a cooldown.
                node.cooldown = cfg.rebalance.cooldown;
                node.hot = 0;
            }
        }

        // Phase 3 — placement: deferred FIFO first, then arrivals.
        let mut queue: Vec<Pending> = deferred.drain(..).collect();
        while next_arrival < tape.len() && tape[next_arrival].arrive == epoch {
            let a = &tape[next_arrival];
            queue.push(Pending {
                app: a.app,
                bench: a.bench,
                remaining: a.lifetime,
                migrated: false,
            });
            next_arrival += 1;
        }
        let mut deferred_events: Vec<u64> = Vec::new();
        for p in queue {
            let d = Demand::of(p.bench);
            match engine.place(d) {
                Some(node) => {
                    engine.commit(node, d);
                    lock(node).pending.push(p);
                }
                None => {
                    deferred_events.push(p.app);
                    agg.deferrals += 1;
                    deferred.push_back(p);
                }
            }
        }

        // Phase 4 — parallel node epochs.
        let mut outcomes: Vec<NodeEpochOutcome> = copart_parallel::par_map(&nodes, |slot| {
            let mut node = slot.lock().expect("fleet node lock never poisoned");
            node_epoch(&mut node, &shared)
        });

        // Post-pass (serial, node-id order): resolve the staged
        // migration first so every occupancy change appears in the
        // trace in the order the checker replays it.
        if let Some(m) = staged {
            let dst_out = &mut outcomes[m.to as usize];
            let delivery = dst_out
                .admissions
                .iter()
                .position(|a| a.pending.migrated && a.pending.app == m.app)
                .expect("staged migration has a delivery outcome");
            let delivered = dst_out.admissions.remove(delivery);
            match delivered.result {
                Ok(_) => {
                    agg.migrations += 1;
                    tickets.push(m.ticket_line);
                    trace.push(
                        FleetEvent::Migration {
                            epoch,
                            app: m.app,
                            from: m.from,
                            to: m.to,
                            digest: m.digest,
                        }
                        .to_json_line(),
                    );
                }
                Err(_) => {
                    // Delivery failed under faults: the tenant left the
                    // source but never landed — record the departure and
                    // put it back in the admission queue.
                    engine.release(m.to as usize, Demand::of(delivered.pending.bench));
                    agg.departures += 1;
                    trace.push(
                        FleetEvent::Departure {
                            epoch,
                            app: m.app,
                            node: m.from,
                            teardown: m.teardown_src,
                        }
                        .to_json_line(),
                    );
                    deferred_events.push(m.app);
                    agg.deferrals += 1;
                    deferred.push_back(delivered.pending);
                }
            }
        }

        let mut unfairness_samples: Vec<f64> = Vec::new();
        let mut slowdown_samples: Vec<f64> = Vec::new();
        for (id, outcome) in outcomes.into_iter().enumerate() {
            let node = lock(id);
            for a in outcome.admissions {
                match a.result {
                    Ok(booted) => {
                        if booted {
                            agg.node_boots += 1;
                        }
                        agg.placements += 1;
                        trace.push(
                            FleetEvent::Placement {
                                epoch,
                                app: a.pending.app,
                                bench: a.pending.bench.table2().short.to_string(),
                                node: id as u64,
                                boot: booted,
                            }
                            .to_json_line(),
                        );
                    }
                    Err(_) => {
                        // Admission rolled back; free the commitment and
                        // requeue.
                        engine.release(id, Demand::of(a.pending.bench));
                        deferred_events.push(a.pending.app);
                        agg.deferrals += 1;
                        deferred.push_back(a.pending);
                    }
                }
            }
            let n_crashed = outcome.crashed.len();
            for (i, p) in outcome.crashed.into_iter().enumerate() {
                engine.release(id, Demand::of(p.bench));
                agg.departures += 1;
                trace.push(
                    FleetEvent::Departure {
                        epoch,
                        app: p.app,
                        node: id as u64,
                        teardown: i + 1 == n_crashed,
                    }
                    .to_json_line(),
                );
                deferred_events.push(p.app);
                agg.deferrals += 1;
                deferred.push_back(p);
            }
            if n_crashed > 0 {
                agg.node_teardowns += 1;
            }
            if !node.residents.is_empty() {
                unfairness_samples.push(node.unfairness);
                slowdown_samples.extend(node.residents.iter().map(|r| r.slowdown));
            }
            agg.set_node(
                id,
                NodeGauges {
                    apps: node.residents.len() as u64,
                    unfairness: node.unfairness,
                    unfairness_ewma: node.ewma,
                },
            );
        }
        for app in deferred_events {
            trace.push(FleetEvent::Deferred { epoch, app }.to_json_line());
        }
        agg.observe_epoch(&mut unfairness_samples, &mut slowdown_samples);
        trace.push(
            FleetEvent::Summary {
                epoch,
                active_nodes: agg.active_nodes(),
                running_apps: agg.running_apps(),
                placements: agg.placements,
                departures: agg.departures,
                migrations: agg.migrations,
                unfairness_p99: agg.unfairness.p99,
                slowdown_p99: agg.slowdown.p99,
            }
            .to_json_line(),
        );
    }

    let mut snapshots_written = 0u64;
    if let Some(dir) = &cfg.state_dir {
        for (id, slot) in nodes.iter().enumerate() {
            let node = slot.lock().expect("fleet node lock never poisoned");
            let Some(rt) = node.runtime.as_ref() else {
                continue;
            };
            let doc = SnapshotDoc {
                meta: SnapshotMeta {
                    mix: "fleet".to_string(),
                    n_apps: node.residents.len() as u64,
                    policy: "copart".to_string(),
                    // The node's true derived seed. The codec carries the
                    // full u64 range losslessly since format version 2, so
                    // there is no need to smuggle the master seed and
                    // re-derive on read.
                    seed: derive_seed(cfg.seed, id as u64),
                    faults: cfg
                        .faults
                        .as_ref()
                        .map_or_else(|| "none".to_string(), |f| format!("nodes={}", f.scope)),
                    daemon_epochs: cfg.horizon,
                },
                runtime: rt.snapshot(),
                backend: rt.runtime().backend().capture(),
                metrics: MetricsFrozen::capture(&rt.runtime().metrics_snapshot()),
            };
            write_snapshot(&dir.join(format!("node-{id:04}")), &doc)
                .map_err(|e| format!("state-dir snapshot for node {id} failed: {e}"))?;
            snapshots_written += 1;
        }
    }

    let metrics_json = agg.render_json();
    Ok(FleetOutcome {
        trace: trace.join("\n") + "\n",
        metrics_json,
        aggregator: agg,
        tickets,
        snapshots_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::check_fleet_trace;

    #[test]
    fn small_fleet_runs_and_traces_cleanly() {
        let mut cfg = FleetConfig::new(4, 12, 11);
        cfg.horizon = 20;
        let out = run_fleet(&cfg).unwrap();
        let stats = check_fleet_trace(&out.trace).unwrap();
        assert!(stats.placements > 0, "someone must be placed");
        assert_eq!(stats.epochs, 20, "one summary per epoch");
        assert!(out.aggregator.placements >= 12 - out.aggregator.deferrals.min(12));
        assert!(out.metrics_json.contains("\"placements\""));
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let mut cfg = FleetConfig::new(3, 10, 5);
        cfg.horizon = 16;
        let a = run_fleet(&cfg).unwrap();
        let b = run_fleet(&cfg).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.metrics_json, b.metrics_json);
        assert_eq!(a.tickets, b.tickets);
    }

    #[test]
    fn state_dir_gets_one_snapshot_per_live_node() {
        let dir = std::env::temp_dir().join(format!("copart-fleet-state-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = FleetConfig::new(3, 8, 23);
        cfg.horizon = 12;
        cfg.state_dir = Some(dir.clone());
        let out = run_fleet(&cfg).unwrap();
        assert_eq!(out.snapshots_written, out.aggregator.active_nodes());
        for (id, gauges) in out.aggregator.nodes().iter().enumerate() {
            let node_dir = dir.join(format!("node-{id:04}"));
            if gauges.apps == 0 {
                assert!(!node_dir.exists(), "empty nodes write no snapshot");
                continue;
            }
            let (doc, _) = copart_persist::latest_good(&node_dir)
                .unwrap()
                .expect("live node has a snapshot");
            assert_eq!(doc.meta.mix, "fleet");
            assert_eq!(
                doc.meta.seed,
                copart_rng::derive_seed(23, id as u64),
                "meta carries the node's true derived seed"
            );
            assert_eq!(doc.meta.n_apps, gauges.apps);
            assert_eq!(doc.runtime.apps.len() as u64, gauges.apps);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_nodes_is_rejected() {
        assert!(run_fleet(&FleetConfig::new(0, 5, 1)).is_err());
        let mut cfg = FleetConfig::new(2, 5, 1);
        cfg.capacity = 99;
        assert!(run_fleet(&cfg).is_err());
    }
}
