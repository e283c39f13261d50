//! The traced `node_steady`: the controller over a decorated simulator,
//! the same loop with nothing attached, and isolated drives of the
//! controller's own stages on the inputs the traced loop recorded.

use crate::cx::{durations, durations_in_epochs, named, Cx};
use crate::timing::{once_ns, per_call_ns};
use crate::trace::SpanBackend;
use bench_harness::spans::self_times;
use bench_harness::stats::{self, percentile};
use copart_core::actuator::{Actuator, ApplyReport, TransactionalActuator};
use copart_core::classifier::{Classifier, DualFsmClassifier, Measurement};
use copart_core::next_state::AppliedEvents;
use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, PeriodRecord, Phase, RuntimeConfig};
use copart_core::{CoPartParams, Sensor, SystemState, WindowedSensor};
use copart_rdt::{ClosId, MbaLevel, RdtBackend, SimBackend};
use copart_sim::{AppSpec, Machine, MachineConfig};
use copart_telemetry::CounterSnapshot;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The simulator with the `sim-run --mix h-both --apps 4` mix admitted.
pub fn boot(machine: &MachineConfig, specs: &[AppSpec]) -> (SimBackend, Vec<(ClosId, String)>) {
    let mut backend = SimBackend::new(Machine::new(machine.clone()));
    let named = specs
        .iter()
        .map(|s| {
            let group = backend
                .add_workload(s.clone())
                .expect("the mix fits the machine");
            (group, s.name.clone())
        })
        .collect();
    (backend, named)
}

/// The controller configuration `sim-run --policy copart` runs with.
pub fn copart_config(machine: &MachineConfig, stream: &StreamReference) -> RuntimeConfig {
    let params = CoPartParams {
        seed: EvalOptions::default().seed,
        ..CoPartParams::default()
    };
    policies::dynamic_runtime_config(machine, 4, stream, PolicyKind::CoPart, &params)
}

/// A period record whose buffers the loop reuses.
pub fn empty_record() -> PeriodRecord {
    PeriodRecord {
        time_ns: 0,
        phase: Phase::Profiling,
        state: SystemState::default(),
        apps: Vec::new(),
        unfairness: 0.0,
    }
}

fn truth<B: RdtBackend>(backend: &mut B, groups: &[ClosId]) -> Vec<CounterSnapshot> {
    groups
        .iter()
        .map(|&g| backend.read_counters(g).expect("group is live"))
        .collect()
}

/// The traced loop, the untraced loop, and the stage drives.
pub fn node_steady(cx: &mut Cx) {
    let epochs: u64 = if cx.quick { 200 } else { 2000 };
    let machine = MachineConfig::xeon_gold_6130();
    let specs = WorkloadMix::build(MixKind::HighBoth, 4, machine.n_cores).specs();

    // What every CLI invocation recomputes before its first epoch.
    let (stream_ns, stream) = once_ns(|| StreamReference::compute(&machine, 4));
    cx.put("workloads.stream_ref_ns", stream_ns, 1);
    let (solo_ns, _) = once_ns(|| policies::solo_full_ips(&machine, &specs));
    cx.put("workloads.solo_full_ns", solo_ns, 1);

    // --- decorators on -------------------------------------------------
    let log = cx.log.clone();
    let (boot_ns, (backend, groups_named)) = once_ns(|| boot(&machine, &specs));
    cx.put("sim.boot_ns", boot_ns, 1);
    let groups: Vec<ClosId> = groups_named.iter().map(|(g, _)| *g).collect();
    let backend = SpanBackend::new(backend, log.clone());
    let mut rt = ConsolidationRuntime::new(backend, groups_named, copart_config(&machine, &stream))
        .expect("the equal split applies");
    let (profile_ns, profiled) = log.time("core.profile", || once_ns(|| rt.profile()));
    profiled.expect("simulator profiling cannot fail");
    cx.put("core.profile_ns", profile_ns, 1);

    // --- decorators off: the loop exactly as sim-run runs it -------------
    // The same simulation over a bare backend, stepped in turn with the
    // first half of the traced loop so that whatever else the host is
    // doing falls on both alike.
    let off_epochs = epochs / 2;
    let (backend, bare_named) = boot(&machine, &specs);
    let mut bare = ConsolidationRuntime::new(backend, bare_named, copart_config(&machine, &stream))
        .expect("the equal split applies");
    bare.profile().expect("simulator profiling cannot fail");

    let before = truth(rt.backend_mut().inner_mut(), &groups);
    // The inputs the stage drives replay: each app's counter readings
    // and the partitions the controller moved through.
    let mut readings: Vec<Vec<CounterSnapshot>> = vec![Vec::new(); groups.len()];
    let mut states: Vec<SystemState> = Vec::new();
    let (mut record, mut bare_record) = (empty_record(), empty_record());
    let (mut on_wall, mut off_wall) = (Vec::new(), Vec::new());
    let mut steady_allocs = 0;
    for e in 0..epochs {
        log.set_epoch(e);
        let t = Instant::now();
        log.time("epoch", || rt.run_period_into(&mut record))
            .expect("the simulator cannot fail to advance");
        on_wall.push(t.elapsed().as_nanos() as f64);
        for (app, snap) in truth(rt.backend_mut().inner_mut(), &groups)
            .into_iter()
            .enumerate()
        {
            readings[app].push(snap);
        }
        if states.last() != Some(&record.state) {
            states.push(record.state.clone());
        }
        if e < off_epochs {
            let allocs = crate::alloc::count();
            let t = Instant::now();
            bare.run_period_into(&mut bare_record)
                .expect("the simulator cannot fail to advance");
            off_wall.push(t.elapsed().as_nanos() as f64);
            // Steady state: exploration's buffers have grown by half way.
            if e >= off_epochs / 2 {
                steady_allocs += crate::alloc::count() - allocs;
            }
        }
    }
    let after = truth(rt.backend_mut().inner_mut(), &groups);
    let metrics = rt.metrics_snapshot();
    let spans = log.take();

    let selfs = self_times(&spans);
    let epoch_ns = durations(&spans, "epoch");
    let epoch_total: f64 = epoch_ns.iter().sum();
    let (advance, reads, writes) = (
        durations_in_epochs(&spans, "sim.advance"),
        durations_in_epochs(&spans, "rdt.read_counters"),
        durations_in_epochs(&spans, "rdt.write"),
    );
    let ctrl_self: Vec<f64> = named(&spans, "epoch")
        .map(|(i, _)| selfs[i] as f64)
        .collect();
    let n = epoch_ns.len();
    cx.put_opt("core.epoch_ns_p50", percentile(&epoch_ns, 50.0), n);
    cx.put_opt("core.epoch_ns_p99", percentile(&epoch_ns, 99.0), n);
    cx.put_opt("sim.advance_ns", stats::median(&advance), advance.len());
    let advance_total: f64 = advance.iter().sum();
    cx.put("sim.advance_share", advance_total / epoch_total, n);
    cx.put_opt("rdt.read_counters_ns", stats::median(&reads), reads.len());
    cx.put("rdt.reads_per_epoch", reads.len() as f64 / n as f64, n);
    // The converged controller writes nothing, so the median is over the
    // exploration's few dozen writes; none at all reads 0.
    cx.put(
        "rdt.write_ns",
        stats::median(&writes).unwrap_or(0.0),
        writes.len(),
    );
    cx.put("rdt.writes", writes.len() as f64, n);
    cx.put_opt("core.ctrl_self_ns", stats::median(&ctrl_self), n);
    let self_total: f64 = ctrl_self.iter().sum();
    cx.put("core.ctrl_share", self_total / epoch_total, n);
    let rdt_total: f64 = reads.iter().chain(&writes).sum();
    cx.put(
        "bench.epoch_coverage",
        (advance_total + rdt_total + self_total) / epoch_total,
        n,
    );

    // Simulated work per host second spent inside advance.
    let delta = |f: fn(&CounterSnapshot) -> u64| -> f64 {
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| (f(a) - f(b)) as f64)
            .sum()
    };
    cx.put(
        "sim.minstr_per_host_s",
        delta(|c| c.instructions) / 1e6 / (advance_total / 1e9),
        n,
    );
    cx.put(
        "sim.ns_per_kaccess",
        advance_total / (delta(|c| c.llc_accesses) / 1e3),
        n,
    );

    // The runtime's own decision counters; simulated, so they repeat.
    for (metric, counter) in [
        ("core.transfers", "transfers"),
        ("core.theta_retries", "theta_retries"),
        ("core.convergences", "convergences"),
        ("core.re_explorations", "re_explorations"),
    ] {
        cx.put(metric, metrics.counter(counter) as f64, n);
    }
    let explore = metrics.histogram("explore_ns");
    cx.put("core.plan_ns_mean", explore.map_or(0.0, |h| h.mean_ns()), n);
    cx.put("core.plans", explore.map_or(0.0, |h| h.count() as f64), n);
    cx.absorb(spans);

    let steady_epochs = off_epochs - off_epochs / 2;
    cx.put(
        "core.allocs_per_epoch",
        steady_allocs as f64 / steady_epochs as f64,
        steady_epochs as usize,
    );
    // Epochs per second with the decorators on over with them off, on
    // the epochs both loops ran.
    let on_ns = stats::median(&on_wall[..off_epochs as usize]);
    let off_ns = stats::median(&off_wall);
    cx.put_opt(
        "bench.trace_overhead_ratio",
        off_ns.zip(on_ns).map(|(off, on)| off / on),
        off_epochs as usize,
    );

    stage_drives(cx, &machine, &stream, &specs, &readings, &states);
}

/// `core.sense_ns`, `core.classify_ns`, `core.actuate_ns`: each stage
/// alone, fed what the traced loop recorded.
fn stage_drives(
    cx: &mut Cx,
    machine: &MachineConfig,
    stream: &StreamReference,
    specs: &[AppSpec],
    readings: &[Vec<CounterSnapshot>],
    states: &[SystemState],
) {
    let budget = Duration::from_millis(if cx.quick { 20 } else { 100 });
    let params = CoPartParams::default();

    // Sense: replay app 0's per-epoch counter deltas as an endless
    // monotone stream (replaying the snapshots themselves would rewind
    // the clock at every wrap and take the sensor's reject path).
    let deltas: Vec<_> = readings[0]
        .windows(2)
        .filter_map(|w| w[1].delta_since(&w[0]))
        .collect();
    assert!(!deltas.is_empty(), "the traced loop recorded no readings");
    let mut sensor = WindowedSensor::new(8);
    let mut at = CounterSnapshot::default();
    let mut k = 0;
    let (sense_ns, batches) = per_call_ns(budget, || {
        let d = &deltas[k % deltas.len()];
        k += 1;
        at = CounterSnapshot {
            timestamp_ns: at.timestamp_ns + d.duration_ns,
            instructions: at.instructions + d.instructions,
            cycles: at.cycles + d.cycles,
            llc_accesses: at.llc_accesses + d.llc_accesses,
            llc_misses: at.llc_misses + d.llc_misses,
        };
        black_box(sensor.ingest(Ok(at)));
    });
    cx.put("core.sense_ns", sense_ns, batches);

    // Classify: the measurements those deltas turn into.
    let measurements: Vec<Measurement> = deltas
        .iter()
        .filter_map(|d| d.rates())
        .scan(0.0, |prev_ips, r| {
            let perf_delta = if *prev_ips > 0.0 {
                (r.ips - *prev_ips) / *prev_ips
            } else {
                0.0
            };
            *prev_ips = r.ips;
            Some(Measurement {
                perf_delta,
                access_rate: r.llc_accesses_per_sec,
                miss_ratio: r.miss_ratio,
                traffic_ratio: stream.traffic_ratio(r.llc_misses_per_sec, MbaLevel::MAX),
            })
        })
        .collect();
    let mut classifier = DualFsmClassifier::new();
    let mut k = 0;
    let (classify_ns, batches) = per_call_ns(budget, || {
        classifier.observe(
            &params,
            &measurements[k % measurements.len()],
            AppliedEvents::default(),
        );
        k += 1;
        black_box(classifier.states());
    });
    cx.put("core.classify_ns", classify_ns, batches);

    // Actuate: switch a bare simulator through the partitions the
    // controller visited, transactionally, as the epoch driver does.
    let (mut backend, groups_named) = boot(machine, specs);
    let groups: Vec<ClosId> = groups_named.iter().map(|(g, _)| *g).collect();
    let ways_budget = copart_config(machine, stream).budget;
    let layouts: Vec<_> = states
        .iter()
        .map(|s| s.masks(&ways_budget, machine.llc_ways))
        .collect();
    if states.len() < 2 {
        // A controller that never moved has nothing to replay.
        cx.put("core.actuate_ns", 0.0, 0);
        return;
    }
    let actuator = TransactionalActuator::default();
    let mut report = ApplyReport::default();
    let mut k = 0;
    let (actuate_ns, batches) = per_call_ns(budget, || {
        let (old, new) = (k % states.len(), (k + 1) % states.len());
        k += 1;
        black_box(actuator.apply_txn(
            &mut backend,
            &groups,
            &states[old],
            &states[new],
            &ways_budget,
            &layouts[new],
            &layouts[old],
            &mut report,
        ));
    });
    cx.put("core.actuate_ns", actuate_ns, batches);
}
