//! Figure 15: runtime behaviour when batch workloads are consolidated
//! with a latency-critical (LC) workload (§6.3).
//!
//! memcached runs as the LC application under a 1 ms p95 SLO; Word Count
//! and Kmeans run as batch workloads managed by CoPart inside the budget
//! an outer Heracles-style server manager leaves them. The offered load
//! steps 75 krps → 150 krps at t ≈ 99.4 s and back at t ≈ 299.4 s; the
//! manager resizes the LC reservation at each step and CoPart re-adapts
//! the batch partition.

use std::time::Duration;

use copart_core::policies::{self, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::{SystemState, WaysBudget};
use copart_core::{metrics, node, CoPartParams};
use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::{CounterSnapshot, NullRecorder};
use copart_workloads::casestudy::{
    kmeans_spec, memcached_spec, wordcount_spec, LcModel, LcReservation, LoadTrace,
};
use copart_workloads::stream::StreamReference;

use crate::common::Table;

const PERIOD: Duration = Duration::from_millis(200);
const RUN_SECONDS: f64 = 400.0;
const BUCKET_SECONDS: f64 = 10.0;

struct BucketRow {
    t: f64,
    load: f64,
    p95_ms: f64,
    batch_unfairness: f64,
}

/// Runs and prints Figure 15.
pub fn fig15() {
    println!("Figure 15 — case study: memcached (LC) + Word Count + Kmeans (batch)");
    println!("load: 75 krps → 150 krps at t=99.4 s → 75 krps at t=299.4 s; SLO: p95 ≤ 1 ms\n");

    // The two 400 s drivers are independent machines; run them as a
    // two-task sweep on the parallel pool (only CoPart writes a trace).
    let mut cases =
        copart_parallel::par_map(&[PolicyKind::CoPart, PolicyKind::Equal], |&p| run_case(p))
            .into_iter();
    let (copart, eq) = (
        cases.next().expect("CoPart case ran"),
        cases.next().expect("EQ case ran"),
    );

    let mut t = Table::new(&[
        "t (s)",
        "load (krps)",
        "LC p95 (ms)",
        "batch unfairness CoPart",
        "batch unfairness EQ",
        "SLO",
    ]);
    for (c, e) in copart.iter().zip(&eq) {
        t.row(vec![
            format!("{:.0}", c.t),
            format!("{:.0}", c.load / 1000.0),
            format!("{:.3}", c.p95_ms),
            format!("{:.3}", c.batch_unfairness),
            format!("{:.3}", e.batch_unfairness),
            if c.p95_ms <= 1.0 { "met" } else { "VIOLATED" }.to_string(),
        ]);
    }
    t.print();

    let avg = |rows: &[BucketRow]| {
        rows.iter().map(|r| r.batch_unfairness).sum::<f64>() / rows.len() as f64
    };
    println!(
        "\nmean batch unfairness: CoPart {:.3} vs EQ {:.3}",
        avg(&copart),
        avg(&eq)
    );
    println!(
        "Paper finding: CoPart sustains higher batch fairness than EQ across both load\n\
         levels, with a short transient right after each reservation change."
    );
}

fn run_case(policy: PolicyKind) -> Vec<BucketRow> {
    let machine_cfg = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::for_machine(&machine_cfg);
    let trace = LoadTrace::paper();
    let lc_model = LcModel::default();

    // Solo references for batch ground truth.
    let batch_specs = [wordcount_spec(4), kmeans_spec(4)];
    let batch_full = policies::solo_full_ips(&machine_cfg, &batch_specs);

    let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
    let lc_group = backend.add_workload(memcached_spec(8)).expect("LC fits");

    let mut reservation = LcReservation::for_load(trace.load_at(0.0));
    apply_lc(&mut backend, lc_group, &reservation, machine_cfg.llc_ways);

    let budget = batch_budget(&reservation);

    #[allow(clippy::large_enum_variant)] // Two locals; size is irrelevant.
    enum Driver {
        CoPart(Box<ConsolidationRuntime<SimBackend>>),
        Equal(SimBackend),
    }

    // The batch jobs are admitted beside the (unmanaged) LC group; only
    // they are handed to the controller.
    let (mut driver, batch_groups): (Driver, Vec<ClosId>) = match policy {
        PolicyKind::CoPart => {
            let cfg = RuntimeConfig {
                params: CoPartParams::default(),
                manage_llc: true,
                manage_mba: true,
                budget,
                stream: stream.clone(),
                planner: Default::default(),
            };
            let mut rt = node::build(backend, &batch_specs, cfg).expect("state applies");
            // Record the whole CoPart run — including the profiling
            // probes and both load-step transients — as a JSONL trace.
            rt.set_recorder(crate::common::trace_sink("fig15_casestudy"));
            rt.profile().expect("profiling on the simulator");
            let groups = rt.apps().iter().map(|a| a.group).collect();
            (Driver::CoPart(Box::new(rt)), groups)
        }
        _ => {
            let groups: Vec<ClosId> = node::admit_all(&mut backend, &batch_specs)
                .expect("batch fits")
                .into_iter()
                .map(|(group, _)| group)
                .collect();
            apply_equal_batch(&mut backend, &groups, &budget);
            (Driver::Equal(backend), groups)
        }
    };

    let periods = (RUN_SECONDS / PERIOD.as_secs_f64()) as u32;
    let bucket_periods = (BUCKET_SECONDS / PERIOD.as_secs_f64()) as u32;
    let mut rows = Vec::new();
    let mut lc_prev: Option<CounterSnapshot> = None;
    let mut batch_prev: Vec<CounterSnapshot> = Vec::new();

    for k in 0..periods {
        let t = f64::from(k) * PERIOD.as_secs_f64();
        let load = trace.load_at(t);
        let new_res = LcReservation::for_load(load);
        if new_res != reservation {
            reservation = new_res;
            let b = batch_budget(&reservation);
            match &mut driver {
                Driver::CoPart(rt) => {
                    apply_lc(
                        rt.backend_mut(),
                        lc_group,
                        &reservation,
                        machine_cfg.llc_ways,
                    );
                    rt.set_budget(b).expect("budget applies");
                }
                Driver::Equal(be) => {
                    apply_lc(be, lc_group, &reservation, machine_cfg.llc_ways);
                    apply_equal_batch(be, &batch_groups, &b);
                }
            }
        }

        // Advance one period.
        match &mut driver {
            Driver::CoPart(rt) => {
                rt.run_period().expect("period runs");
            }
            Driver::Equal(be) => {
                be.advance(PERIOD).expect("sim advance");
            }
        }

        // Bucket boundaries: report LC latency and batch unfairness.
        if k % bucket_periods == 0 {
            let be = match &mut driver {
                Driver::CoPart(rt) => rt.backend_mut(),
                Driver::Equal(be) => be,
            };
            let lc_now = be.read_counters(lc_group).expect("LC live");
            let batch_now: Vec<CounterSnapshot> = batch_groups
                .iter()
                .map(|&g| be.read_counters(g).expect("batch live"))
                .collect();
            if let Some(prev) = &lc_prev {
                // The simulated memcached keeps all 8 cores pinned; only
                // the reserved cores serve requests, so the service
                // capacity scales with the reservation.
                let lc_ips = lc_now
                    .delta_since(prev)
                    .and_then(|d| d.rates())
                    .map(|r| r.ips * f64::from(reservation.lc_cores) / 8.0)
                    .unwrap_or(0.0);
                let slowdowns: Vec<f64> = batch_now
                    .iter()
                    .zip(&batch_prev)
                    .zip(&batch_full)
                    .map(|((now, prev), &full)| {
                        let ips = now
                            .delta_since(prev)
                            .and_then(|d| d.rates())
                            .map(|r| r.ips)
                            .unwrap_or(0.0);
                        metrics::slowdown(full, ips)
                    })
                    .collect();
                rows.push(BucketRow {
                    t,
                    load,
                    p95_ms: lc_model.p95_latency_ms(lc_ips, load),
                    batch_unfairness: metrics::unfairness(&slowdowns),
                });
            }
            lc_prev = Some(lc_now);
            batch_prev = batch_now;
        }
    }

    if let Driver::CoPart(rt) = &mut driver {
        let mut recorder = rt.set_recorder(Box::new(NullRecorder));
        if let Err(e) = recorder.flush() {
            eprintln!("warning: flushing case-study trace: {e}");
        }
    }
    rows
}

fn batch_budget(res: &LcReservation) -> WaysBudget {
    WaysBudget {
        first_way: res.lc_ways,
        total_ways: res.batch_ways,
        mba_cap: MbaLevel::new(res.batch_mba_cap),
    }
}

fn apply_lc(backend: &mut SimBackend, lc_group: ClosId, res: &LcReservation, machine_ways: u32) {
    let mask = CbmMask::contiguous(0, res.lc_ways, machine_ways).expect("reservation fits");
    backend.set_cbm(lc_group, mask).expect("LC group exists");
    backend
        .set_mba(lc_group, MbaLevel::MAX)
        .expect("LC group exists");
}

fn apply_equal_batch(backend: &mut SimBackend, groups: &[ClosId], budget: &WaysBudget) {
    let state = SystemState::equal_split(
        groups.len(),
        budget,
        SystemState::equal_mba_level(groups.len()).min(budget.mba_cap),
    );
    state
        .apply(backend, groups, budget)
        .expect("equal batch state applies");
}
