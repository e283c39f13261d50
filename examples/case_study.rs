//! The §6.3 case study, compressed: memcached (latency-critical) collocated
//! with two batch jobs, an outer server manager resizing the LC
//! reservation on a load spike, and CoPart re-adapting the batch
//! partition.
//!
//! ```sh
//! cargo run --release --example case_study
//! ```

use std::time::Duration;

use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::state::WaysBudget;
use copart_core::CoPartParams;
use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_workloads::casestudy::{
    kmeans_spec, memcached_spec, wordcount_spec, LcModel, LcReservation,
};
use copart_workloads::stream::StreamReference;

const PERIOD: Duration = Duration::from_millis(200);

fn main() {
    let machine_cfg = MachineConfig::xeon_gold_6130();
    let stream = StreamReference::for_machine(&machine_cfg);
    let lc_model = LcModel::default();

    let mut backend = SimBackend::new(Machine::new(machine_cfg.clone()));
    let lc = backend.add_workload(memcached_spec(8)).expect("LC fits");
    let wc = backend.add_workload(wordcount_spec(4)).expect("batch fits");
    let km = backend.add_workload(kmeans_spec(4)).expect("batch fits");

    // Low load to start: the outer manager reserves a small LC slice.
    let mut load = 75_000.0;
    let mut reservation = LcReservation::for_load(load);
    apply_lc(&mut backend, lc, &reservation, machine_cfg.llc_ways);

    let cfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget: batch_budget(&reservation),
        stream,
        planner: Default::default(),
    };
    let mut runtime = ConsolidationRuntime::new(
        backend,
        vec![(wc, "wordcount".into()), (km, "kmeans".into())],
        cfg,
    )
    .expect("state applies");
    runtime.profile().expect("profiling");

    let report = |runtime: &mut ConsolidationRuntime<SimBackend>,
                  load: f64,
                  res: &LcReservation,
                  label: &str| {
        let before = runtime.backend_mut().read_counters(lc).expect("LC live");
        let record = (0..25)
            .map(|_| runtime.run_period().expect("period"))
            .next_back()
            .expect("ran periods");
        let after = runtime.backend_mut().read_counters(lc).expect("LC live");
        let lc_ips = after
            .delta_since(&before)
            .and_then(|d| d.rates())
            .map(|r| r.ips * f64::from(res.lc_cores) / 8.0)
            .unwrap_or(0.0);
        println!("\n== {label} (load {:.0} krps) ==", load / 1000.0);
        println!(
            "LC p95 ≈ {:.3} ms ({})",
            lc_model.p95_latency_ms(lc_ips, load),
            if lc_model.slo_met(lc_ips, load) {
                "SLO met"
            } else {
                "SLO VIOLATED"
            }
        );
        for (app, alloc) in runtime.apps().iter().zip(&record.state.allocs) {
            println!(
                "  {:<10} {} ways, MBA {:>3}%, slowdown {:.2}",
                app.name,
                alloc.ways,
                alloc.mba.percent(),
                app.slowdown()
            );
        }
    };

    report(&mut runtime, load, &reservation, "steady state at low load");

    // Load spike: the outer manager grows the LC reservation; CoPart
    // re-adapts within the shrunken batch budget.
    load = 150_000.0;
    reservation = LcReservation::for_load(load);
    apply_lc(
        runtime.backend_mut(),
        lc,
        &reservation,
        machine_cfg.llc_ways,
    );
    runtime
        .set_budget(batch_budget(&reservation))
        .expect("budget applies");
    report(&mut runtime, load, &reservation, "after the load spike");

    // Load returns to normal.
    load = 75_000.0;
    reservation = LcReservation::for_load(load);
    apply_lc(
        runtime.backend_mut(),
        lc,
        &reservation,
        machine_cfg.llc_ways,
    );
    runtime
        .set_budget(batch_budget(&reservation))
        .expect("budget applies");
    report(&mut runtime, load, &reservation, "after the load returns");

    let _ = PERIOD;
}

fn batch_budget(res: &LcReservation) -> WaysBudget {
    WaysBudget {
        first_way: res.lc_ways,
        total_ways: res.batch_ways,
        mba_cap: MbaLevel::new(res.batch_mba_cap),
    }
}

fn apply_lc(backend: &mut SimBackend, lc: ClosId, res: &LcReservation, machine_ways: u32) {
    let mask = CbmMask::contiguous(0, res.lc_ways, machine_ways).expect("fits");
    backend.set_cbm(lc, mask).expect("LC group exists");
    backend.set_mba(lc, MbaLevel::MAX).expect("LC group exists");
}
