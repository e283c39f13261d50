//! The traced `compare_grid`: what one grid cell and one offline search
//! cost, and the fork-join pool the grid fans out on.

use crate::cx::Cx;
use crate::timing::once_ns;
use bench_harness::spec::JOBS;
use bench_harness::stats;
use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_core::WaysBudget;
use copart_sim::MachineConfig;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};
use std::hint::black_box;

/// One CoPart cell, one ST search, and the pool.
pub fn compare_grid(cx: &mut Cx) {
    let log = cx.log.clone();
    copart_parallel::set_jobs(Some(JOBS));
    let machine = MachineConfig::xeon_gold_6130();
    let specs = WorkloadMix::build(MixKind::HighBoth, 4, machine.n_cores).specs();
    let (stream_ns, stream) = once_ns(|| StreamReference::compute(&machine, 4));
    cx.put("workloads.stream_ref_ns", stream_ns, 1);
    let (solo_ns, full) = once_ns(|| policies::solo_full_ips(&machine, &specs));
    cx.put("workloads.solo_full_ns", solo_ns, 1);

    // `compare --seconds 6` is 30 periods per cell, the back half measured.
    let eval = EvalOptions {
        total_periods: 30,
        measure_periods: 15,
        seed: cx.seed,
        static_candidates: if cx.quick {
            6
        } else {
            EvalOptions::default().static_candidates
        },
        ..EvalOptions::default()
    };
    let budget = WaysBudget::full_machine(machine.llc_ways);
    let (search_ns, state) = log.time("core.static_search", || {
        once_ns(|| policies::static_search(&machine, &specs, &full, &budget, &eval))
    });
    black_box(state);
    cx.put("core.static_search_ns", search_ns, 1);
    let cells: Vec<f64> = (0..if cx.quick { 1 } else { 3 })
        .map(|_| {
            log.time("core.eval_cell", || {
                once_ns(|| {
                    policies::evaluate_policy(
                        &machine,
                        &specs,
                        &full,
                        &stream,
                        PolicyKind::CoPart,
                        &eval,
                    )
                })
            })
            .0
        })
        .collect();
    cx.put_opt("core.eval_cell_ns", stats::median(&cells), cells.len());
    let spans = log.take();
    cx.absorb(spans);

    pool(cx);
}

/// `par_map` dispatch cost over empty tasks, and speed-up and occupancy
/// over 64 equal ones.
fn pool(cx: &mut Cx) {
    let empty = vec![(); if cx.quick { 10_000 } else { 100_000 }];
    let dispatch: Vec<f64> = (0..5)
        .map(|_| {
            once_ns(|| black_box(copart_parallel::par_map(&empty, |()| ()))).0 / empty.len() as f64
        })
        .collect();
    cx.put_opt(
        "parallel.dispatch_ns",
        stats::median(&dispatch),
        dispatch.len(),
    );

    // Equal tasks of about a millisecond: pure compute, nothing shared.
    let spins: u64 = if cx.quick { 100_000 } else { 1_000_000 };
    let tasks: Vec<u64> = (0..64).collect();
    let sweep = |jobs: usize| {
        copart_parallel::set_jobs(Some(jobs));
        once_ns(|| {
            black_box(copart_parallel::par_map(&tasks, |&t| {
                (0..spins).fold(t, |a, b| {
                    a.wrapping_mul(6364136223846793005)
                        .wrapping_add(black_box(b))
                })
            }))
        })
        .0
    };
    let serial_ns = sweep(1);
    let pair_ns = sweep(JOBS);
    cx.put("parallel.speedup_jobs2", serial_ns / pair_ns, tasks.len());
    let occupancy = copart_parallel::last_sweep().map(|s| s.occupancy());
    cx.put_opt("parallel.occupancy", occupancy, tasks.len());
}
