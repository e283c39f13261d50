//! The traced `planner_scale`: the planner harness at 4000 apps (which
//! never leaves `copart-core` and `copart-matching`, so no span has a
//! child) and the matching kernel alone.

use crate::cx::Cx;
use crate::timing::{once_ns, per_call_ns};
use copart_core::scale::{run_planner_scale, ScaleConfig};
use copart_matching::chain::{self, ChainScratch, Consumer};
use copart_rng::XorShift64Star;
use std::hint::black_box;
use std::time::Duration;

/// `run_planner_scale` as `sim-run --apps 4000 --seed S` configures it.
pub fn planner_scale(cx: &mut Cx) {
    let epochs: u32 = if cx.quick { 500 } else { 20_000 };
    let cfg = ScaleConfig::new(4000, epochs, cx.seed);
    let log = cx.log.clone();
    let (_, r) = log.time("core.planner_scale", || once_ns(|| run_planner_scale(&cfg)));
    let n = epochs as usize;
    cx.put("core.plan_ns_p50", r.plan_ns_p50 as f64, n);
    cx.put("core.plan_ns_p99", r.plan_ns_p99 as f64, n);
    cx.put("core.plans", f64::from(epochs), n);
    let lookups = r.role_cache_hits + r.role_cache_misses;
    cx.put(
        "core.role_cache_hit_ratio",
        r.role_cache_hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    cx.put(
        "core.matching_rounds_per_plan",
        r.matching_rounds as f64 / f64::from(epochs),
        n,
    );
    cx.put("core.transfers", r.transfers as f64, n);
    cx.put("core.theta_retries", r.theta_retries as f64, n);
    cx.put("core.convergences", r.converges as f64, n);
    // No backend exists here: the simulator's share of this workload is
    // zero by construction, which is what makes it the bypass.
    cx.put("sim.advance_share", 0.0, n);
    cx.report
        .note(format!("decision digest {:#018x}", r.digest));
    let spans = log.take();
    cx.absorb(spans);

    matching_kernel(cx);
}

/// `chain::allocate_into` at 1024 and 4096 consumers over three
/// categories — the instance shape Algorithm 2 builds.
fn matching_kernel(cx: &mut Cx) {
    let budget = Duration::from_millis(if cx.quick { 20 } else { 200 });
    let mut assignment = Vec::new();
    let mut scratch = ChainScratch::default();
    for (n, metric) in [
        (1024usize, "matching.allocate_ns_1024"),
        (4096, "matching.allocate_ns_4096"),
    ] {
        let mut rng = XorShift64Star::seed_from_u64(9);
        let capacities = vec![n.div_ceil(4); 3];
        let consumers: Vec<Consumer> = (0..n)
            .map(|_| Consumer {
                priority: rng.gen_range(1.0..3.0),
                preference: vec![0, 1, 2],
            })
            .collect();
        let (ns, batches) = per_call_ns(budget, || {
            chain::allocate_into(
                black_box(&capacities),
                black_box(&consumers),
                &mut assignment,
                &mut scratch,
            );
            black_box(&assignment);
        });
        cx.put(metric, ns, batches);
    }
}
