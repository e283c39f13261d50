//! Synthetic planner-scale harness: the exploration stepper at
//! thousands of applications, without a simulated machine underneath.
//!
//! The cache/timing simulator tops out at a handful of applications (one
//! per CLOS on an 11-way LLC), but the planner itself — role derivation,
//! the Hospitals/Residents matching, and the transactional bookkeeping —
//! must stay inside the paper's ~1 ms epoch budget at three to four
//! orders of magnitude more consumers. This module drives
//! [`Explorer::plan_into`] over a deterministic synthetic population:
//! classifier verdicts are drawn from a seeded RNG and churned every
//! epoch, every plan is landed and committed through the same
//! plan/commit pair the runtime drives (there is no actuator to roll
//! back), and per-epoch plan latencies are recorded.
//!
//! Determinism: the whole run is a pure function of [`ScaleConfig`]. The
//! [`ScaleReport::digest`] folds every decision and the resulting
//! allocations into an FNV-1a hash (timings excluded), so two runs with
//! the same config — on different thread counts, machines, or builds —
//! must produce identical digests. `tests/parallel_determinism.rs` and
//! the bench gate both rely on this.

use std::time::Instant;

use copart_rdt::MbaLevel;
use copart_rng::XorShift64Star;
use copart_telemetry::{fnv1a64_update_u64, FNV1A64_OFFSET};
use copart_workloads::fleet::MixSampler;
use copart_workloads::stream::StreamReference;
use copart_workloads::Category;

use crate::fsm::AppState;
use crate::metrics::unfairness;
use crate::next_state::AppClassification;
use crate::planner::{Explorer, Plan, PlanDecision};
use crate::runtime::RuntimeConfig;
use crate::state::{SystemState, WaysBudget};
use crate::CoPartParams;

/// How the synthetic population's classifier verdicts are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScalePopulation {
    /// Uniform random Supply/Maintain/Demand states — the original
    /// harness, and the population the bench gate's digests pin.
    #[default]
    Uniform,
    /// The fleet's tenant mix: each application is a benchmark drawn
    /// from the zipf-skewed [`MixSampler`] (the same sampler behind the
    /// fleet controller's churn tape), and its verdicts are biased by
    /// the benchmark's §3.3 sensitivity category — LLC-sensitive images
    /// mostly demand ways, insensitive ones mostly supply them.
    FleetMix,
}

/// Configuration of one synthetic planner-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Synthetic application count (each gets `ways_per_app` LLC ways in
    /// the scaled budget, so any population fits).
    pub n_apps: usize,
    /// Adaptation epochs to drive.
    pub epochs: u32,
    /// Seed for the synthetic population and its churn.
    pub seed: u64,
    /// Fraction of applications whose classification is redrawn each
    /// epoch (steady state churns a few; 1.0 redraws everyone).
    pub churn: f64,
    /// Budget ways per application (the scaled machine's LLC).
    pub ways_per_app: u32,
    /// Where the classifier verdicts come from.
    pub population: ScalePopulation,
}

impl ScaleConfig {
    /// A standard run: 2 ways/app, 2 % churn per epoch, uniform verdicts.
    pub fn new(n_apps: usize, epochs: u32, seed: u64) -> ScaleConfig {
        ScaleConfig {
            n_apps,
            epochs,
            seed,
            churn: 0.02,
            ways_per_app: 2,
            population: ScalePopulation::Uniform,
        }
    }
}

/// The outcome of a planner-scale run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleReport {
    /// Application count driven.
    pub n_apps: usize,
    /// Epochs driven.
    pub epochs: u32,
    /// FNV-1a digest of every decision and resulting allocation
    /// (timings excluded); identical configs must produce identical
    /// digests regardless of machine or parallelism.
    pub digest: u64,
    /// Epochs that applied a matching transfer.
    pub transfers: u64,
    /// Epochs that restarted from a random neighbor (θ-retry).
    pub theta_retries: u64,
    /// Epochs that converged.
    pub converges: u64,
    /// Total instability-chaining iterations across all epochs.
    pub matching_rounds: u64,
    /// Median per-epoch planning latency, nanoseconds.
    pub plan_ns_p50: u64,
    /// 99th-percentile per-epoch planning latency, nanoseconds.
    pub plan_ns_p99: u64,
    /// Worst per-epoch planning latency, nanoseconds.
    pub plan_ns_max: u64,
    /// Role-cache hits across the run (see `ExploreScratch`).
    pub role_cache_hits: u64,
    /// Role-cache misses across the run.
    pub role_cache_misses: u64,
}

fn fnv1a_u64(hash: &mut u64, v: u64) {
    *hash = fnv1a64_update_u64(*hash, v);
}

fn random_state(rng: &mut XorShift64Star) -> AppState {
    match rng.gen_range(0..3u8) {
        0 => AppState::Supply,
        1 => AppState::Maintain,
        _ => AppState::Demand,
    }
}

fn redraw(rng: &mut XorShift64Star) -> AppClassification {
    AppClassification {
        llc: random_state(rng),
        mba: random_state(rng),
        slowdown: 1.0 + rng.gen_range(0.0..3.0),
    }
}

/// A verdict biased toward Demand on a sensitive dimension and toward
/// Supply on an insensitive one (6:3:1), mirroring how the §4.2
/// classifier treats the §3.3 categories in the full simulation.
fn biased_state(rng: &mut XorShift64Star, sensitive: bool) -> AppState {
    match (rng.gen_range(0..10u8), sensitive) {
        (0..=5, true) | (9, false) => AppState::Demand,
        (6..=8, _) => AppState::Maintain,
        _ => AppState::Supply,
    }
}

fn redraw_fleet(rng: &mut XorShift64Star, category: Category) -> AppClassification {
    let llc = biased_state(rng, category.llc_sensitive());
    let mba = biased_state(rng, category.bw_sensitive());
    // Sensitive tenants can be badly slowed; insensitive ones hover
    // near their solo speed no matter what the allocator does.
    let span = if category.llc_sensitive() || category.bw_sensitive() {
        3.0
    } else {
        0.5
    };
    AppClassification {
        llc,
        mba,
        slowdown: 1.0 + rng.gen_range(0.0..span),
    }
}

/// The per-application verdict source, resolved once at startup.
enum Verdicts {
    Uniform,
    /// One §3.3 category per application, drawn from the fleet mix.
    Fleet(Vec<Category>),
}

impl Verdicts {
    fn build(cfg: &ScaleConfig, rng: &mut XorShift64Star) -> Verdicts {
        match cfg.population {
            ScalePopulation::Uniform => Verdicts::Uniform,
            ScalePopulation::FleetMix => {
                let sampler = MixSampler::new(cfg.seed);
                Verdicts::Fleet(
                    (0..cfg.n_apps)
                        .map(|_| sampler.sample(rng.next_f64()).category())
                        .collect(),
                )
            }
        }
    }

    fn redraw(&self, rng: &mut XorShift64Star, app: usize) -> AppClassification {
        match self {
            Verdicts::Uniform => redraw(rng),
            Verdicts::Fleet(cats) => redraw_fleet(rng, cats[app]),
        }
    }
}

/// Drives [`Explorer::plan_into`] for `cfg.epochs` epochs over a churned
/// synthetic population of `cfg.n_apps` applications, landing and
/// committing every plan.
///
/// # Panics
///
/// Panics on a zero application count or zero `ways_per_app`.
pub fn run_planner_scale(cfg: &ScaleConfig) -> ScaleReport {
    assert!(cfg.n_apps >= 1, "need at least one application");
    assert!(cfg.ways_per_app >= 1, "every application needs a way");

    let budget = WaysBudget {
        first_way: 0,
        total_ways: cfg.n_apps as u32 * cfg.ways_per_app,
        mba_cap: MbaLevel::MAX,
    };
    let rt_cfg = RuntimeConfig {
        params: CoPartParams::default(),
        manage_llc: true,
        manage_mba: true,
        budget,
        // The planner never consults the STREAM table; a flat placeholder
        // keeps the synthetic harness free of machine measurement.
        stream: StreamReference::from_table([1.0; 10]),
        planner: Default::default(),
    };

    let mut rng = XorShift64Star::seed_from_u64(cfg.seed ^ 0x5ca1_ab1e);
    let verdicts = Verdicts::build(cfg, &mut rng);
    let mut classes: Vec<AppClassification> = (0..cfg.n_apps)
        .map(|i| verdicts.redraw(&mut rng, i))
        .collect();
    let mut slowdowns: Vec<f64> = classes.iter().map(|c| c.slowdown).collect();

    let mut state = SystemState::equal_split(cfg.n_apps, &budget, MbaLevel::MAX);
    let mut explorer = Explorer::new(cfg.seed);
    let mut plan = Plan::default();

    let churned = ((cfg.churn * cfg.n_apps as f64).ceil() as usize).min(cfg.n_apps);
    let mut digest = FNV1A64_OFFSET;
    fnv1a_u64(&mut digest, cfg.n_apps as u64);
    fnv1a_u64(&mut digest, u64::from(cfg.epochs));

    let mut transfers = 0u64;
    let mut theta_retries = 0u64;
    let mut converges = 0u64;
    let mut matching_rounds = 0u64;
    let mut plan_ns: Vec<u64> = Vec::with_capacity(cfg.epochs as usize);

    for epoch in 0..cfg.epochs {
        // Churn: redraw a deterministic handful of classifications.
        for _ in 0..churned {
            let i = rng.gen_range(0..cfg.n_apps);
            classes[i] = verdicts.redraw(&mut rng, i);
            slowdowns[i] = classes[i].slowdown;
        }
        let current_unfairness = unfairness(&slowdowns);

        let t0 = Instant::now();
        explorer.plan_into(
            &rt_cfg,
            &state,
            &[],
            &classes,
            current_unfairness,
            epoch > 0,
            &mut plan,
        );
        plan_ns.push(t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);

        let rounds = plan.matching_rounds.unwrap_or(0);
        matching_rounds += u64::from(rounds);
        if let Some(target) = plan.target() {
            state.allocs.clone_from(&target.allocs);
        }
        explorer.commit(&plan, true, current_unfairness);
        match plan.decision {
            PlanDecision::Transfer => transfers += 1,
            PlanDecision::ThetaRetry => theta_retries += 1,
            PlanDecision::Converge => {
                converges += 1;
                // Keep exploring: the harness measures planning, not idling.
                explorer.restart();
            }
        }
        fnv1a_u64(&mut digest, u64::from(epoch));
        fnv1a_u64(&mut digest, plan.decision.tag());
        fnv1a_u64(&mut digest, u64::from(rounds));
        for a in &state.allocs {
            fnv1a_u64(&mut digest, u64::from(a.ways));
            fnv1a_u64(&mut digest, u64::from(a.mba.percent()));
        }
    }

    plan_ns.sort_unstable();
    let pct = |p: f64| -> u64 {
        if plan_ns.is_empty() {
            return 0;
        }
        let idx = ((plan_ns.len() as f64 - 1.0) * p).round() as usize;
        plan_ns[idx]
    };
    ScaleReport {
        n_apps: cfg.n_apps,
        epochs: cfg.epochs,
        digest,
        transfers,
        theta_retries,
        converges,
        matching_rounds,
        plan_ns_p50: pct(0.50),
        plan_ns_p99: pct(0.99),
        plan_ns_max: plan_ns.last().copied().unwrap_or(0),
        role_cache_hits: plan.role_cache().0,
        role_cache_misses: plan.role_cache().1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_configs_produce_identical_digests() {
        let cfg = ScaleConfig::new(64, 40, 0xD16E_5701);
        let a = run_planner_scale(&cfg);
        let b = run_planner_scale(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.transfers, b.transfers);
        assert_eq!(a.theta_retries, b.theta_retries);
        assert_eq!(a.converges, b.converges);
        assert_eq!(a.matching_rounds, b.matching_rounds);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_planner_scale(&ScaleConfig::new(64, 40, 1));
        let b = run_planner_scale(&ScaleConfig::new(64, 40, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn every_epoch_is_accounted_for() {
        let r = run_planner_scale(&ScaleConfig::new(32, 50, 7));
        assert_eq!(r.transfers + r.theta_retries + r.converges, 50);
        assert!(r.plan_ns_p50 <= r.plan_ns_p99);
        assert!(r.plan_ns_p99 <= r.plan_ns_max);
    }

    #[test]
    fn role_cache_sees_hits_under_low_churn() {
        let r = run_planner_scale(&ScaleConfig::new(256, 30, 11));
        assert!(
            r.role_cache_hits > r.role_cache_misses,
            "low churn should mostly reuse cached roles: {} hits vs {} misses",
            r.role_cache_hits,
            r.role_cache_misses
        );
    }

    #[test]
    fn fleet_mix_population_is_deterministic_and_diverges_from_uniform() {
        let mut fleet = ScaleConfig::new(128, 30, 0xF1EE7);
        fleet.population = ScalePopulation::FleetMix;
        let a = run_planner_scale(&fleet);
        let b = run_planner_scale(&fleet);
        assert_eq!(a.digest, b.digest, "fleet population is a pure function");
        let uniform = run_planner_scale(&ScaleConfig::new(128, 30, 0xF1EE7));
        assert_ne!(
            a.digest, uniform.digest,
            "the zipf-skewed mix must steer the planner differently"
        );
        assert_eq!(a.transfers + a.theta_retries + a.converges, 30);
    }

    #[test]
    fn thousand_apps_complete() {
        let r = run_planner_scale(&ScaleConfig::new(1000, 10, 3));
        assert_eq!(r.n_apps, 1000);
        assert_eq!(r.transfers + r.theta_retries + r.converges, 10);
    }
}
