//! The planning layer: the plan/commit seam every planning algorithm
//! sits behind.
//!
//! The third stage of the control-plane pipeline (DESIGN.md §12).
//! [`Explorer`] holds the per-runtime planning state (the RNG, the
//! θ-retry counter, the best state seen, the idle-phase drift threshold)
//! and is the only code that knows which algorithm runs. Each exploring
//! epoch [`Explorer::plan_into`] turns the classifier verdicts into one
//! uniform [`Plan`] — proposal, per-app events, cluster assignment,
//! decision — and [`Explorer::commit`] closes the epoch once the driver
//! knows whether the plan landed. [`layout_masks_into`] is the single
//! place a partition becomes CAT masks.

use copart_rng::XorShift64Star;

use copart_rdt::CbmMask;

use crate::cluster;
use crate::next_state::{
    get_next_system_state_greedy, get_next_system_state_into, AppClassification, AppliedEvents,
    ExploreScratch, StepStats,
};
use crate::runtime::{PlannerMode, RuntimeConfig};
use crate::state::{SystemState, WaysBudget};

/// What the driver should do with a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanDecision {
    /// The step moved resources: apply the target and feed each
    /// application its transfer events.
    Transfer = 1,
    /// The matching stalled; the proposal is a random neighbor restart
    /// (Algorithm 1 lines 11–14). A rolled-back apply does not consume a
    /// θ-retry: nothing new was tried.
    ThetaRetry = 2,
    /// Exploration converged: go idle, after settling on the best state
    /// seen when the plan carries one as its target.
    #[default]
    Converge = 3,
}

impl PlanDecision {
    /// The decision's stable numeric tag — the explicit discriminant
    /// above. The planner-scale digests hash it, so it never changes with
    /// declaration order.
    pub fn tag(self) -> u64 {
        self as u64
    }
}

/// One exploring epoch's plan, uniform across planning algorithms, plus
/// the buffers that make writing it allocation-free in steady state. The
/// runtime holds one and hands it to [`Explorer::plan_into`] every epoch.
#[derive(Debug, Default)]
pub struct Plan {
    /// What the trace records as the epoch's proposal: the step's output
    /// (also when it stalled into [`PlanDecision::Converge`]) or the
    /// random neighbor of a [`PlanDecision::ThetaRetry`].
    pub proposal: SystemState,
    /// Per-application transfers that take effect when the
    /// [`target`](Plan::target) lands (same indexing as the apps).
    pub events: Vec<AppliedEvents>,
    /// Cluster assignment the target is laid out under (see
    /// [`layout_masks_into`]); empty = disjoint per-application masks.
    pub clusters: Vec<u16>,
    /// What the driver should do.
    pub decision: PlanDecision,
    /// Instability-chaining iterations of the matching step; `None` when
    /// the algorithm has no matching step to count.
    pub matching_rounds: Option<u32>,
    /// Best `(unfairness, state)` seen, when converging onto it beats
    /// staying put.
    settle: Option<(f64, SystemState)>,
    /// Incremental matching buffers + role cache.
    explore: ExploreScratch,
}

impl Plan {
    /// The state to apply: the proposal of a transfer or θ-retry, the
    /// best state seen of a settling converge, nothing otherwise.
    pub fn target(&self) -> Option<&SystemState> {
        match self.decision {
            PlanDecision::Transfer | PlanDecision::ThetaRetry => Some(&self.proposal),
            PlanDecision::Converge => self.settle.as_ref().map(|(_, best)| best),
        }
    }

    /// Number of distinct clusters the target is laid out under (the
    /// assignment is dense); `None` for a disjoint per-application plan.
    /// The driver's cluster metrics come from here, so it never asks
    /// which algorithm planned.
    pub fn cluster_count(&self) -> Option<usize> {
        self.clusters.iter().max().map(|&top| usize::from(top) + 1)
    }

    /// Role-cache `(hits, misses)` of the matching step so far (see
    /// [`ExploreScratch`]).
    pub fn role_cache(&self) -> (u64, u64) {
        (self.explore.cache_hits(), self.explore.cache_misses())
    }
}

/// The one place that knows how a partition becomes CAT masks: an empty
/// cluster assignment lays `state` out as disjoint per-application
/// regions, a non-empty one as shared per-cluster regions (members of a
/// cluster get the identical mask). `out` is cleared first.
///
/// # Panics
///
/// Panics when the state (or cluster plan) does not fit the budget.
pub fn layout_masks_into(
    state: &SystemState,
    clusters: &[u16],
    budget: &WaysBudget,
    machine_ways: u32,
    out: &mut Vec<CbmMask>,
) {
    if clusters.is_empty() {
        state.masks_into(budget, machine_ways, out);
    } else {
        cluster::cluster_masks_into(clusters, state, budget, machine_ways, out);
    }
}

/// Derives per-application events from the difference between two states
/// (for plans whose step does not produce them), into a reusable buffer.
fn diff_events_into(from: &SystemState, to: &SystemState, out: &mut Vec<AppliedEvents>) {
    out.clear();
    out.extend(
        from.allocs
            .iter()
            .zip(&to.allocs)
            .map(|(a, b)| AppliedEvents {
                granted_llc: b.ways > a.ways,
                reclaimed_llc: b.ways < a.ways,
                granted_mba: b.mba > a.mba,
                reclaimed_mba: b.mba < a.mba,
            }),
    );
}

/// The planner: the only module that knows which algorithm turns the
/// classifier verdicts into the epoch's [`Plan`] — the §5.4.2 exploration
/// (Algorithm 1, with the Hospitals/Residents matching or its greedy
/// ablation as the step) or the LFOC-style clusterer. Owns everything
/// planning is stateful about: the RNG that drives matching tie-breaks
/// and neighbor restarts, the θ-retry counter, the best `(unfairness,
/// state)` seen, and the unfairness the manager last went idle at.
#[derive(Debug)]
pub struct Explorer {
    rng: XorShift64Star,
    retry_count: u32,
    unfairness_at_idle: f64,
    /// Best (lowest-unfairness) state observed during the current
    /// exploration, and its unfairness. Random neighbor restarts can walk
    /// into worse states with no supplier able to undo them; the manager
    /// settles on the best state seen when it goes idle.
    best_seen: Option<(f64, SystemState)>,
}

impl Explorer {
    /// A fresh explorer seeded with the controller seed.
    pub fn new(seed: u64) -> Explorer {
        Explorer {
            rng: XorShift64Star::seed_from_u64(seed),
            retry_count: 0,
            unfairness_at_idle: 0.0,
            best_seen: None,
        }
    }

    /// θ-retries consumed in the current exploration (traced per epoch).
    pub fn retry_count(&self) -> u32 {
        self.retry_count
    }

    /// Begins a new exploration: forgets the retry budget and the best
    /// state seen (membership, budget, weight changes, re-exploration).
    pub fn restart(&mut self) {
        self.retry_count = 0;
        self.best_seen = None;
    }

    /// Plans one exploring epoch into `plan`. `current`/`clusters` are
    /// the partition in force during the period just measured, `apps` the
    /// classifier verdicts, `unfairness` what that period measured, and
    /// `measured` whether it rests on two real counter samples for every
    /// application (the first period after (re)starting carries bootstrap
    /// slowdowns — exactly 1.0 for everyone, unfairness 0 — which must
    /// not be remembered as the best state seen).
    ///
    /// The algorithm is selected from `cfg` once per plan. Steady-state
    /// calls allocate nothing; pair every call with one
    /// [`Explorer::commit`].
    #[allow(clippy::too_many_arguments)]
    pub fn plan_into(
        &mut self,
        cfg: &RuntimeConfig,
        current: &SystemState,
        clusters: &[u16],
        apps: &[AppClassification],
        unfairness: f64,
        measured: bool,
        plan: &mut Plan,
    ) {
        plan.settle = None;
        match cfg.planner {
            PlannerMode::Explore => {
                self.explore_into(cfg, current, apps, unfairness, measured, plan)
            }
            PlannerMode::LfocCluster => cluster_into(cfg, current, clusters, apps, plan),
        }
    }

    /// One Algorithm 1 step: run the matching (or the greedy ablation)
    /// over the classifier verdicts and decide whether to transfer,
    /// restart from a random neighbor, or converge.
    fn explore_into(
        &mut self,
        cfg: &RuntimeConfig,
        current: &SystemState,
        apps: &[AppClassification],
        unfairness: f64,
        measured: bool,
        plan: &mut Plan,
    ) {
        // The unfairness just measured belongs to the state that was in
        // force during this period; remember the best.
        if measured
            && unfairness.is_finite()
            && self.best_seen.as_ref().is_none_or(|(u, _)| unfairness < *u)
        {
            self.best_seen = Some((unfairness, current.clone()));
        }
        let p = &cfg.params;
        let stats = if p.use_hr_matching {
            get_next_system_state_into(
                current,
                apps,
                &cfg.budget,
                &mut self.rng,
                cfg.manage_llc,
                cfg.manage_mba,
                &mut plan.explore,
                &mut plan.proposal,
                &mut plan.events,
            )
        } else {
            let outcome = get_next_system_state_greedy(
                current,
                apps,
                &cfg.budget,
                cfg.manage_llc,
                cfg.manage_mba,
            );
            plan.proposal.allocs.clone_from(&outcome.state.allocs);
            plan.events.clone_from(&outcome.events);
            StepStats {
                changed: outcome.changed,
                matching_rounds: outcome.matching_rounds,
            }
        };
        plan.clusters.clear();
        plan.matching_rounds = Some(stats.matching_rounds);
        plan.decision = if stats.changed {
            PlanDecision::Transfer
        } else if self.retry_count < p.theta_retries && (cfg.manage_llc || cfg.manage_mba) {
            // Algorithm 1 lines 11–14: random neighbor restart (overwrites
            // the stalled matching output in the proposal buffer).
            current.neighbor_into(
                &cfg.budget,
                &mut self.rng,
                cfg.manage_llc,
                cfg.manage_mba,
                &mut plan.proposal,
            );
            diff_events_into(current, &plan.proposal, &mut plan.events);
            PlanDecision::ThetaRetry
        } else {
            // Converged: settle on the best state seen during this
            // exploration (random restarts may have left us on a worse
            // state with no producer able to undo them). The proposal
            // stays the stalled matching output.
            plan.settle = self
                .best_seen
                .take()
                .filter(|(best_u, best)| *best != *current && *best_u < unfairness);
            if let Some((_, best)) = &plan.settle {
                diff_events_into(current, best, &mut plan.events);
            }
            PlanDecision::Converge
        };
    }

    /// Closes the epoch [`Explorer::plan_into`] opened: `landed` says
    /// whether the plan's target was applied (false on a rollback, and
    /// when there was no target), `unfairness` is the epoch's measured
    /// value. A landed transfer breaks the stall streak, a landed restart
    /// consumes one θ-retry, and a converge records the unfairness the
    /// manager goes idle at (§5.4.3) — the settled state's when it landed.
    pub fn commit(&mut self, plan: &Plan, landed: bool, unfairness: f64) {
        match plan.decision {
            PlanDecision::Transfer if landed => self.retry_count = 0,
            PlanDecision::ThetaRetry if landed => self.retry_count += 1,
            PlanDecision::Transfer | PlanDecision::ThetaRetry => {}
            PlanDecision::Converge => {
                self.unfairness_at_idle = match &plan.settle {
                    Some((best_u, _)) if landed => *best_u,
                    _ => unfairness,
                };
            }
        }
    }

    /// Whether the fairness picture has drifted enough from the idle
    /// point to resume adaptation (§5.4.3).
    pub fn should_reexplore(&self, current_unfairness: f64) -> bool {
        current_unfairness > self.unfairness_at_idle * 1.5 + 0.02
    }

    /// Captures the explorer's complete state — RNG stream position,
    /// retry budget, idle threshold, and best state seen — for crash
    /// recovery.
    pub fn snapshot(&self) -> ExplorerSnapshot {
        ExplorerSnapshot {
            rng_state: self.rng.state(),
            retry_count: self.retry_count,
            unfairness_at_idle: self.unfairness_at_idle,
            best_seen: self.best_seen.clone(),
        }
    }

    /// Rebuilds an explorer from a captured state; planning resumes with
    /// the identical RNG draw sequence.
    pub fn from_snapshot(snap: &ExplorerSnapshot) -> Explorer {
        Explorer {
            rng: XorShift64Star::from_state(snap.rng_state),
            retry_count: snap.retry_count,
            unfairness_at_idle: snap.unfairness_at_idle,
            best_seen: snap.best_seen.clone(),
        }
    }
}

/// The LFOC-style plan ([`crate::cluster`]): recompute the clusters from
/// this epoch's classifications — a pure function, no RNG draws, no
/// explorer state. An unchanged plan means the classifications have
/// settled; a changed one is switched to like an Algorithm 1 transfer.
fn cluster_into(
    cfg: &RuntimeConfig,
    current: &SystemState,
    clusters: &[u16],
    apps: &[AppClassification],
    plan: &mut Plan,
) {
    cluster::form_clusters_into(apps, &cfg.budget, &mut plan.clusters, &mut plan.proposal);
    plan.matching_rounds = None;
    plan.decision = if plan.clusters == clusters && plan.proposal == *current {
        PlanDecision::Converge
    } else {
        diff_events_into(current, &plan.proposal, &mut plan.events);
        PlanDecision::Transfer
    };
}

/// Frozen state of an [`Explorer`] (see [`Explorer::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorerSnapshot {
    /// Raw RNG state word.
    pub rng_state: u64,
    /// θ-retries consumed in the current exploration.
    pub retry_count: u32,
    /// Unfairness at the last idle transition (§5.4.3 drift baseline).
    pub unfairness_at_idle: f64,
    /// Best `(unfairness, state)` observed this exploration.
    pub best_seen: Option<(f64, SystemState)>,
}
