//! LFOC-style cache clustering: applications with the same dual-FSM
//! sensitivity classification share one CAT partition.
//!
//! The paper's exploration (Algorithm 1) gives every application its own
//! disjoint partition and walks the state space one transfer at a time.
//! LFOC ("Lightweight Fair Optimal Clustering", Selfa et al. — the Fig
//! 8/9 sensitivity-classification line of work) takes the opposite
//! bet: applications whose classifications agree do not need separate
//! partitions at all. Grouping them into a handful of *clusters*, each
//! backed by one shared CAT region, frees CLOS ids, shrinks the search
//! space to a closed-form apportionment, and converges in one step.
//!
//! This module is the pure half of that policy engine
//! ([`crate::policies::PolicyKind::LfocCluster`]): deterministic cluster
//! formation from the classifier verdicts the planner already produces,
//! plus the shared-mask layout the actuator writes. No RNG is consulted
//! anywhere — the plan is a pure function of the classifications, which
//! is exactly what the `cluster-assignment-deterministic` oracle in
//! `copart-check` pins.
//!
//! # Representation
//!
//! A cluster plan is a pair:
//!
//! * `clusters: Vec<u16>` — per-application cluster id, dense `0..k`;
//! * a member [`SystemState`] — per-application `(ways, mba)` where every
//!   member of a cluster carries its cluster's *shared* grant.
//!
//! The member state deliberately violates [`SystemState::is_valid`]'s
//! sum-of-ways invariant (two members of a 6-way cluster both record 6
//! ways); the layout therefore goes through [`cluster_masks_into`],
//! which sums ways *per cluster*, not per application. An empty
//! `clusters` vector means "no clustering" everywhere in the runtime —
//! the exploration planner's disjoint layout applies.

use copart_rdt::{CbmMask, MbaLevel};

use crate::fsm::AppState;
use crate::next_state::AppClassification;
use crate::state::{AllocationState, SystemState, WaysBudget};

/// Upper bound on clusters: one per `(LLC, MBA)` classification pair.
pub const MAX_CLUSTERS: usize = 9;

/// Canonical rank of a classifier state (Supply < Maintain < Demand).
fn rank(s: AppState) -> usize {
    match s {
        AppState::Supply => 0,
        AppState::Maintain => 1,
        AppState::Demand => 2,
    }
}

/// Canonical key of a classification pair: clusters are numbered in
/// ascending key order, so the assignment is independent of app order
/// permutations *within* a class and stable across epochs.
fn class_key(c: &AppClassification) -> usize {
    rank(c.llc) * 3 + rank(c.mba)
}

/// Per-member LLC way weight of a sensitivity class: a demanding member
/// pulls four shares, a maintaining one two, a supplier one. The
/// apportionment below hands out ways proportionally to the summed
/// weights, so clusters full of cache-hungry members get wide regions.
fn llc_weight(s: AppState) -> u64 {
    match s {
        AppState::Supply => 1,
        AppState::Maintain => 2,
        AppState::Demand => 4,
    }
}

/// The MBA grant of a sensitivity class, proportional to its bandwidth
/// demand and clipped to the budget cap: suppliers are throttled to
/// 30 %, maintainers to 60 %, demanders get the full cap.
fn mba_grant(s: AppState, cap: MbaLevel) -> MbaLevel {
    match s {
        AppState::Supply => MbaLevel::new(30).min(cap),
        AppState::Maintain => MbaLevel::new(60).min(cap),
        AppState::Demand => cap,
    }
}

/// Forms the cluster plan for one epoch: groups applications by their
/// `(LLC, MBA)` classification pair, apportions the budget ways across
/// the clusters by largest remainder (each cluster floored at one way;
/// ties break toward the lower cluster id), and grants each cluster the
/// MBA level of its bandwidth class. Writes the per-application cluster
/// ids into `clusters` and the shared member allocations into `state`
/// (buffers reused; no allocation in steady state).
///
/// The result is a pure function of `(apps, budget)` — no RNG, no
/// history — so re-running it on identical inputs is byte-identical.
///
/// # Panics
///
/// Panics when `apps` is empty or the distinct classes outnumber the
/// budget ways (every cluster needs at least one way).
pub fn form_clusters_into(
    apps: &[AppClassification],
    budget: &WaysBudget,
    clusters: &mut Vec<u16>,
    state: &mut SystemState,
) {
    assert!(!apps.is_empty(), "need at least one application");
    let mut members = [0u64; MAX_CLUSTERS];
    let mut weights = [0u64; MAX_CLUSTERS];
    for a in apps {
        let key = class_key(a);
        members[key] += 1;
        weights[key] += llc_weight(a.llc);
    }

    // Dense cluster ids in ascending class-key order.
    let mut id_of = [u16::MAX; MAX_CLUSTERS];
    let mut ways = [0u32; MAX_CLUSTERS];
    let mut mba = [MbaLevel::MAX; MAX_CLUSTERS];
    let mut weight = [0u64; MAX_CLUSTERS];
    let mut k = 0usize;
    for key in 0..MAX_CLUSTERS {
        if members[key] == 0 {
            continue;
        }
        id_of[key] = k as u16;
        weight[k] = weights[key];
        mba[k] = mba_grant(
            match key % 3 {
                0 => AppState::Supply,
                1 => AppState::Maintain,
                _ => AppState::Demand,
            },
            budget.mba_cap,
        );
        k += 1;
    }
    assert!(
        k as u32 <= budget.total_ways,
        "{k} clusters cannot each get a way out of {}",
        budget.total_ways
    );

    // Largest-remainder apportionment of the ways beyond the one-way
    // floor, weighted by summed member demand.
    let spare = budget.total_ways - k as u32;
    let total_weight: u64 = weight[..k].iter().sum();
    let mut fractions = [(0u64, 0usize); MAX_CLUSTERS];
    let mut handed = 0u32;
    for c in 0..k {
        let exact = u64::from(spare) * weight[c];
        let share = (exact / total_weight) as u32;
        ways[c] = 1 + share;
        handed += share;
        fractions[c] = (exact % total_weight, c);
    }
    let mut leftover = spare - handed;
    // Highest remainder first; equal remainders go to the lower id.
    fractions[..k].sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, c) in fractions[..k].iter() {
        if leftover == 0 {
            break;
        }
        ways[c] += 1;
        leftover -= 1;
    }

    clusters.clear();
    state.allocs.clear();
    for a in apps {
        let c = id_of[class_key(a)];
        clusters.push(c);
        state.allocs.push(AllocationState {
            ways: ways[usize::from(c)],
            mba: mba[usize::from(c)],
        });
    }
}

/// Checks the cluster-plan invariants against a budget: the assignment
/// covers every application with dense ids `0..k` (`k ≤`
/// [`MAX_CLUSTERS`]), every member of a cluster carries the identical
/// shared allocation, every cluster holds at least one way, the
/// *per-cluster* way total fits the budget, and no grant exceeds the
/// MBA cap.
pub fn clusters_are_valid(clusters: &[u16], state: &SystemState, budget: &WaysBudget) -> bool {
    if clusters.is_empty() || clusters.len() != state.allocs.len() {
        return false;
    }
    let mut alloc_of: [Option<AllocationState>; MAX_CLUSTERS] = [None; MAX_CLUSTERS];
    let mut highest = 0usize;
    for (&c, a) in clusters.iter().zip(&state.allocs) {
        let c = usize::from(c);
        if c >= MAX_CLUSTERS {
            return false;
        }
        highest = highest.max(c);
        match alloc_of[c] {
            None => alloc_of[c] = Some(*a),
            Some(shared) if shared != *a => return false,
            Some(_) => {}
        }
    }
    let k = highest + 1;
    if alloc_of[..k].iter().any(Option::is_none) {
        return false; // Ids must be dense.
    }
    let mut total = 0u32;
    for a in alloc_of[..k].iter().flatten() {
        if a.ways < 1 || a.mba > budget.mba_cap {
            return false;
        }
        total += a.ways;
    }
    total <= budget.total_ways
}

/// Lays a cluster plan out as CAT masks, one per *application*: clusters
/// get contiguous, mutually disjoint regions packed from
/// `budget.first_way` upward in cluster-id order (spare budget ways are
/// appended to the last cluster so the cache is never wasted), and every
/// member of a cluster receives its cluster's identical mask. Members
/// sharing a mask is legal under CAT — allocation is restricted, lookup
/// is not — and is the whole point of the clustering policy.
///
/// The buffer is cleared first, mirroring [`SystemState::masks_into`].
///
/// # Panics
///
/// Panics when the plan violates [`clusters_are_valid`]; callers must
/// only lay out valid plans.
pub fn cluster_masks_into(
    clusters: &[u16],
    state: &SystemState,
    budget: &WaysBudget,
    machine_ways: u32,
    out: &mut Vec<CbmMask>,
) {
    assert!(
        clusters_are_valid(clusters, state, budget),
        "cannot lay out an invalid cluster plan"
    );
    out.clear();
    let k = usize::from(*clusters.iter().max().expect("non-empty")) + 1;
    let mut cluster_ways = [0u32; MAX_CLUSTERS];
    for (&c, a) in clusters.iter().zip(&state.allocs) {
        cluster_ways[usize::from(c)] = a.ways;
    }
    let spare = budget.total_ways - cluster_ways[..k].iter().sum::<u32>();
    let mut region = [(0u32, 0u32); MAX_CLUSTERS];
    let mut start = budget.first_way;
    for (c, slot) in region[..k].iter_mut().enumerate() {
        let count = cluster_ways[c] + if c == k - 1 { spare } else { 0 };
        *slot = (start, count);
        start += count;
    }
    out.extend(clusters.iter().map(|&c| {
        let (start, count) = region[usize::from(c)];
        CbmMask::contiguous(start, count, machine_ways).expect("valid plan fits the machine")
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget11() -> WaysBudget {
        WaysBudget::full_machine(11)
    }

    fn class(llc: AppState, mba: AppState) -> AppClassification {
        AppClassification {
            llc,
            mba,
            slowdown: 1.0,
        }
    }

    fn form_clusters(apps: &[AppClassification], budget: &WaysBudget) -> (Vec<u16>, SystemState) {
        let mut clusters = Vec::new();
        let mut state = SystemState::default();
        form_clusters_into(apps, budget, &mut clusters, &mut state);
        (clusters, state)
    }

    fn mixed() -> Vec<AppClassification> {
        vec![
            class(AppState::Demand, AppState::Supply),
            class(AppState::Supply, AppState::Supply),
            class(AppState::Demand, AppState::Supply),
            class(AppState::Maintain, AppState::Demand),
        ]
    }

    #[test]
    fn same_class_shares_a_cluster_and_allocation() {
        let (clusters, state) = form_clusters(&mixed(), &budget11());
        assert_eq!(clusters.len(), 4);
        assert_eq!(clusters[0], clusters[2], "same class ⇒ same cluster");
        assert_ne!(clusters[0], clusters[1]);
        assert_ne!(clusters[0], clusters[3]);
        assert_eq!(state.allocs[0], state.allocs[2]);
        assert!(clusters_are_valid(&clusters, &state, &budget11()));
    }

    #[test]
    fn formation_is_deterministic() {
        let apps = mixed();
        let a = form_clusters(&apps, &budget11());
        let b = form_clusters(&apps, &budget11());
        assert_eq!(a, b, "identical inputs must produce identical plans");
    }

    #[test]
    fn demand_heavy_clusters_get_more_ways() {
        let (clusters, state) = form_clusters(&mixed(), &budget11());
        let demand_ways = state.allocs[0].ways; // Two Demand members.
        let supply_ways = state.allocs[1].ways; // One Supply member.
        assert!(
            demand_ways > supply_ways,
            "demanders {demand_ways} vs supplier {supply_ways}"
        );
        // Per-cluster totals, not per-member totals, fit the budget.
        let mut seen = std::collections::BTreeSet::new();
        let total: u32 = clusters
            .iter()
            .zip(&state.allocs)
            .filter(|(c, _)| seen.insert(**c))
            .map(|(_, a)| a.ways)
            .sum();
        assert!(total <= 11);
        assert!(total >= 11 - 1, "apportionment should not strand ways");
    }

    #[test]
    fn mba_grants_follow_the_bandwidth_class_and_cap() {
        let capped = WaysBudget {
            first_way: 0,
            total_ways: 11,
            mba_cap: MbaLevel::new(50),
        };
        let (_, state) = form_clusters(&mixed(), &capped);
        assert_eq!(state.allocs[0].mba.percent(), 30, "bandwidth supplier");
        assert_eq!(state.allocs[3].mba.percent(), 50, "demander hits the cap");
    }

    #[test]
    fn masks_are_shared_within_and_disjoint_across_clusters() {
        let (clusters, state) = form_clusters(&mixed(), &budget11());
        let mut masks = Vec::new();
        cluster_masks_into(&clusters, &state, &budget11(), 11, &mut masks);
        assert_eq!(masks[0], masks[2], "cluster members share one mask");
        assert_eq!(masks[0].bits() & masks[1].bits(), 0);
        assert_eq!(masks[0].bits() & masks[3].bits(), 0);
        assert_eq!(masks[1].bits() & masks[3].bits(), 0);
        let union = masks.iter().fold(0u32, |u, m| u | m.bits());
        assert_eq!(union, 0x7ff, "cluster regions must cover the budget");
    }

    #[test]
    fn single_class_collapses_to_one_cluster_over_the_whole_budget() {
        let apps = vec![class(AppState::Supply, AppState::Supply); 3];
        let (clusters, state) = form_clusters(&apps, &budget11());
        assert!(clusters.iter().all(|&c| c == 0));
        let mut masks = Vec::new();
        cluster_masks_into(&clusters, &state, &budget11(), 11, &mut masks);
        assert!(masks.iter().all(|m| m.bits() == 0x7ff));
    }

    #[test]
    fn validity_rejects_ragged_and_oversized_plans() {
        let (clusters, mut state) = form_clusters(&mixed(), &budget11());
        assert!(clusters_are_valid(&clusters, &state, &budget11()));
        // A member diverging from its cluster's shared grant.
        state.allocs[2].ways += 1;
        assert!(!clusters_are_valid(&clusters, &state, &budget11()));
        state.allocs[2].ways -= 1;
        // Non-dense ids.
        let ragged = vec![0u16, 2, 0, 3];
        assert!(!clusters_are_valid(&ragged, &state, &budget11()));
        // Length mismatch and emptiness.
        assert!(!clusters_are_valid(&clusters[..3], &state, &budget11()));
        assert!(!clusters_are_valid(
            &[],
            &SystemState::default(),
            &budget11()
        ));
    }

    #[test]
    fn budget_offset_shifts_cluster_regions() {
        let budget = WaysBudget {
            first_way: 6,
            total_ways: 5,
            mba_cap: MbaLevel::new(40),
        };
        let apps = vec![
            class(AppState::Demand, AppState::Demand),
            class(AppState::Supply, AppState::Supply),
        ];
        let (clusters, state) = form_clusters(&apps, &budget);
        let mut masks = Vec::new();
        cluster_masks_into(&clusters, &state, &budget, 11, &mut masks);
        assert!(masks.iter().all(|m| m.ways().all(|w| w >= 6)));
        let union = masks.iter().fold(0u32, |u, m| u | m.bits());
        assert_eq!(union, 0b0111_1100_0000);
        assert!(state.allocs.iter().all(|a| a.mba <= budget.mba_cap));
    }
}
