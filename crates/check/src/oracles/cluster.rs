//! Oracle for the LFOC cluster planner (`copart_core::cluster`).
//!
//! The clustering engine's whole contract is that the plan is a *pure
//! function of the classifications* — no RNG, no history — and that the
//! shared-partition layout it produces is feasible CAT schemata. Each
//! case draws a population of dual-FSM verdicts plus a ways budget and
//! demands:
//!
//! * double-run equality: forming the clusters twice from the same
//!   inputs yields byte-identical `(ids, allocations)`;
//! * permutation consistency: shuffling the applications only permutes
//!   the assignment — each application keeps its cluster's allocation;
//! * plan validity (`clusters_are_valid`): dense ids, shared per-cluster
//!   grants, the one-way floor, and the budget cap;
//! * layout feasibility (`cluster_masks_into`): members of one cluster
//!   share an identical mask, distinct clusters get disjoint regions,
//!   and the regions tile exactly the budget's way range.

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_core::cluster::{cluster_masks_into, clusters_are_valid, form_clusters_into};
use copart_core::next_state::AppClassification;
use copart_core::{AppState, SystemState, WaysBudget};
use copart_rdt::MbaLevel;

const STATES: [AppState; 3] = [AppState::Supply, AppState::Maintain, AppState::Demand];

fn cluster_case(src: &mut Source) -> CaseOutcome {
    let n_apps = src.size(1, 8);
    let apps: Vec<AppClassification> = (0..n_apps)
        .map(|_| AppClassification {
            llc: *src.pick(&STATES),
            mba: *src.pick(&STATES),
            slowdown: src.f64_in(1.0, 4.0),
        })
        .collect();
    // Every distinct class needs a way, so floor the budget at the
    // class count (the panic branch is the planner's own guard).
    let distinct = {
        let mut seen = [false; 9];
        for a in &apps {
            seen[states_key(a)] = true;
        }
        seen.iter().filter(|&&s| s).count()
    };
    let first_way = src.below(4) as u32;
    let total_ways = src.size(distinct, 11) as u32;
    let cap = MbaLevel::new(src.size(10, 100) as u8);
    let budget = WaysBudget {
        first_way,
        total_ways,
        mba_cap: cap,
    };
    let machine_ways = first_way + total_ways;
    let witness = format!(
        "apps={:?} first_way={first_way} total_ways={total_ways} cap={}",
        apps.iter().map(|a| (a.llc, a.mba)).collect::<Vec<_>>(),
        cap.percent()
    );

    // A drawn permutation for the consistency check.
    let mut perm: Vec<usize> = (0..n_apps).collect();
    for i in (1..n_apps).rev() {
        let j = src.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }

    let verdict = check_case(&apps, &perm, &budget, machine_ways);
    CaseOutcome { witness, verdict }
}

/// The same `(llc, mba)` pairing key the planner uses, recomputed
/// independently so a planner keying bug cannot hide from the oracle.
fn states_key(a: &AppClassification) -> usize {
    let rank = |s: AppState| match s {
        AppState::Supply => 0,
        AppState::Maintain => 1,
        AppState::Demand => 2,
    };
    rank(a.llc) * 3 + rank(a.mba)
}

fn check_case(
    apps: &[AppClassification],
    perm: &[usize],
    budget: &WaysBudget,
    machine_ways: u32,
) -> Result<(), String> {
    // Permutation consistency: shuffling applications permutes the
    // assignment but never changes any application's shared grant.
    let shuffled: Vec<AppClassification> = perm.iter().map(|&i| apps[i]).collect();
    let (mut p_clusters, mut p_state) = (Vec::new(), SystemState::default());
    form_clusters_into(&shuffled, budget, &mut p_clusters, &mut p_state);

    // Double-run equality: the plan is a pure function of its inputs —
    // also when the buffers it writes into still hold another plan.
    let (mut clusters, mut state) = (Vec::new(), SystemState::default());
    form_clusters_into(apps, budget, &mut clusters, &mut state);
    let mut again = (p_clusters.clone(), p_state.clone());
    form_clusters_into(apps, budget, &mut again.0, &mut again.1);
    if (clusters.clone(), state.clone()) != again {
        return Err(format!(
            "two runs on identical inputs diverge: {clusters:?}/{:?} vs {again:?}",
            state.allocs
        ));
    }

    for (pos, &i) in perm.iter().enumerate() {
        if p_state.allocs[pos] != state.allocs[i] {
            return Err(format!(
                "app {i} changed allocation under permutation: {:?} vs {:?}",
                p_state.allocs[pos], state.allocs[i]
            ));
        }
        // Same original class ⇒ same cluster, in both orders.
        for (pos2, &i2) in perm.iter().enumerate() {
            let together = clusters[i] == clusters[i2];
            let p_together = p_clusters[pos] == p_clusters[pos2];
            if together != p_together {
                return Err(format!(
                    "permutation split/merged a cluster: apps {i},{i2} together={together} permuted={p_together}"
                ));
            }
        }
    }

    // Structural validity under the budget.
    if !clusters_are_valid(&clusters, &state, budget) {
        return Err(format!(
            "formed plan fails its own validity check: {clusters:?}/{:?}",
            state.allocs
        ));
    }

    // Feasibility of the shared-partition schemata.
    let mut masks = Vec::new();
    cluster_masks_into(&clusters, &state, budget, machine_ways, &mut masks);
    if masks.len() != apps.len() {
        return Err(format!("{} masks for {} apps", masks.len(), apps.len()));
    }
    for i in 0..apps.len() {
        for j in (i + 1)..apps.len() {
            let same = clusters[i] == clusters[j];
            let a = masks[i].bits();
            let b = masks[j].bits();
            if same && a != b {
                return Err(format!(
                    "cluster {} members {i},{j} got different masks {a:#x}/{b:#x}",
                    clusters[i]
                ));
            }
            if !same && a & b != 0 {
                return Err(format!(
                    "clusters {}/{} overlap: masks {a:#x}/{b:#x}",
                    clusters[i], clusters[j]
                ));
            }
        }
    }
    let union = masks.iter().fold(0u32, |u, m| u | m.bits());
    let expected = ((1u32 << budget.total_ways) - 1) << budget.first_way;
    if union != expected {
        return Err(format!(
            "cluster regions {union:#x} do not tile the budget range {expected:#x}"
        ));
    }
    Ok(())
}

/// The cluster assignment determinism oracle.
pub fn properties() -> Vec<Property> {
    vec![Property::new(
        "cluster-assignment-deterministic",
        cluster_case,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..64 {
            let mut src = Source::from_seed(seed);
            let out = cluster_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }

    #[test]
    fn zero_tape_is_the_minimal_single_app_case() {
        let mut src = Source::replay(&[]);
        let out = cluster_case(&mut src);
        assert_eq!(out.verdict, Ok(()), "{}", out.witness);
        assert!(out.witness.contains("total_ways=1"), "{}", out.witness);
    }
}
