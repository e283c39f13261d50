//! Differential oracle for the incremental Algorithm 2 step.
//!
//! `get_next_system_state_into` — the step the controller runs — keeps a
//! role cache and scratch buffers alive across epochs and recomputes only
//! the applications whose role key changed; [`get_next_system_state`],
//! the reference kept here and nowhere else, rebuilds the matching
//! instance from scratch every call on top of the reference chaining
//! scan. The two must be *byte-identical* —
//! same proposal, same per-app events, same round count, and the same
//! RNG draw sequence — on every epoch of a chained run, under churned
//! classifications, partial management, and converged steady states.
//! A divergence here means the cache invalidation is wrong, which the
//! planner's `plan_into` fast path would silently inherit.

use copart_core::fsm::AppState;
use copart_core::next_state::{
    get_next_system_state_into, AppClassification, AppliedEvents, ExploreScratch, TransferOutcome,
};
use copart_core::state::{SystemState, WaysBudget};
use copart_matching::chain::Consumer;
use copart_rdt::{MbaLevel, ResourceKind};
use copart_rng::XorShift64Star;

use crate::oracles::matching::allocate;
use crate::property::{CaseOutcome, Property};
use crate::source::Source;

/// Category indices used in the matching instance.
const CAT_LLC: usize = 0;
const CAT_MBA: usize = 1;
const CAT_ANY: usize = 2;

/// Runs one `getNextSystemState` step from scratch — the reference.
///
/// `manage_llc` / `manage_mba` restrict which resources the controller
/// may move — the CAT-only and MBA-only baselines pin one of them.
pub fn get_next_system_state(
    current: &SystemState,
    apps: &[AppClassification],
    budget: &WaysBudget,
    rng: &mut XorShift64Star,
    manage_llc: bool,
    manage_mba: bool,
) -> TransferOutcome {
    assert_eq!(
        current.allocs.len(),
        apps.len(),
        "state/classification mismatch"
    );
    let n = apps.len();
    let mut state = current.clone();
    let mut events = vec![AppliedEvents::default(); n];

    // --- Producer pools (lines 2–5 of Algorithm 2). ---
    // `None` entries are virtual producers representing unallocated budget
    // ways; reclaiming from them costs nobody anything.
    let mut pool_llc: Vec<Option<usize>> = Vec::new();
    let mut pool_mba: Vec<Option<usize>> = Vec::new();
    let mut pool_any: Vec<Option<usize>> = Vec::new();
    for (i, (app, alloc)) in apps.iter().zip(&current.allocs).enumerate() {
        let can_llc = manage_llc && app.llc == AppState::Supply && alloc.ways > 1;
        let can_mba = manage_mba && app.mba == AppState::Supply && alloc.mba > MbaLevel::MIN;
        match (can_llc, can_mba) {
            (true, true) => pool_any.push(Some(i)),
            (true, false) => pool_llc.push(Some(i)),
            (false, true) => pool_mba.push(Some(i)),
            (false, false) => {}
        }
    }
    let spare_ways = budget.total_ways.saturating_sub(current.total_ways());
    if manage_llc {
        for _ in 0..spare_ways {
            pool_llc.push(None);
        }
    }
    // Producers are consumed lowest-slowdown first (virtual producers
    // first of all — they are free).
    let by_slowdown_asc = |a: &Option<usize>, b: &Option<usize>| match (a, b) {
        (None, None) => std::cmp::Ordering::Equal,
        (None, Some(_)) => std::cmp::Ordering::Less,
        (Some(_), None) => std::cmp::Ordering::Greater,
        (Some(x), Some(y)) => apps[*x]
            .slowdown
            .partial_cmp(&apps[*y].slowdown)
            .expect("slowdowns are not NaN")
            .then(x.cmp(y)),
    };
    pool_llc.sort_by(by_slowdown_asc);
    pool_mba.sort_by(by_slowdown_asc);
    pool_any.sort_by(by_slowdown_asc);

    // --- Consumers and their preference lists (lines 6–18). ---
    let mut consumer_apps: Vec<usize> = Vec::new();
    let mut consumers: Vec<Consumer> = Vec::new();
    // For ANY-demand consumers, the random specific-type priority (§5.4.2:
    // randomness avoids local optima).
    let mut any_choice: Vec<Option<ResourceKind>> = Vec::new();
    for (i, (app, alloc)) in apps.iter().zip(&current.allocs).enumerate() {
        let wants_llc = manage_llc && app.llc == AppState::Demand;
        let wants_mba = manage_mba && app.mba == AppState::Demand && alloc.mba < budget.mba_cap;
        let (preference, choice) = match (wants_llc, wants_mba) {
            (true, true) => {
                if rng.gen_bool(0.5) {
                    (vec![CAT_LLC, CAT_MBA, CAT_ANY], None)
                } else {
                    (vec![CAT_MBA, CAT_LLC, CAT_ANY], None)
                }
            }
            (true, false) => (vec![CAT_LLC, CAT_ANY], Some(ResourceKind::Llc)),
            (false, true) => (vec![CAT_MBA, CAT_ANY], Some(ResourceKind::MemoryBandwidth)),
            (false, false) => continue,
        };
        consumer_apps.push(i);
        any_choice.push(choice);
        consumers.push(Consumer {
            priority: app.slowdown,
            preference,
        });
    }

    let capacities = [pool_llc.len(), pool_mba.len(), pool_any.len()];
    let allocation = allocate(&capacities, &consumers);

    // --- Step two: pair consumers with producers and transfer units
    // (lines 19–29). ---
    let mut cursor_llc = 0usize;
    let mut cursor_mba = 0usize;
    let mut cursor_any = 0usize;
    for t in [CAT_LLC, CAT_MBA, CAT_ANY] {
        for k in allocation.granted(t) {
            let c = consumer_apps[k];
            let kind = if t == CAT_LLC {
                ResourceKind::Llc
            } else if t == CAT_MBA {
                ResourceKind::MemoryBandwidth
            } else {
                match any_choice[k] {
                    Some(kind) => kind,
                    // Both the consumer and the producer accept either
                    // resource: pick randomly (search randomness, §5.4.2).
                    None => {
                        if rng.gen_bool(0.5) {
                            ResourceKind::Llc
                        } else {
                            ResourceKind::MemoryBandwidth
                        }
                    }
                }
            };
            let producer = match t {
                CAT_LLC => {
                    cursor_llc += 1;
                    pool_llc[cursor_llc - 1]
                }
                CAT_MBA => {
                    cursor_mba += 1;
                    pool_mba[cursor_mba - 1]
                }
                _ => {
                    cursor_any += 1;
                    pool_any[cursor_any - 1]
                }
            };
            // Reclaim from the producer.
            if let Some(p) = producer {
                match kind {
                    ResourceKind::Llc => {
                        debug_assert!(state.allocs[p].ways > 1);
                        state.allocs[p].ways -= 1;
                        events[p].reclaimed_llc = true;
                    }
                    ResourceKind::MemoryBandwidth => {
                        state.allocs[p].mba = state.allocs[p].mba.step_down();
                        events[p].reclaimed_mba = true;
                    }
                }
            }
            // Grant to the consumer.
            match kind {
                ResourceKind::Llc => {
                    state.allocs[c].ways += 1;
                    events[c].granted_llc = true;
                }
                ResourceKind::MemoryBandwidth => {
                    state.allocs[c].mba = state.allocs[c].mba.step_up().min(budget.mba_cap);
                    events[c].granted_mba = true;
                }
            }
        }
    }

    let changed = events.iter().any(|e| *e != AppliedEvents::default()) && state != *current;
    TransferOutcome {
        state,
        events,
        changed,
        matching_rounds: allocation.rounds,
    }
}

/// Slowdowns on a coarse grid, drawn part of the time so that equal
/// slowdowns — and with them the index tie-breaks of the keyed producer
/// and consumer orders — are common. `1.0` first: the runtime's
/// bootstrap epoch sees exactly that for every application.
const SLOWDOWN_GRID: [f64; 4] = [1.0, 1.5, 2.0, 3.0];

fn gen_class(src: &mut Source) -> AppClassification {
    let states = [AppState::Supply, AppState::Maintain, AppState::Demand];
    let llc = *src.pick(&states);
    let mba = *src.pick(&states);
    let slowdown = if src.chance(0.5) {
        *src.pick(&SLOWDOWN_GRID)
    } else {
        1.0 + src.f64_in(0.0, 3.0)
    };
    AppClassification { llc, mba, slowdown }
}

/// The property behind `matching-incremental-vs-rebuild`: a chained
/// multi-epoch run where the incremental step (persistent scratch +
/// role cache) must stay byte-identical to the from-scratch rebuild.
pub fn incremental_case(src: &mut Source) -> CaseOutcome {
    let n = src.size(1, 7);
    let budget = WaysBudget {
        first_way: 0,
        total_ways: src.size(n, 12) as u32,
        mba_cap: MbaLevel::MAX,
    };
    // `true` is the simpler (and more interesting) branch under shrinking.
    let manage_llc = src.chance(0.85);
    let manage_mba = src.chance(0.85);
    let epochs = src.size(1, 6);
    let seed = src.draw();
    let start_mba = MbaLevel::new(src.size(1, 10) as u8 * 10);

    let mut apps: Vec<AppClassification> = (0..n).map(|_| gen_class(src)).collect();
    let mut current = SystemState::equal_split(n, &budget, start_mba);

    let witness = format!(
        "n={n} ways={} llc={manage_llc} mba={manage_mba} epochs={epochs} \
         seed={seed:#x} start_mba={} apps={apps:?}",
        budget.total_ways,
        start_mba.percent(),
    );

    // Two identically seeded generators: the incremental step promises
    // the exact draw sequence of the reference, so the streams must stay
    // in lockstep across the whole chained run.
    let mut rng_inc = XorShift64Star::seed_from_u64(seed);
    let mut rng_ref = XorShift64Star::seed_from_u64(seed);
    let mut scratch = ExploreScratch::default();
    let mut proposal = SystemState::default();
    let mut events: Vec<AppliedEvents> = Vec::new();

    for epoch in 0..epochs {
        if epoch > 0 {
            for app in &mut apps {
                if src.chance(0.3) {
                    *app = gen_class(src);
                }
            }
        }
        let stats = get_next_system_state_into(
            &current,
            &apps,
            &budget,
            &mut rng_inc,
            manage_llc,
            manage_mba,
            &mut scratch,
            &mut proposal,
            &mut events,
        );
        let reference = get_next_system_state(
            &current,
            &apps,
            &budget,
            &mut rng_ref,
            manage_llc,
            manage_mba,
        );
        if proposal != reference.state {
            return CaseOutcome {
                witness,
                verdict: Err(format!(
                    "epoch {epoch}: state diverged: incremental {proposal:?} \
                     != rebuild {:?}",
                    reference.state
                )),
            };
        }
        if events != reference.events {
            return CaseOutcome {
                witness,
                verdict: Err(format!(
                    "epoch {epoch}: events diverged: incremental {events:?} \
                     != rebuild {:?}",
                    reference.events
                )),
            };
        }
        if stats.changed != reference.changed || stats.matching_rounds != reference.matching_rounds
        {
            return CaseOutcome {
                witness,
                verdict: Err(format!(
                    "epoch {epoch}: stats diverged: incremental {stats:?} != rebuild \
                     (changed={}, rounds={})",
                    reference.changed, reference.matching_rounds
                )),
            };
        }
        if rng_inc != rng_ref {
            return CaseOutcome {
                witness,
                verdict: Err(format!(
                    "epoch {epoch}: RNG streams desynchronized (draw counts differ)"
                )),
            };
        }
        // Chain: the accepted proposal becomes the next epoch's input, so
        // the role cache sees realistic unit-transfer trajectories.
        current.allocs.clone_from(&proposal.allocs);
    }
    CaseOutcome {
        witness,
        verdict: Ok(()),
    }
}

/// The incremental-matching oracles.
pub fn properties() -> Vec<Property> {
    vec![Property::new(
        "matching-incremental-vs-rebuild",
        incremental_case,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..64 {
            let mut src = Source::from_seed(seed);
            let out = incremental_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }
}
