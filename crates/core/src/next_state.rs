//! Algorithm 2: `getNextSystemState` — one Hospitals/Residents matching
//! step between resource producers and consumers.
//!
//! Resource *types* (LLC, MBA, ANY) act as hospitals whose capacity is the
//! number of applications willing to supply that type; applications
//! demanding a resource act as residents whose priority is their slowdown
//! (higher slowdown ⇒ stronger claim, improving fairness). Step one runs
//! instability chaining to decide which consumers obtain which resource
//! types; step two pairs each granted consumer with the *lowest-slowdown*
//! producer of that type (the application least hurt by giving a unit up)
//! and performs the unit transfer: one LLC way, or one MBA level step.

use copart_rng::XorShift64Star;

use copart_matching::chain::{self, total_order_bits, ChainScratch, Consumer};
use copart_rdt::{MbaLevel, ResourceKind};

use crate::fsm::{AppState, ResourceEvent};
use crate::state::{SystemState, WaysBudget};

/// The classifier outputs and slowdown estimate for one application — the
/// inputs Algorithm 2 needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppClassification {
    /// LLC classifier state.
    pub llc: AppState,
    /// Memory-bandwidth classifier state.
    pub mba: AppState,
    /// Estimated slowdown (Eq 1); ties break toward lower app index.
    pub slowdown: f64,
}

/// The resource transfers applied to one application in one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppliedEvents {
    /// Received an LLC way.
    pub granted_llc: bool,
    /// Received an MBA level increase.
    pub granted_mba: bool,
    /// Lost an LLC way.
    pub reclaimed_llc: bool,
    /// Lost an MBA level.
    pub reclaimed_mba: bool,
}

impl AppliedEvents {
    /// The event as seen by the LLC classifier.
    pub fn llc_event(&self) -> ResourceEvent {
        if self.granted_llc {
            ResourceEvent::GrantedLlc
        } else if self.reclaimed_llc {
            ResourceEvent::ReclaimedLlc
        } else if self.granted_mba {
            ResourceEvent::GrantedMba
        } else if self.reclaimed_mba {
            ResourceEvent::ReclaimedMba
        } else {
            ResourceEvent::None
        }
    }

    /// The event as seen by the memory-bandwidth classifier (LLC grants
    /// are visible for the §5.3 cross-resource rule).
    pub fn mba_event(&self) -> ResourceEvent {
        if self.granted_mba {
            ResourceEvent::GrantedMba
        } else if self.reclaimed_mba {
            ResourceEvent::ReclaimedMba
        } else if self.granted_llc {
            ResourceEvent::GrantedLlc
        } else if self.reclaimed_llc {
            ResourceEvent::ReclaimedLlc
        } else {
            ResourceEvent::None
        }
    }

    fn any(&self) -> bool {
        self.granted_llc || self.granted_mba || self.reclaimed_llc || self.reclaimed_mba
    }
}

/// The owned result of one Algorithm 2 step (the greedy baseline's
/// return type; the matching step writes in place).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferOutcome {
    /// The proposed next system state.
    pub state: SystemState,
    /// Per-application transfers (same indexing as the input).
    pub events: Vec<AppliedEvents>,
    /// Whether any transfer happened (false ⇒ the state converged).
    pub changed: bool,
    /// Instability-chaining iterations the matching step used (0 for the
    /// greedy baseline, which runs no matching).
    pub matching_rounds: u32,
}

/// Category indices used in the matching instance.
const CAT_LLC: usize = 0;
const CAT_MBA: usize = 1;
const CAT_ANY: usize = 2;

/// The per-app inputs that determine an app's producer/consumer role in
/// the matching instance. The allocation enters only through the three
/// threshold booleans, so ordinary unit transfers that stay on the same
/// side of a threshold keep the cached role valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoleKey {
    llc: AppState,
    mba: AppState,
    ways_above_floor: bool,
    mba_above_min: bool,
    mba_below_cap: bool,
}

/// Which producer pool an app belongs to, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ProducerRole {
    #[default]
    None,
    Llc,
    Mba,
    Any,
}

/// Which resources an app demands, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum ConsumerRole {
    #[default]
    None,
    Llc,
    Mba,
    Both,
}

#[derive(Debug, Clone, Copy, Default)]
struct AppRole {
    producer: ProducerRole,
    consumer: ConsumerRole,
}

fn derive_role(key: RoleKey, manage_llc: bool, manage_mba: bool) -> AppRole {
    let can_llc = manage_llc && key.llc == AppState::Supply && key.ways_above_floor;
    let can_mba = manage_mba && key.mba == AppState::Supply && key.mba_above_min;
    let producer = match (can_llc, can_mba) {
        (true, true) => ProducerRole::Any,
        (true, false) => ProducerRole::Llc,
        (false, true) => ProducerRole::Mba,
        (false, false) => ProducerRole::None,
    };
    let wants_llc = manage_llc && key.llc == AppState::Demand;
    let wants_mba = manage_mba && key.mba == AppState::Demand && key.mba_below_cap;
    let consumer = match (wants_llc, wants_mba) {
        (true, true) => ConsumerRole::Both,
        (true, false) => ConsumerRole::Llc,
        (false, true) => ConsumerRole::Mba,
        (false, false) => ConsumerRole::None,
    };
    AppRole { producer, consumer }
}

/// A producer's supply-order key: ascending keys run slowdown ascending,
/// then index ascending (the app least hurt by giving a unit up first).
fn producer_key(slowdown: f64, index: usize) -> u128 {
    let bits = total_order_bits(slowdown).expect("slowdowns are not NaN");
    u128::from(bits) << 64 | index as u128
}

/// Reusable buffers and the incremental role cache for
/// [`get_next_system_state_into`]. Hold one across epochs: pools,
/// consumer preference lists and the matching's key buffers are reused,
/// and an app's role is re-derived only when its role key changed since the
/// previous epoch (tracked by [`cache_hits`](Self::cache_hits) /
/// [`cache_misses`](Self::cache_misses)).
#[derive(Debug, Default, Clone)]
pub struct ExploreScratch {
    /// Last-seen role key per app; `None` forces a recompute.
    keys: Vec<Option<RoleKey>>,
    roles: Vec<AppRole>,
    /// `(manage_llc, manage_mba)` the cache was built for; a change
    /// invalidates every cached role.
    cfg: Option<(bool, bool)>,
    hits: u64,
    misses: u64,
    /// Producer pools as [`producer_key`]s, sorted into supply order.
    pool_llc: Vec<u128>,
    pool_mba: Vec<u128>,
    pool_any: Vec<u128>,
    consumers: Vec<Consumer>,
    consumer_apps: Vec<usize>,
    any_choice: Vec<Option<ResourceKind>>,
    assignment: Vec<Option<usize>>,
    chain: ChainScratch,
}

impl ExploreScratch {
    /// Apps whose cached role was reused since construction.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Apps whose role had to be re-derived since construction.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }
}

/// The scalar results of one in-place Algorithm 2 step (the state and
/// events land in caller-provided buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStats {
    /// Whether any transfer happened (false ⇒ the state converged).
    pub changed: bool,
    /// Instability-chaining iterations the matching step used.
    pub matching_rounds: u32,
}

/// Runs one `getNextSystemState` step, in place and incrementally: the
/// proposed state and the per-application transfers land in `state` and
/// `events`, all working storage lives in `scratch`, and per-app roles
/// are recomputed only when their inputs changed — so steady-state calls
/// allocate nothing and scale to thousands of apps.
///
/// `manage_llc` / `manage_mba` restrict which resources the controller
/// may move — the CAT-only and MBA-only baselines pin one of them.
///
/// The `matching-incremental-vs-rebuild` oracle in `copart-check` fuzzes
/// every output (state, events, `changed`, `matching_rounds`, and the
/// exact RNG draw sequence) against a from-scratch rebuild of the matching
/// instance every epoch.
// Bundling the three output buffers into a struct would only move the
// argument list.
#[allow(clippy::too_many_arguments)]
pub fn get_next_system_state_into(
    current: &SystemState,
    apps: &[AppClassification],
    budget: &WaysBudget,
    rng: &mut XorShift64Star,
    manage_llc: bool,
    manage_mba: bool,
    scratch: &mut ExploreScratch,
    state: &mut SystemState,
    events: &mut Vec<AppliedEvents>,
) -> StepStats {
    assert_eq!(
        current.allocs.len(),
        apps.len(),
        "state/classification mismatch"
    );
    let n = apps.len();
    state.allocs.clone_from(&current.allocs);
    events.clear();
    events.resize(n, AppliedEvents::default());

    let ExploreScratch {
        keys,
        roles,
        cfg,
        hits,
        misses,
        pool_llc,
        pool_mba,
        pool_any,
        consumers,
        consumer_apps,
        any_choice,
        assignment,
        chain: chain_scratch,
    } = scratch;

    if *cfg != Some((manage_llc, manage_mba)) {
        *cfg = Some((manage_llc, manage_mba));
        keys.clear();
    }
    if keys.len() != n {
        keys.clear();
        keys.resize(n, None);
    }
    roles.resize(n, AppRole::default());

    // --- Producer pools (lines 2–5 of Algorithm 2), membership from the
    // role cache. Unallocated budget ways are virtual LLC producers ahead
    // of every app; reclaiming from them costs nobody anything.
    pool_llc.clear();
    pool_mba.clear();
    pool_any.clear();
    for (i, (app, alloc)) in apps.iter().zip(&current.allocs).enumerate() {
        let key = RoleKey {
            llc: app.llc,
            mba: app.mba,
            ways_above_floor: alloc.ways > 1,
            mba_above_min: alloc.mba > MbaLevel::MIN,
            mba_below_cap: alloc.mba < budget.mba_cap,
        };
        if keys[i] == Some(key) {
            *hits += 1;
        } else {
            keys[i] = Some(key);
            roles[i] = derive_role(key, manage_llc, manage_mba);
            *misses += 1;
        }
        let pool = match roles[i].producer {
            ProducerRole::Any => &mut *pool_any,
            ProducerRole::Llc => &mut *pool_llc,
            ProducerRole::Mba => &mut *pool_mba,
            ProducerRole::None => continue,
        };
        pool.push(producer_key(app.slowdown, i));
    }
    let spare_ways = if manage_llc {
        budget.total_ways.saturating_sub(current.total_ways()) as usize
    } else {
        0
    };
    // Producers are consumed lowest-slowdown first, ties toward the lower
    // index; the keys are distinct, so the unstable sort is deterministic.
    pool_llc.sort_unstable();
    pool_mba.sort_unstable();
    pool_any.sort_unstable();

    // --- Consumers and their preference lists (lines 6–18), buffers
    // reused in place. One `gen_bool` per dual-demand consumer, in
    // app-index order: for ANY-demand consumers, the random specific-type
    // priority (§5.4.2: randomness avoids local optima).
    let mut nc = 0usize;
    for (i, app) in apps.iter().enumerate() {
        let (prefs, choice): (&[usize], Option<ResourceKind>) = match roles[i].consumer {
            ConsumerRole::None => continue,
            ConsumerRole::Both => {
                if rng.gen_bool(0.5) {
                    (&[CAT_LLC, CAT_MBA, CAT_ANY], None)
                } else {
                    (&[CAT_MBA, CAT_LLC, CAT_ANY], None)
                }
            }
            ConsumerRole::Llc => (&[CAT_LLC, CAT_ANY], Some(ResourceKind::Llc)),
            ConsumerRole::Mba => (&[CAT_MBA, CAT_ANY], Some(ResourceKind::MemoryBandwidth)),
        };
        if nc < consumers.len() {
            let c = &mut consumers[nc];
            c.priority = app.slowdown;
            c.preference.clear();
            c.preference.extend_from_slice(prefs);
            consumer_apps[nc] = i;
            any_choice[nc] = choice;
        } else {
            consumers.push(Consumer {
                priority: app.slowdown,
                preference: prefs.to_vec(),
            });
            consumer_apps.push(i);
            any_choice.push(choice);
        }
        nc += 1;
    }

    let capacities = [spare_ways + pool_llc.len(), pool_mba.len(), pool_any.len()];
    let matching_rounds =
        chain::allocate_into(&capacities, &consumers[..nc], assignment, chain_scratch);

    // --- Step two (lines 19–29): pair consumers with producers and
    // transfer units, in (category, then consumer-index) order. ---
    let mut cursor_llc = 0usize;
    let mut cursor_mba = 0usize;
    let mut cursor_any = 0usize;
    for t in [CAT_LLC, CAT_MBA, CAT_ANY] {
        for k in 0..nc {
            if assignment[k] != Some(t) {
                continue;
            }
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
            // The app index is the low half of a producer key; `None` is a
            // spare budget way.
            let producer = match t {
                CAT_LLC => {
                    cursor_llc += 1;
                    (cursor_llc > spare_ways).then(|| pool_llc[cursor_llc - 1 - spare_ways])
                }
                CAT_MBA => {
                    cursor_mba += 1;
                    Some(pool_mba[cursor_mba - 1])
                }
                _ => {
                    cursor_any += 1;
                    Some(pool_any[cursor_any - 1])
                }
            }
            .map(|key| key as u64 as usize);
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

    let changed = events.iter().any(AppliedEvents::any) && *state != *current;
    StepStats {
        changed,
        matching_rounds,
    }
}

/// The greedy baseline allocator (ablation of the HR matching design
/// choice): performs at most **one** transfer per period — the
/// highest-slowdown consumer takes one unit of a demanded resource from
/// the lowest-slowdown producer that can supply it (spare budget ways
/// count as free producers). No victim chaining, no randomization.
pub fn get_next_system_state_greedy(
    current: &SystemState,
    apps: &[AppClassification],
    budget: &WaysBudget,
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

    // Consumers, highest slowdown first.
    let mut consumers: Vec<usize> = (0..n)
        .filter(|&i| {
            (manage_llc && apps[i].llc == AppState::Demand)
                || (manage_mba
                    && apps[i].mba == AppState::Demand
                    && current.allocs[i].mba < budget.mba_cap)
        })
        .collect();
    consumers.sort_by(|&a, &b| {
        apps[b]
            .slowdown
            .partial_cmp(&apps[a].slowdown)
            .expect("slowdowns are not NaN")
            .then(a.cmp(&b))
    });

    let spare_ways = budget.total_ways.saturating_sub(current.total_ways());
    let min_producer = |kind: ResourceKind, state: &SystemState| -> Option<usize> {
        (0..n)
            .filter(|&i| match kind {
                ResourceKind::Llc => {
                    manage_llc && apps[i].llc == AppState::Supply && state.allocs[i].ways > 1
                }
                ResourceKind::MemoryBandwidth => {
                    manage_mba
                        && apps[i].mba == AppState::Supply
                        && state.allocs[i].mba > MbaLevel::MIN
                }
            })
            .min_by(|&a, &b| {
                apps[a]
                    .slowdown
                    .partial_cmp(&apps[b].slowdown)
                    .expect("slowdowns are not NaN")
                    .then(a.cmp(&b))
            })
    };

    for c in consumers {
        // Prefer LLC when both are demanded (deterministic greedy).
        let wants: Vec<ResourceKind> = [
            (
                manage_llc && apps[c].llc == AppState::Demand,
                ResourceKind::Llc,
            ),
            (
                manage_mba
                    && apps[c].mba == AppState::Demand
                    && current.allocs[c].mba < budget.mba_cap,
                ResourceKind::MemoryBandwidth,
            ),
        ]
        .into_iter()
        .filter_map(|(want, kind)| want.then_some(kind))
        .collect();
        for kind in wants {
            if kind == ResourceKind::Llc && spare_ways > 0 {
                state.allocs[c].ways += 1;
                events[c].granted_llc = true;
                return TransferOutcome {
                    state,
                    events,
                    changed: true,
                    matching_rounds: 0,
                };
            }
            if let Some(p) = min_producer(kind, &state) {
                match kind {
                    ResourceKind::Llc => {
                        state.allocs[p].ways -= 1;
                        state.allocs[c].ways += 1;
                        events[p].reclaimed_llc = true;
                        events[c].granted_llc = true;
                    }
                    ResourceKind::MemoryBandwidth => {
                        state.allocs[p].mba = state.allocs[p].mba.step_down();
                        state.allocs[c].mba = state.allocs[c].mba.step_up().min(budget.mba_cap);
                        events[p].reclaimed_mba = true;
                        events[c].granted_mba = true;
                    }
                }
                return TransferOutcome {
                    state,
                    events,
                    changed: true,
                    matching_rounds: 0,
                };
            }
        }
    }
    TransferOutcome {
        state,
        events,
        changed: false,
        matching_rounds: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AllocationState;

    fn budget() -> WaysBudget {
        WaysBudget::full_machine(11)
    }

    fn rng() -> XorShift64Star {
        XorShift64Star::seed_from_u64(7)
    }

    fn alloc(ways: u32, mba: u8) -> AllocationState {
        AllocationState {
            ways,
            mba: MbaLevel::new(mba),
        }
    }

    fn class(llc: AppState, mba: AppState, slowdown: f64) -> AppClassification {
        AppClassification { llc, mba, slowdown }
    }

    /// One `get_next_system_state_into` step with throwaway buffers.
    fn get_next_system_state(
        current: &SystemState,
        apps: &[AppClassification],
        budget: &WaysBudget,
        rng: &mut XorShift64Star,
        manage_llc: bool,
        manage_mba: bool,
    ) -> TransferOutcome {
        let mut state = SystemState::default();
        let mut events = Vec::new();
        let stats = get_next_system_state_into(
            current,
            apps,
            budget,
            rng,
            manage_llc,
            manage_mba,
            &mut ExploreScratch::default(),
            &mut state,
            &mut events,
        );
        TransferOutcome {
            state,
            events,
            changed: stats.changed,
            matching_rounds: stats.matching_rounds,
        }
    }

    #[test]
    fn llc_way_moves_from_supplier_to_demander() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 100)],
        };
        let apps = [
            class(AppState::Supply, AppState::Maintain, 1.0),
            class(AppState::Demand, AppState::Maintain, 2.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].ways, 4);
        assert_eq!(out.state.allocs[1].ways, 7);
        assert!(out.events[0].reclaimed_llc);
        assert!(out.events[1].granted_llc);
        assert_eq!(out.state.total_ways(), 11, "ways are conserved");
    }

    #[test]
    fn mba_step_moves_between_apps() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 50)],
        };
        let apps = [
            class(AppState::Maintain, AppState::Supply, 1.0),
            class(AppState::Maintain, AppState::Demand, 2.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].mba.percent(), 90);
        assert_eq!(out.state.allocs[1].mba.percent(), 60);
        assert!(out.events[0].reclaimed_mba);
        assert!(out.events[1].granted_mba);
    }

    #[test]
    fn oversubscribed_resource_goes_to_higher_slowdown() {
        // One LLC supplier, two demanders: the slower app must win.
        let current = SystemState {
            allocs: vec![alloc(4, 100), alloc(3, 100), alloc(4, 100)],
        };
        let apps = [
            class(AppState::Supply, AppState::Maintain, 1.0),
            class(AppState::Demand, AppState::Maintain, 1.2),
            class(AppState::Demand, AppState::Maintain, 3.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert_eq!(out.state.allocs[2].ways, 5, "highest slowdown wins");
        assert_eq!(out.state.allocs[1].ways, 3, "lower slowdown waits");
        assert_eq!(out.state.allocs[0].ways, 3);
    }

    #[test]
    fn lowest_slowdown_producer_gives_up_first() {
        let current = SystemState {
            allocs: vec![alloc(4, 100), alloc(3, 100), alloc(4, 100)],
        };
        let apps = [
            class(AppState::Supply, AppState::Maintain, 1.5),
            class(AppState::Supply, AppState::Maintain, 1.0),
            class(AppState::Demand, AppState::Maintain, 3.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert_eq!(out.state.allocs[1].ways, 2, "least-slowed producer pays");
        assert_eq!(out.state.allocs[0].ways, 4);
        assert_eq!(out.state.allocs[2].ways, 5);
    }

    #[test]
    fn no_participants_means_converged() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 100)],
        };
        let apps = [
            class(AppState::Maintain, AppState::Maintain, 1.0),
            class(AppState::Maintain, AppState::Maintain, 1.1),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(!out.changed);
        assert_eq!(out.state, current);
    }

    #[test]
    fn demand_without_supply_changes_nothing() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 100)],
        };
        let apps = [
            class(AppState::Demand, AppState::Maintain, 2.0),
            class(AppState::Demand, AppState::Maintain, 1.5),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(!out.changed, "nobody supplies, nothing moves");
    }

    #[test]
    fn spare_budget_ways_are_free_suppliers() {
        let current = SystemState {
            allocs: vec![alloc(2, 100), alloc(2, 100)],
        };
        let apps = [
            class(AppState::Demand, AppState::Maintain, 2.0),
            class(AppState::Maintain, AppState::Maintain, 1.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].ways, 3, "took a spare way");
        assert_eq!(out.state.allocs[1].ways, 2, "nobody was robbed");
        assert!(!out.events[1].reclaimed_llc);
    }

    #[test]
    fn producer_at_floor_cannot_supply() {
        let current = SystemState {
            allocs: vec![alloc(1, 100), alloc(10, 100)],
        };
        let apps = [
            class(AppState::Supply, AppState::Maintain, 1.0),
            class(AppState::Demand, AppState::Maintain, 2.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(!out.changed, "a single way can never be reclaimed");
    }

    #[test]
    fn consumer_at_mba_cap_cannot_demand_more() {
        let cap_budget = WaysBudget {
            first_way: 0,
            total_ways: 11,
            mba_cap: MbaLevel::new(40),
        };
        let current = SystemState {
            allocs: vec![alloc(5, 40), alloc(6, 40)],
        };
        let apps = [
            class(AppState::Maintain, AppState::Demand, 2.0),
            class(AppState::Maintain, AppState::Supply, 1.0),
        ];
        let out = get_next_system_state(&current, &apps, &cap_budget, &mut rng(), true, true);
        assert!(!out.changed, "already at the budget's MBA cap");
    }

    #[test]
    fn cat_only_never_touches_mba() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 50)],
        };
        let apps = [
            class(AppState::Supply, AppState::Supply, 1.0),
            class(AppState::Demand, AppState::Demand, 2.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, false);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].mba.percent(), 100);
        assert_eq!(out.state.allocs[1].mba.percent(), 50);
        assert_eq!(out.state.allocs[1].ways, 7);
    }

    #[test]
    fn mba_only_never_touches_ways() {
        let current = SystemState {
            allocs: vec![alloc(5, 100), alloc(6, 50)],
        };
        let apps = [
            class(AppState::Supply, AppState::Supply, 1.0),
            class(AppState::Demand, AppState::Demand, 2.0),
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), false, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].ways, 5);
        assert_eq!(out.state.allocs[1].ways, 6);
        assert_eq!(out.state.allocs[1].mba.percent(), 60);
        assert_eq!(out.state.allocs[0].mba.percent(), 90);
    }

    #[test]
    fn any_supplier_serves_specific_demand() {
        let current = SystemState {
            allocs: vec![alloc(6, 80), alloc(5, 100)],
        };
        let apps = [
            class(AppState::Supply, AppState::Supply, 1.0), // ANY producer.
            class(AppState::Demand, AppState::Maintain, 2.0), // Wants LLC.
        ];
        let out = get_next_system_state(&current, &apps, &budget(), &mut rng(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[1].ways, 6);
        assert_eq!(out.state.allocs[0].ways, 5);
        assert_eq!(
            out.state.allocs[0].mba.percent(),
            80,
            "the ANY producer paid in LLC, not MBA"
        );
    }

    /// Invariants on random inputs: ways conserved within the budget,
    /// every allocation stays valid, and transfers are unit-sized.
    /// Seeded sweep over the same input space the old property test
    /// sampled (instance shape and the explorer's own seed both vary).
    #[test]
    fn transfers_preserve_invariants() {
        let mut gen = XorShift64Star::seed_from_u64(0x7_2A57);
        for seed in 0u64..500 {
            let budget = budget();
            let mut allocs = Vec::new();
            let mut apps = Vec::new();
            let mut total = 0u32;
            for _ in 0..gen.gen_range(2..6usize) {
                let ways = gen.gen_range(1..6u32);
                let mba10 = gen.gen_range(1..=10u8);
                let llc_s = gen.gen_range(0..3u8);
                let mba_s = gen.gen_range(0..3u8);
                let slow100 = gen.gen_range(10..400u32);
                if total + ways > budget.total_ways {
                    break;
                }
                total += ways;
                allocs.push(alloc(ways, mba10 * 10));
                let st = |k: u8| match k {
                    0 => AppState::Supply,
                    1 => AppState::Maintain,
                    _ => AppState::Demand,
                };
                apps.push(class(st(llc_s), st(mba_s), f64::from(slow100) / 100.0));
            }
            if allocs.len() < 2 {
                continue;
            }
            let current = SystemState { allocs };
            let mut r = XorShift64Star::seed_from_u64(seed);
            let out = get_next_system_state(&current, &apps, &budget, &mut r, true, true);
            assert!(out.state.is_valid(&budget), "invalid: {:?}", out.state);
            assert!(out.state.total_ways() <= budget.total_ways);
            for (before, after) in current.allocs.iter().zip(&out.state.allocs) {
                let dw = i64::from(after.ways) - i64::from(before.ways);
                assert!(dw.abs() <= 1, "way transfers are unit-sized");
                let dm = i16::from(after.mba.percent()) - i16::from(before.mba.percent());
                assert!(dm.abs() <= 10, "MBA transfers are one step");
            }
            // Ways are conserved up to spare-budget grants.
            assert!(out.state.total_ways() >= current.total_ways());
            let spare = budget.total_ways - current.total_ways();
            assert!(out.state.total_ways() - current.total_ways() <= spare);
        }
    }
}

#[cfg(test)]
mod greedy_tests {
    use super::*;
    use crate::state::AllocationState;
    use copart_rdt::MbaLevel;

    fn alloc(ways: u32, mba: u8) -> AllocationState {
        AllocationState {
            ways,
            mba: MbaLevel::new(mba),
        }
    }

    fn class(llc: AppState, mba: AppState, slowdown: f64) -> AppClassification {
        AppClassification { llc, mba, slowdown }
    }

    fn budget() -> WaysBudget {
        WaysBudget::full_machine(11)
    }

    #[test]
    fn greedy_moves_exactly_one_unit() {
        let current = SystemState {
            allocs: vec![alloc(4, 100), alloc(3, 100), alloc(4, 100)],
        };
        // Two consumers, one supplier: only the slowest consumer is served
        // in a single greedy step.
        let apps = [
            class(AppState::Supply, AppState::Maintain, 1.0),
            class(AppState::Demand, AppState::Maintain, 2.0),
            class(AppState::Demand, AppState::Maintain, 3.0),
        ];
        let out = get_next_system_state_greedy(&current, &apps, &budget(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[2].ways, 5, "slowest consumer first");
        assert_eq!(out.state.allocs[1].ways, 3, "second consumer waits");
        assert_eq!(out.state.allocs[0].ways, 3);
        let transfers: usize = out
            .events
            .iter()
            .map(|e| {
                usize::from(e.granted_llc)
                    + usize::from(e.granted_mba)
                    + usize::from(e.reclaimed_llc)
                    + usize::from(e.reclaimed_mba)
            })
            .sum();
        assert_eq!(transfers, 2, "one grant + one reclaim");
    }

    #[test]
    fn greedy_uses_spare_ways_before_robbing_producers() {
        let current = SystemState {
            allocs: vec![alloc(2, 100), alloc(2, 100)],
        };
        let apps = [
            class(AppState::Demand, AppState::Maintain, 2.0),
            class(AppState::Supply, AppState::Maintain, 1.0),
        ];
        let out = get_next_system_state_greedy(&current, &apps, &budget(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].ways, 3);
        assert_eq!(
            out.state.allocs[1].ways, 2,
            "producer untouched while spare exists"
        );
    }

    #[test]
    fn greedy_falls_back_to_mba_when_no_llc_supply() {
        let current = SystemState {
            allocs: vec![alloc(6, 50), alloc(5, 100)],
        };
        let apps = [
            class(AppState::Demand, AppState::Demand, 2.0),
            class(AppState::Maintain, AppState::Supply, 1.0),
        ];
        let out = get_next_system_state_greedy(&current, &apps, &budget(), true, true);
        assert!(out.changed);
        assert_eq!(out.state.allocs[0].ways, 6, "no LLC producer available");
        assert_eq!(out.state.allocs[0].mba.percent(), 60);
        assert_eq!(out.state.allocs[1].mba.percent(), 90);
    }

    #[test]
    fn greedy_converges_when_nothing_moves() {
        let current = SystemState {
            allocs: vec![alloc(6, 50), alloc(5, 100)],
        };
        let apps = [
            class(AppState::Maintain, AppState::Maintain, 2.0),
            class(AppState::Maintain, AppState::Maintain, 1.0),
        ];
        let out = get_next_system_state_greedy(&current, &apps, &budget(), true, true);
        assert!(!out.changed);
        assert_eq!(out.state, current);
    }
}
