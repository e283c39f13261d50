//! Instability-chaining allocation of consumers to resource categories.
//!
//! This module implements the first step of the paper's Algorithm 2
//! (`getNextSystemState`, lines 7–18) in its general form: a set of
//! *resource categories* with fixed capacities (the hospitals, whose
//! capacity is the number of producers willing to supply that category),
//! and a set of *consumers* with a numeric priority (their slowdown) and a
//! preference list over categories. Consumers are inserted one at a time;
//! when a category oversubscribes, the tentatively-admitted consumer with
//! the **lowest** priority is displaced and chained onto its next
//! preference — the Roth–Peranson instability-chaining discipline the paper
//! cites (its reference 35).
//!
//! Because each category effectively ranks consumers by priority, the
//! result coincides with the resident-optimal stable matching of the
//! induced Hospitals/Residents instance; a property test in this module
//! checks exactly that equivalence.

use crate::{Hospital, Instance, Resident};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A consumer competing for resource categories.
#[derive(Debug, Clone, PartialEq)]
pub struct Consumer {
    /// Claim strength; higher priority wins contested categories. In
    /// CoPart this is the application's slowdown.
    pub priority: f64,
    /// Category indices in decreasing order of desire.
    pub preference: Vec<usize>,
}

/// A tentative holder of a category slot, ordered so a max-heap pops the
/// *weakest* holder first: lowest priority, ties toward the higher consumer
/// index.
#[derive(Debug, Clone, Copy)]
struct Holder {
    priority: f64,
    consumer: usize,
}

impl PartialEq for Holder {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Holder {}
impl PartialOrd for Holder {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Holder {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .priority
            .partial_cmp(&self.priority)
            .expect("priorities must not be NaN")
            .then(self.consumer.cmp(&other.consumer))
    }
}

/// Reusable buffers for [`allocate_into`]. Holding one of these across
/// epochs makes repeated chaining runs allocation-free once the buffers
/// have grown to the instance size.
#[derive(Debug, Default, Clone)]
pub struct ChainScratch {
    /// One tentative-holder heap per category.
    heaps: Vec<BinaryHeap<Holder>>,
    /// Next preference position each consumer will try after a displacement.
    cursor: Vec<usize>,
}

/// Runs instability chaining (Algorithm 2 lines 7–18): consumers are
/// inserted in index order; each insertion may displace the weakest
/// tentative holder of an oversubscribed category, who chains onto its own
/// next preference. Writes, for each consumer, the category it was
/// granted (if any) into `assignment` and returns the number of chaining
/// iterations performed — every insertion attempt, including the extra
/// attempts triggered by displacements: a measure of how contested the
/// instance was (reported per epoch in trace events as `matching_rounds`).
///
/// `capacities[c]` is the number of grants category `c` can make. Ties in
/// priority are broken toward the lower consumer index (the weakest
/// holder is the lowest priority, then the higher index), making the
/// result deterministic. Each displacement is a heap pop, and all working
/// storage lives in `scratch`, so steady-state calls allocate nothing.
/// The `matching-allocate-stable` oracle in `copart-check` pins the
/// output — assignment and rounds — to a straightforward reference scan.
///
/// # Panics
///
/// Panics if any preference index is out of range; the caller constructs
/// the preference lists from its own category table, so an out-of-range
/// index is a programming error rather than an input error.
pub fn allocate_into(
    capacities: &[usize],
    consumers: &[Consumer],
    assignment: &mut Vec<Option<usize>>,
    scratch: &mut ChainScratch,
) -> u32 {
    for c in consumers {
        for &p in &c.preference {
            assert!(
                p < capacities.len(),
                "preference index {p} out of range ({} categories)",
                capacities.len()
            );
        }
    }

    if scratch.heaps.len() < capacities.len() {
        scratch.heaps.resize_with(capacities.len(), BinaryHeap::new);
    }
    for h in &mut scratch.heaps[..capacities.len()] {
        h.clear();
    }
    assignment.clear();
    assignment.resize(consumers.len(), None);
    scratch.cursor.clear();
    scratch.cursor.resize(consumers.len(), 0);
    let mut rounds = 0u32;

    for start in 0..consumers.len() {
        let mut current = start;
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(&cat) = consumers[current].preference.get(scratch.cursor[current]) else {
                break;
            };
            scratch.cursor[current] += 1;
            rounds += 1;
            if capacities[cat] == 0 {
                continue;
            }
            scratch.heaps[cat].push(Holder {
                priority: consumers[current].priority,
                consumer: current,
            });
            assignment[current] = Some(cat);
            if scratch.heaps[cat].len() <= capacities[cat] {
                break;
            }
            let displaced = scratch.heaps[cat]
                .pop()
                .expect("oversubscribed ⇒ non-empty")
                .consumer;
            assignment[displaced] = None;
            if displaced == current {
                continue;
            }
            current = displaced;
        }
    }

    rounds
}

/// Builds the Hospitals/Residents instance induced by a chaining problem:
/// categories become hospitals preferring consumers by descending priority.
pub fn induced_instance(capacities: &[usize], consumers: &[Consumer]) -> Instance {
    let mut by_priority: Vec<usize> = (0..consumers.len()).collect();
    by_priority.sort_by(|&a, &b| {
        consumers[b]
            .priority
            .partial_cmp(&consumers[a].priority)
            .expect("priorities must not be NaN")
            .then(a.cmp(&b))
    });
    Instance {
        hospitals: capacities
            .iter()
            .map(|&capacity| Hospital {
                capacity,
                preference: by_priority.clone(),
            })
            .collect(),
        residents: consumers
            .iter()
            .map(|c| Resident {
                preference: c.preference.clone(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_resident_optimal, Matching};
    use copart_rng::XorShift64Star;

    /// `allocate_into` with throwaway buffers: the assignment and rounds.
    fn allocate(capacities: &[usize], consumers: &[Consumer]) -> (Vec<Option<usize>>, u32) {
        let mut assignment = Vec::new();
        let rounds = allocate_into(
            capacities,
            consumers,
            &mut assignment,
            &mut ChainScratch::default(),
        );
        (assignment, rounds)
    }

    fn consumer(priority: f64, preference: Vec<usize>) -> Consumer {
        Consumer {
            priority,
            preference,
        }
    }

    #[test]
    fn single_slot_goes_to_highest_priority() {
        let alloc = allocate(&[1], &[consumer(1.2, vec![0]), consumer(2.0, vec![0])]);
        assert_eq!(alloc.0, vec![None, Some(0)]);
    }

    #[test]
    fn displaced_consumer_chains_to_second_choice() {
        // Consumer 0 takes cat 0 first, is displaced by consumer 1, and
        // lands on cat 1.
        let alloc = allocate(
            &[1, 1],
            &[consumer(1.0, vec![0, 1]), consumer(3.0, vec![0])],
        );
        assert_eq!(alloc.0, vec![Some(1), Some(0)]);
        // Three insertion attempts: consumer 0 → cat 0, consumer 1 → cat 0
        // (displacing 0), displaced consumer 0 → cat 1.
        assert_eq!(alloc.1, 3);
    }

    #[test]
    fn empty_category_is_skipped() {
        let alloc = allocate(&[0, 1], &[consumer(1.0, vec![0, 1])]);
        assert_eq!(alloc.0, vec![Some(1)]);
    }

    #[test]
    fn exhausted_preferences_leave_consumer_empty_handed() {
        let alloc = allocate(
            &[1],
            &[
                consumer(5.0, vec![0]),
                consumer(4.0, vec![0]),
                consumer(3.0, vec![0]),
            ],
        );
        assert_eq!(alloc.0, vec![Some(0), None, None]);
    }

    #[test]
    fn priority_ties_break_toward_lower_index() {
        let alloc = allocate(&[1], &[consumer(2.0, vec![0]), consumer(2.0, vec![0])]);
        assert_eq!(alloc.0, vec![Some(0), None]);
    }

    #[test]
    fn capacity_two_admits_two() {
        let alloc = allocate(
            &[2],
            &[
                consumer(1.0, vec![0]),
                consumer(2.0, vec![0]),
                consumer(3.0, vec![0]),
            ],
        );
        assert_eq!(alloc.0, vec![None, Some(0), Some(0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_preference_panics() {
        let _ = allocate(&[1], &[consumer(1.0, vec![3])]);
    }

    /// The chaining result is exactly the resident-optimal stable
    /// matching of the induced HR instance, over a seeded sweep of
    /// random instances (no proptest in the offline build).
    #[test]
    fn chaining_matches_deferred_acceptance() {
        let mut rng = XorShift64Star::seed_from_u64(0xC4A1_0001);
        for _ in 0..300 {
            let ncat = rng.gen_range(1..5usize);
            let capacities: Vec<usize> = (0..ncat).map(|_| rng.gen_range(0..3usize)).collect();
            let nconsumers = rng.gen_range(0..8usize);
            let consumers: Vec<Consumer> = (0..nconsumers)
                .map(|_| {
                    let p = rng.gen_range(0..1000u32);
                    let nprefs = rng.gen_range(0..5usize);
                    // Dedup preferences and clamp to range.
                    let mut seen = vec![false; ncat];
                    let preference = (0..nprefs)
                        .map(|_| rng.gen_range(0..5usize) % ncat)
                        .filter(|&c| !std::mem::replace(&mut seen[c], true))
                        .collect();
                    Consumer {
                        priority: p as f64,
                        preference,
                    }
                })
                .collect();
            let alloc = allocate(&capacities, &consumers);
            let inst = induced_instance(&capacities, &consumers);
            let matching = Matching {
                resident_to_hospital: alloc.0,
            };
            assert!(matching.is_feasible(&inst));
            let reference = solve_resident_optimal(&inst).unwrap();
            // Ties in priority make the hospital order deterministic (by
            // index), so the two algorithms agree exactly.
            assert_eq!(matching, reference);
        }
    }

    /// Stability: no consumer both lost a category it prefers and
    /// would have been accepted there.
    #[test]
    fn chaining_is_stable() {
        let mut rng = XorShift64Star::seed_from_u64(0xC4A1_0002);
        for _ in 0..300 {
            let ncat = rng.gen_range(1..4usize);
            let capacities: Vec<usize> = (0..ncat).map(|_| rng.gen_range(0..4usize)).collect();
            let nconsumers = rng.gen_range(1..8usize);
            let consumers: Vec<Consumer> = (0..nconsumers)
                .map(|i| Consumer {
                    priority: rng.gen_range(0..100u32) as f64,
                    // Rotate the full preference list per consumer.
                    preference: (0..ncat).map(|k| (k + i) % ncat).collect(),
                })
                .collect();
            let alloc = allocate(&capacities, &consumers);
            let inst = induced_instance(&capacities, &consumers);
            let matching = Matching {
                resident_to_hospital: alloc.0,
            };
            assert!(
                matching.is_stable(&inst),
                "blocking pairs: {:?}",
                matching.blocking_pairs(&inst)
            );
        }
    }
}
