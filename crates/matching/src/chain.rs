//! Instability-chaining allocation of consumers to resource categories.
//!
//! This module implements the first step of the paper's Algorithm 2
//! (`getNextSystemState`, lines 7–18) in its general form: a set of
//! *resource categories* with fixed capacities (the hospitals, whose
//! capacity is the number of producers willing to supply that category),
//! and a set of *consumers* with a numeric priority (their slowdown) and a
//! preference list over categories. The paper inserts consumers one at a
//! time; when a category oversubscribes, the tentatively-admitted consumer
//! with the **lowest** priority is displaced and chained onto its next
//! preference — the Roth–Peranson instability-chaining discipline the paper
//! cites (its reference 35).
//!
//! Every category ranks consumers the same way (priority descending, then
//! index ascending), so the stable matching is unique and equals a *serial
//! dictatorship*: [`allocate_into`] ranks the consumers once and lets each,
//! in rank order, take the first category on its list with capacity left.
//! That is exactly where chaining lands — a consumer only ever moves past a
//! category that rejected it, and a category only rejects a consumer when
//! capacity is held by higher-ranked ones — and it is the resident-optimal
//! stable matching of the induced Hospitals/Residents instance; a property
//! test in this module checks that equivalence, and `copart-check` holds
//! the kernel to a literal chaining scan.

use crate::{Hospital, Instance, Resident};

/// A consumer competing for resource categories.
#[derive(Debug, Clone, PartialEq)]
pub struct Consumer {
    /// Claim strength; higher priority wins contested categories. In
    /// CoPart this is the application's slowdown.
    pub priority: f64,
    /// Category indices in decreasing order of desire.
    pub preference: Vec<usize>,
}

/// Maps `x` to a `u64` whose unsigned order is `x`'s numeric order, or
/// `None` for NaN. `-0.0` maps to the same bits as `0.0`, so the two tie
/// as they do under `partial_cmp`; `±∞` map to the extremes.
///
/// Packed above an index as `(bits as u128) << 64 | index`, this gives a
/// sort key whose plain integer order is "by value, then by index" —
/// and `!bits` in the high half gives "value descending, then index
/// ascending", the consumer ranking of [`allocate_into`].
#[inline]
pub fn total_order_bits(x: f64) -> Option<u64> {
    if x.is_nan() {
        return None;
    }
    // `-0.0 + 0.0` is `+0.0`; every other value is unchanged.
    let bits = (x + 0.0).to_bits();
    Some(if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    })
}

/// The rank key of consumer `index`: ascending keys run priority
/// descending, then index ascending.
fn rank_key(priority: f64, index: usize) -> u128 {
    let bits = total_order_bits(priority).expect("priorities must not be NaN");
    u128::from(!bits) << 64 | index as u128
}

/// Reusable buffers for [`allocate_into`]. Holding one of these across
/// epochs makes repeated allocations allocation-free once the buffers
/// have grown to the instance size.
#[derive(Debug, Default, Clone)]
pub struct ChainScratch {
    /// Consumer rank keys, sorted into rank order.
    ranked: Vec<u128>,
    /// Capacity each category has left.
    left: Vec<usize>,
}

/// Runs Algorithm 2's allocation step (lines 7–18) and writes, for each
/// consumer, the category it was granted (if any) into `assignment`.
///
/// The consumers are ranked once — priority descending, ties toward the
/// lower consumer index — by one integer sort, and in rank order each
/// takes the first category on its preference list with capacity left.
/// Because every category shares that ranking, this is the matching the
/// paper's instability chaining produces. The returned count is the
/// chaining iterations that run would perform — every insertion
/// attempt, including the retries displacements trigger — which is a
/// measure of how contested the instance was (reported per epoch in trace
/// events as `matching_rounds`). It is exact: a chaining consumer's cursor
/// only passes categories that rejected it, so it ends one past its
/// granted category, or at the end of its list when it got nothing, and
/// the count is the sum of those positions.
///
/// `capacities[c]` is the number of grants category `c` can make. All
/// working storage lives in `scratch`, so steady-state calls allocate
/// nothing. The `matching-allocate-stable` oracle in `copart-check` pins
/// the output — assignment and rounds — to a literal chaining scan.
///
/// # Panics
///
/// Panics if any preference index is out of range (the caller constructs
/// the preference lists from its own category table, so an out-of-range
/// index is a programming error rather than an input error), or if a
/// priority is NaN.
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

    let ChainScratch { ranked, left } = scratch;
    ranked.clear();
    ranked.extend(
        consumers
            .iter()
            .enumerate()
            .map(|(i, c)| rank_key(c.priority, i)),
    );
    ranked.sort_unstable();
    left.clear();
    left.extend_from_slice(capacities);
    assignment.clear();
    assignment.resize(consumers.len(), None);

    let mut rounds = 0u32;
    for &key in ranked.iter() {
        let i = key as u64 as usize;
        let preference = &consumers[i].preference;
        match preference.iter().position(|&cat| left[cat] > 0) {
            Some(pos) => {
                let cat = preference[pos];
                left[cat] -= 1;
                assignment[i] = Some(cat);
                rounds += pos as u32 + 1;
            }
            None => rounds += preference.len() as u32,
        }
    }
    rounds
}

/// Builds the Hospitals/Residents instance induced by a chaining problem:
/// categories become hospitals preferring consumers by descending priority.
pub fn induced_instance(capacities: &[usize], consumers: &[Consumer]) -> Instance {
    // Ordered by comparator, not by the kernel's rank keys: this instance
    // is the reference the kernel is checked against.
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

    #[test]
    fn negative_zero_ties_with_zero_by_index() {
        assert_eq!(total_order_bits(-0.0), total_order_bits(0.0));
        let alloc = allocate(&[1], &[consumer(0.0, vec![0]), consumer(-0.0, vec![0])]);
        assert_eq!(alloc.0, vec![Some(0), None]);
        let alloc = allocate(&[1], &[consumer(-0.0, vec![0]), consumer(0.0, vec![0])]);
        assert_eq!(alloc.0, vec![Some(0), None]);
    }

    #[test]
    fn infinite_priority_ranks_first() {
        let alloc = allocate(
            &[1],
            &[
                consumer(f64::MAX, vec![0]),
                consumer(f64::INFINITY, vec![0]),
            ],
        );
        assert_eq!(alloc.0, vec![None, Some(0)]);
        let alloc = allocate(
            &[1],
            &[
                consumer(f64::NEG_INFINITY, vec![0]),
                consumer(f64::MIN, vec![0]),
            ],
        );
        assert_eq!(alloc.0, vec![None, Some(0)]);
    }

    #[test]
    fn total_order_bits_follow_numeric_order() {
        let ascending = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            f64::MIN_POSITIVE,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        let bits: Vec<u64> = ascending
            .iter()
            .map(|&x| total_order_bits(x).unwrap())
            .collect();
        assert!(bits.windows(2).all(|w| w[0] < w[1]), "{bits:x?}");
        assert_eq!(total_order_bits(f64::NAN), None);
    }

    #[test]
    #[should_panic(expected = "priorities must not be NaN")]
    fn nan_priority_panics() {
        let _ = allocate(&[1], &[consumer(1.0, vec![0]), consumer(f64::NAN, vec![0])]);
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
