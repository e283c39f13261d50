//! Differential oracles for the Algorithm 2 allocator
//! (`copart_matching::chain::allocate_into`, the kernel the controller
//! runs).
//!
//! Three independent references check every generated instance:
//!
//! * the straightforward chaining scan [`allocate`], kept here and
//!   nowhere else — the kernel's assignment *and* round count must equal
//!   it exactly, from fresh buffers and from buffers left dirty by a
//!   differently shaped instance;
//! * a brute-force stability checker written directly over the chaining
//!   inputs (capacities + consumers) — it shares *no code* with
//!   `Matching::blocking_pairs`, so a bug in the instance translation
//!   cannot hide itself;
//! * the deferred-acceptance solver on the induced Hospitals/Residents
//!   instance — the paper's claim that instability chaining lands on the
//!   resident-optimal stable matching, including the tie-break order
//!   (priority descending, then index ascending).

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_matching::chain::{allocate_into, induced_instance, ChainScratch, Consumer};
use copart_matching::{solve_resident_optimal, Matching};

/// The result of a reference allocation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// For each consumer, the category it was granted, if any.
    pub consumer_to_category: Vec<Option<usize>>,
    /// Number of chaining iterations performed: every insertion attempt,
    /// including the extra attempts triggered by displacements.
    pub rounds: u32,
}

impl Allocation {
    /// Consumers granted category `c`, in insertion order.
    pub fn granted(&self, c: usize) -> Vec<usize> {
        self.consumer_to_category
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| (a == Some(c)).then_some(i))
            .collect()
    }
}

/// Runs instability chaining — the straightforward reference scan
/// (`chain::allocate_into` is the rank-then-grant, scratch-reusing kernel
/// on the hot path).
///
/// `capacities[c]` is the number of grants category `c` can make. Ties in
/// priority are broken toward the lower consumer index, making the result
/// deterministic.
///
/// # Panics
///
/// Panics if any preference index is out of range.
pub fn allocate(capacities: &[usize], consumers: &[Consumer]) -> Allocation {
    for c in consumers {
        for &p in &c.preference {
            assert!(
                p < capacities.len(),
                "preference index {p} out of range ({} categories)",
                capacities.len()
            );
        }
    }

    let mut granted: Vec<Vec<usize>> = vec![Vec::new(); capacities.len()];
    let mut assignment: Vec<Option<usize>> = vec![None; consumers.len()];
    // Next preference position each consumer will try after a displacement.
    let mut cursor = vec![0usize; consumers.len()];
    let mut rounds = 0u32;

    // Mirrors Algorithm 2 lines 7–18: iterate consumers; each insertion may
    // displace the weakest holder, who chains onto its own next preference.
    for start in 0..consumers.len() {
        let mut current = start;
        // Not a `while let`: `current` changes inside the body when a
        // displacement chains to another consumer.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(&cat) = consumers[current].preference.get(cursor[current]) else {
                break; // Preference list exhausted (line 10–11).
            };
            cursor[current] += 1;
            rounds += 1;
            if capacities[cat] == 0 {
                continue; // No producer supplies this category.
            }
            granted[cat].push(current);
            assignment[current] = Some(cat);
            if granted[cat].len() <= capacities[cat] {
                break; // Fits; chain ends (line 17–18).
            }
            // Oversubscribed: displace the minimum-priority holder
            // (line 14–16), favoring higher slowdowns as the paper does.
            let (weakest_pos, _) = granted[cat]
                .iter()
                .enumerate()
                .min_by(|&(_, &a), &(_, &b)| {
                    consumers[a]
                        .priority
                        .partial_cmp(&consumers[b].priority)
                        .expect("priorities must not be NaN")
                        .then(b.cmp(&a)) // Lower index wins ties, so higher
                                         // index is displaced first.
                })
                .expect("oversubscribed ⇒ non-empty");
            let displaced = granted[cat].swap_remove(weakest_pos);
            assignment[displaced] = None;
            if displaced == current {
                // Immediately bounced; keep walking our own list.
                continue;
            }
            current = displaced;
        }
    }

    Allocation {
        consumer_to_category: assignment,
        rounds,
    }
}

/// Generates a small chaining instance. Priorities are small integers so
/// ties are common — the tie-break order is exactly where the two
/// algorithms could silently diverge.
fn gen_instance(src: &mut Source) -> (Vec<usize>, Vec<Consumer>) {
    let ncat = src.size(1, 4);
    let capacities: Vec<usize> = (0..ncat).map(|_| src.size(0, 3)).collect();
    let nconsumers = src.size(0, 7);
    let consumers: Vec<Consumer> = (0..nconsumers)
        .map(|_| {
            let priority = src.size(0, 5) as f64;
            // A uniformly chosen prefix of a uniformly chosen permutation:
            // duplicate-free, possibly empty, possibly partial.
            let mut cats: Vec<usize> = (0..ncat).collect();
            for i in (1..cats.len()).rev() {
                let j = src.below(i as u64 + 1) as usize;
                cats.swap(i, j);
            }
            let nprefs = src.size(0, ncat);
            cats.truncate(nprefs);
            Consumer {
                priority,
                preference: cats,
            }
        })
        .collect();
    (capacities, consumers)
}

fn witness(capacities: &[usize], consumers: &[Consumer]) -> String {
    let cs: Vec<String> = consumers
        .iter()
        .map(|c| format!("(p={} prefs={:?})", c.priority, c.preference))
        .collect();
    format!("caps={capacities:?} consumers=[{}]", cs.join(" "))
}

/// `i` outranks `j` in every category's eyes: higher priority, lower
/// index on ties (the paper's deterministic tie-break).
fn outranks(consumers: &[Consumer], i: usize, j: usize) -> bool {
    consumers[i].priority > consumers[j].priority
        || (consumers[i].priority == consumers[j].priority && i < j)
}

/// Brute-force blocking-pair search over the raw chaining inputs.
fn blocking_pair(
    capacities: &[usize],
    consumers: &[Consumer],
    assignment: &[Option<usize>],
) -> Option<(usize, usize)> {
    for (i, cons) in consumers.iter().enumerate() {
        let assigned_rank = assignment[i].map(|cat| {
            cons.preference
                .iter()
                .position(|&c| c == cat)
                .expect("assignment must come from the preference list")
        });
        let envy_limit = assigned_rank.unwrap_or(cons.preference.len());
        for &cat in &cons.preference[..envy_limit] {
            if capacities[cat] == 0 {
                continue;
            }
            let holders: Vec<usize> = (0..consumers.len())
                .filter(|&j| assignment[j] == Some(cat))
                .collect();
            if holders.len() < capacities[cat] {
                return Some((i, cat)); // A free slot `i` prefers.
            }
            if holders.iter().any(|&j| outranks(consumers, i, j)) {
                return Some((i, cat)); // `i` beats a current holder.
            }
        }
    }
    None
}

/// The property behind `matching-allocate-stable` and the corpus-seeded
/// equivalence test in `copart-matching` — public so that test can call
/// it on blessed tapes directly.
pub fn allocate_case(src: &mut Source) -> CaseOutcome {
    let (capacities, consumers) = gen_instance(src);
    let witness = witness(&capacities, &consumers);
    // The kernel under test: every check below judges what the controller
    // actually runs.
    let mut assignment = Vec::new();
    let rounds = allocate_into(
        &capacities,
        &consumers,
        &mut assignment,
        &mut ChainScratch::default(),
    );
    let alloc = Allocation {
        consumer_to_category: assignment,
        rounds,
    };

    // Feasibility: grants respect capacities and preference lists.
    for (c, &cap) in capacities.iter().enumerate() {
        let granted = alloc.granted(c).len();
        if granted > cap {
            return CaseOutcome {
                witness,
                verdict: Err(format!("category {c} over capacity: {granted} > {cap}")),
            };
        }
    }
    for (i, assigned) in alloc.consumer_to_category.iter().enumerate() {
        if let Some(cat) = assigned {
            if !consumers[i].preference.contains(cat) {
                return CaseOutcome {
                    witness,
                    verdict: Err(format!("consumer {i} granted unlisted category {cat}")),
                };
            }
        }
    }

    // Work bound: each attempt consumes one preference-cursor position
    // and cursors never rewind.
    let pref_total: usize = consumers.iter().map(|c| c.preference.len()).sum();
    if alloc.rounds as usize > pref_total {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "rounds {} exceed total preference entries {pref_total}",
                alloc.rounds
            )),
        };
    }

    // Stability, by brute force over the raw inputs.
    if let Some((i, cat)) = blocking_pair(&capacities, &consumers, &alloc.consumer_to_category) {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "blocking pair: consumer {i} and category {cat} (assignment {:?})",
                alloc.consumer_to_category
            )),
        };
    }

    // Differential: deferred acceptance on the induced HR instance must
    // produce the identical matching, tie-breaks included.
    let inst = induced_instance(&capacities, &consumers);
    let reference = match solve_resident_optimal(&inst) {
        Ok(m) => m,
        Err(e) => {
            return CaseOutcome {
                witness,
                verdict: Err(format!("induced instance rejected by solver: {e:?}")),
            }
        }
    };
    // Differential: the reference scan, assignment and rounds.
    let scan = allocate(&capacities, &consumers);
    if alloc != scan {
        return CaseOutcome {
            witness,
            verdict: Err(format!("kernel {alloc:?} != reference scan {scan:?}")),
        };
    }
    // The controller's steady state is a *reused* scratch: the same
    // instance must come out identical when the ranking, the capacities
    // left and the assignment still hold a differently shaped one (one
    // more category, one more consumer, the rest in reverse order). No
    // tape draws.
    let (mut scratch, mut dirty) = (ChainScratch::default(), Vec::new());
    let mut wider_caps = capacities.clone();
    wider_caps.push(2);
    let mut more_consumers: Vec<Consumer> = consumers.iter().rev().cloned().collect();
    more_consumers.push(Consumer {
        priority: 3.0,
        preference: (0..wider_caps.len()).rev().collect(),
    });
    allocate_into(&wider_caps, &more_consumers, &mut dirty, &mut scratch);
    let reused = Allocation {
        rounds: allocate_into(&capacities, &consumers, &mut dirty, &mut scratch),
        consumer_to_category: dirty,
    };
    if reused != scan {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "kernel on a dirty scratch {reused:?} != reference scan {scan:?}"
            )),
        };
    }
    let chained = Matching {
        resident_to_hospital: alloc.consumer_to_category,
    };
    if chained != reference {
        return CaseOutcome {
            witness,
            verdict: Err(format!(
                "chaining {:?} != deferred acceptance {:?}",
                chained.resident_to_hospital, reference.resident_to_hospital
            )),
        };
    }
    CaseOutcome {
        witness,
        verdict: Ok(()),
    }
}

/// The matching oracles.
pub fn properties() -> Vec<Property> {
    vec![Property::new("matching-allocate-stable", allocate_case)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..64 {
            let mut src = Source::from_seed(seed);
            let out = allocate_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }

    #[test]
    fn the_brute_force_checker_rejects_a_planted_instability() {
        // One slot, consumer 1 outranks consumer 0, but the assignment
        // hands the slot to consumer 0: (1, cat 0) must block.
        let capacities = vec![1];
        let consumers = vec![
            Consumer {
                priority: 1.0,
                preference: vec![0],
            },
            Consumer {
                priority: 2.0,
                preference: vec![0],
            },
        ];
        let bogus = vec![Some(0), None];
        assert_eq!(blocking_pair(&capacities, &consumers, &bogus), Some((1, 0)));
        // A free preferred slot also blocks.
        let empty = vec![None, None];
        assert_eq!(blocking_pair(&capacities, &consumers, &empty), Some((0, 0)));
    }
}
