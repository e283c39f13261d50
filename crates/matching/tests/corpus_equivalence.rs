//! Corpus-seeded equivalence between the instability-chaining allocator
//! (`chain::allocate_into`) and the deferred-acceptance solver.
//!
//! The blessed tapes in `tests/corpus/` pin down instances where the
//! two algorithms historically could diverge — equal-priority ties
//! resolved by index, displacement chains — and replay them through the
//! full differential oracle: feasibility, brute-force stability, and
//! exact equality with `solve_resident_optimal` on the induced
//! Hospitals/Residents instance. The seeded sweep below it holds the
//! allocator to the reference scan across one reused scratch.

use copart_check::corpus::{default_dir, load_dir};
use copart_check::oracles::matching::{allocate, allocate_case};
use copart_check::Source;
use copart_matching::chain::{allocate_into, ChainScratch, Consumer};
use copart_rng::XorShift64Star;
use copart_telemetry::fnv1a64;

#[test]
fn blessed_tapes_match_the_resident_optimal_solution() {
    let entries = load_dir(&default_dir()).expect("corpus directory must load");
    let matching: Vec<_> = entries
        .iter()
        .filter(|c| c.property == "matching-allocate-stable")
        .collect();
    assert!(
        !matching.is_empty(),
        "no blessed matching tapes under tests/corpus/"
    );
    for entry in matching {
        let mut src = Source::replay(&entry.tape);
        let out = allocate_case(&mut src);
        assert_eq!(
            fnv1a64(out.witness.as_bytes()),
            entry.witness_fnv,
            "{}: tape decodes to a different instance now ({}) — re-bless it",
            entry.name,
            out.witness
        );
        assert_eq!(
            out.verdict,
            Ok(()),
            "{}: allocate disagrees with the solver on {}",
            entry.name,
            out.witness
        );
    }
}

/// The rank-then-grant allocator is byte-identical to the reference scan
/// (kept in `copart-check`) — assignment AND rounds — across a seeded
/// random sweep of mixed shapes, with one `ChainScratch` and one
/// assignment buffer reused for every instance in the sweep: the
/// controller's steady state.
#[test]
fn indexed_allocator_matches_reference_scan() {
    let mut rng = XorShift64Star::seed_from_u64(0xC4A1_0003);
    let mut scratch = ChainScratch::default();
    let mut assignment = Vec::new();
    for _ in 0..500 {
        let ncat = rng.gen_range(1..6usize);
        let capacities: Vec<usize> = (0..ncat).map(|_| rng.gen_range(0..4usize)).collect();
        let nconsumers = rng.gen_range(0..12usize);
        let consumers: Vec<Consumer> = (0..nconsumers)
            .map(|_| {
                let nprefs = rng.gen_range(0..=ncat);
                let mut seen = vec![false; ncat];
                let preference = (0..nprefs)
                    .map(|_| rng.gen_range(0..ncat))
                    .filter(|&c| !std::mem::replace(&mut seen[c], true))
                    .collect();
                Consumer {
                    // Coarse priorities force plenty of ties.
                    priority: rng.gen_range(0..6u32) as f64,
                    preference,
                }
            })
            .collect();
        let reference = allocate(&capacities, &consumers);
        let rounds = allocate_into(&capacities, &consumers, &mut assignment, &mut scratch);
        assert_eq!(assignment, reference.consumer_to_category);
        assert_eq!(rounds, reference.rounds);
    }
}
