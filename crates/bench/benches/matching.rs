//! Scaling of the Hospitals/Residents machinery: deferred acceptance and
//! instability chaining on instances far larger than CoPart ever builds
//! (CoPart's are ≤ 3 categories × N_A consumers), demonstrating headroom.
//!
//! The chaining section times the allocator from scratch
//! (`chain::allocate_into`: one integer-key ranking, then
//! `chain::grant_ranked`'s grants in rank order, scratch reused) on a
//! 64→4096-consumer curve — the controller keeps its ranking across
//! epochs and runs only the grant step over it. The throughputs land in
//! `BENCH_matching.json`, gated against its baseline (see
//! `copart_bench::artifact`).

use std::hint::black_box;

use copart_bench::{bench, Artifact};
use copart_matching::chain::{self, ChainScratch, Consumer};
use copart_matching::{solve_resident_optimal, Hospital, Instance, Resident};
use copart_rng::XorShift64Star;

fn random_instance(nh: usize, nr: usize, seed: u64) -> Instance {
    let mut rng = XorShift64Star::seed_from_u64(seed);
    let hospitals = (0..nh)
        .map(|_| {
            let mut preference: Vec<usize> = (0..nr).collect();
            rng.shuffle(&mut preference);
            Hospital {
                capacity: rng.gen_range(1..4usize),
                preference,
            }
        })
        .collect();
    let residents = (0..nr)
        .map(|_| {
            let mut preference: Vec<usize> = (0..nh).collect();
            rng.shuffle(&mut preference);
            preference.truncate(rng.gen_range(1..=nh));
            Resident { preference }
        })
        .collect();
    Instance {
        hospitals,
        residents,
    }
}

fn chain_population(n: usize) -> (Vec<usize>, Vec<Consumer>) {
    let mut rng = XorShift64Star::seed_from_u64(9);
    let capacities = vec![n.div_ceil(4).max(1); 3];
    let consumers = (0..n)
        .map(|_| Consumer {
            priority: rng.gen_range(1.0..3.0),
            preference: vec![0, 1, 2],
        })
        .collect();
    (capacities, consumers)
}

fn main() {
    bench_deferred_acceptance();
    bench_chaining();
}

fn bench_deferred_acceptance() {
    println!("deferred_acceptance (one resident-optimal solve per iter)");
    for (nh, nr) in [(4, 16), (16, 64), (64, 256)] {
        let inst = random_instance(nh, nr, 42);
        bench(&format!("deferred_acceptance/{nh}h_{nr}r"), || {
            black_box(solve_resident_optimal(black_box(&inst)).unwrap());
        });
    }
}

/// The indexed allocator across the consumer-count curve.
fn bench_chaining() {
    println!("\ninstability_chaining (one allocation per iter)");
    let mut art = Artifact::new("copart-bench-matching/v1");
    let mut assignment = Vec::new();
    let mut scratch = ChainScratch::default();
    for n in [64usize, 256, 1024, 4096] {
        let (capacities, consumers) = chain_population(n);
        let indexed = bench(&format!("instability_chaining/indexed/{n}"), || {
            chain::allocate_into(
                black_box(&capacities),
                black_box(&consumers),
                &mut assignment,
                &mut scratch,
            );
            black_box(&assignment);
        });
        art.num(&format!("chain_indexed_{n}_per_sec"), 1e9 / indexed.mean_ns);
        art.num(&format!("chain_indexed_{n}_ns"), indexed.mean_ns);
    }
    art.write("matching", env!("CARGO_TARGET_TMPDIR"));
}
