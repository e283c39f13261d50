//! The control loop's hot paths do not touch the heap once warm: a
//! steady CoPart epoch on the simulator, one explore step at 6 and at
//! 4000 applications, and one instability-chaining allocation. The
//! drives are the ones the Figure 16 bench (`explore_overhead`) times,
//! and the counts are deterministic, so each is held exactly.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::hint::black_box;

use copart_bench::{copart_config, epoch_runtime, synthetic_instance};
use copart_core::fsm::AppState;
use copart_core::next_state::AppClassification;
use copart_core::planner::{Explorer, Plan};
use copart_core::runtime::{PeriodRecord, RuntimeConfig};
use copart_core::state::{SystemState, WaysBudget};
use copart_matching::chain::{self, ChainScratch, Consumer};
use copart_rdt::MbaLevel;
use copart_rng::XorShift64Star;
use copart_sim::MachineConfig;
use copart_telemetry::NullRecorder;
use copart_workloads::stream::StreamReference;

/// Heap allocations `n` calls of `f` make.
fn allocations(n: u32, mut f: impl FnMut()) -> u64 {
    let before = counting_alloc::allocs();
    for _ in 0..n {
        f();
    }
    counting_alloc::allocs() - before
}

/// `(warm-up, steady)` allocations of 16 then 400 `run_period_into`
/// epochs after the first, owned, record.
fn epoch_allocations(stream: &StreamReference) -> (u64, u64) {
    let mut rt = epoch_runtime(stream, Box::new(NullRecorder));
    let mut record: PeriodRecord = rt.run_period().expect("period runs");
    let mut epoch = || {
        rt.run_period_into(&mut record).expect("period runs");
        black_box(&record);
    };
    let warmup = allocations(16, &mut epoch);
    (warmup, allocations(400, epoch))
}

/// Allocations of 320 explore steps over 32 synthetic 6-app instances,
/// each planned once first.
fn plan_allocations(stream: &StreamReference) -> u64 {
    let cfg = copart_config(stream, true);
    let instances: Vec<_> = (0..32).map(|s| synthetic_instance(6, s)).collect();
    let mut explorer = Explorer::new(7);
    let mut plan = Plan::default();
    for (state, apps) in &instances {
        explorer.plan_into(&cfg, state, &[], apps, 0.3, false, &mut plan);
    }
    let mut k = 0;
    allocations(320, || {
        let (state, apps) = &instances[k % instances.len()];
        k += 1;
        explorer.plan_into(&cfg, state, &[], apps, 0.3, false, &mut plan);
        black_box(&plan);
    })
}

/// Allocations of 200 committed plans at planner scale, after 32 warm-up
/// plans: 4000 apps on 2 ways each, 2 % of the classifications redrawn
/// before every plan. No plan is `measured`, so the explorer never
/// clones a best-seen state.
fn scale_plan_allocations(stream: &StreamReference) -> u64 {
    const APPS: usize = 4000;
    let budget = WaysBudget {
        first_way: 0,
        total_ways: 2 * APPS as u32,
        mba_cap: MbaLevel::MAX,
    };
    let cfg = RuntimeConfig {
        budget,
        ..copart_config(stream, true)
    };
    let mut rng = XorShift64Star::seed_from_u64(0x5CA1E);
    let redraw = |rng: &mut XorShift64Star| {
        let mut state = || match rng.gen_range(0..3u8) {
            0 => AppState::Supply,
            1 => AppState::Maintain,
            _ => AppState::Demand,
        };
        let (llc, mba) = (state(), state());
        AppClassification {
            llc,
            mba,
            slowdown: rng.gen_range(1.0..3.0),
        }
    };
    let mut apps: Vec<AppClassification> = (0..APPS).map(|_| redraw(&mut rng)).collect();
    let mut state = SystemState::equal_split(APPS, &budget, MbaLevel::MAX);
    let mut explorer = Explorer::new(7);
    let mut plan = Plan::default();
    let mut step = || {
        for _ in 0..APPS / 50 {
            let i = rng.gen_range(0..APPS);
            apps[i] = redraw(&mut rng);
        }
        explorer.plan_into(&cfg, &state, &[], &apps, 0.3, false, &mut plan);
        if let Some(target) = plan.target() {
            state.allocs.clone_from(&target.allocs);
        }
        explorer.commit(&plan, true, 0.3);
    };
    allocations(32, &mut step);
    allocations(200, step)
}

/// Allocations of 1000 indexed chaining allocations of 64 consumers
/// over three 16-slot categories, after one.
fn matching_allocations() -> u64 {
    let mut rng = XorShift64Star::seed_from_u64(9);
    let capacities = vec![16usize; 3];
    let consumers: Vec<Consumer> = (0..64)
        .map(|_| Consumer {
            priority: rng.gen_range(1.0..3.0),
            preference: vec![0, 1, 2],
        })
        .collect();
    let (mut assignment, mut scratch) = (Vec::new(), ChainScratch::default());
    chain::allocate_into(&capacities, &consumers, &mut assignment, &mut scratch);
    allocations(1000, || {
        black_box(chain::allocate_into(
            &capacities,
            &consumers,
            &mut assignment,
            &mut scratch,
        ));
    })
}

/// One test, so nothing else in this binary allocates while it counts
/// (the counter is process-wide).
#[test]
fn warm_control_paths_allocate_exactly() {
    let stream = StreamReference::for_machine(&MachineConfig::xeon_gold_6130());
    let (warmup, steady) = epoch_allocations(&stream);
    let plan = plan_allocations(&stream);
    let plan_4000 = scale_plan_allocations(&stream);
    let matching = matching_allocations();
    // The bench baselines said 0.5625 and 0.055 per epoch: 9 and 22.
    assert_eq!(warmup, 5, "allocations in 16 warm-up epochs");
    assert_eq!(steady, 22, "allocations in 400 steady epochs");
    assert_eq!(plan, 0, "allocations in 320 explore steps");
    assert_eq!(
        plan_4000, 0,
        "allocations in 200 explore steps at 4000 apps"
    );
    assert_eq!(matching, 0, "allocations in 1000 chaining allocations");
}
