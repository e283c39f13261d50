//! A warm `Machine::tick` does not touch the heap: the window buffers are
//! reused and the cache walk works in place, with the next-line
//! prefetcher off (the default) and on.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use std::hint::black_box;

use copart_sim::{ClosId, Machine, MachineConfig};
use copart_workloads::{MixKind, WorkloadMix};

/// Heap allocations made by 100 warm 200 ms ticks of an H-Both ×4
/// machine.
fn warm_tick_allocations(prefetch_next_line: bool) -> u64 {
    let mut cfg = MachineConfig::xeon_gold_6130();
    cfg.prefetch_next_line = prefetch_next_line;
    let mix = WorkloadMix::build(MixKind::HighBoth, 4, cfg.n_cores);
    let mut machine = Machine::new(cfg);
    for spec in mix.specs() {
        machine.add_app(spec.clone(), ClosId(0)).expect("mix fits");
    }
    for _ in 0..10 {
        black_box(machine.tick(200_000_000));
    }
    let before = counting_alloc::allocs();
    for _ in 0..100 {
        black_box(machine.tick(200_000_000));
    }
    counting_alloc::allocs() - before
}

/// One test, so nothing else in this binary allocates while it counts
/// (the counter is process-wide).
#[test]
fn warm_ticks_allocate_nothing() {
    for prefetch_next_line in [false, true] {
        assert_eq!(
            warm_tick_allocations(prefetch_next_line),
            0,
            "prefetch_next_line = {prefetch_next_line}"
        );
    }
}
