//! The allocation-counting global allocator the root allocation tests
//! share (`control_alloc.rs`, `persist_alloc.rs`, `sim_tick_alloc.rs`).
//! Included with `#[path]` — each test file is its own binary, and the
//! library crates forbid the `unsafe` a `GlobalAlloc` impl needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations so a test can hold allocations per
/// operation. Only `alloc`/`realloc` count — frees are not new
/// allocations — and the counter is process-global, so the measured
/// section must run single-threaded.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's obligations are exactly `System`'s; the counter is the
// only thing added and it touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) made by the process so far.
pub fn allocs() -> u64 {
    ALLOC_COUNT.load(Ordering::Relaxed)
}
