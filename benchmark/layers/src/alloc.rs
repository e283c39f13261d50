//! A counting global allocator: `core.allocs_per_epoch` is the number of
//! heap allocations a steady-state epoch makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting calls to `alloc` and
/// `realloc` (a growing `Vec` is an allocation too).
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// and publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far by the whole process.
pub fn count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_allocations_on_this_thread() {
        // Other test threads allocate too, so only a lower bound holds.
        let before = super::count();
        let v: Vec<Vec<u8>> = (0..100).map(|i| vec![0u8; i + 1]).collect();
        std::hint::black_box(&v);
        assert!(super::count() - before >= 100);
    }
}
