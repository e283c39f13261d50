//! Timed drives of one public function: the per-call cost as the median
//! over several equally sized batches.

use bench_harness::stats;
use std::time::{Duration, Instant};

/// One batch must last at least this long, so reading the clock is
/// amortised to noise.
const MIN_BATCH: Duration = Duration::from_millis(2);

/// Batches measured when the time budget would allow fewer.
const MIN_BATCHES: usize = 5;

/// Nanoseconds per call of `f`: the batch size doubles until one batch
/// lasts [`MIN_BATCH`] (which also warms caches and lazy set-up), then
/// batches run until `budget` is spent, at least [`MIN_BATCHES`] of them.
/// Returns the median batch mean and the number of batches behind it.
pub fn per_call_ns(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        (0..iters).for_each(|_| f());
        if t.elapsed() >= MIN_BATCH || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let started = Instant::now();
    let mut means = Vec::new();
    while means.len() < MIN_BATCHES || started.elapsed() < budget {
        let t = Instant::now();
        (0..iters).for_each(|_| f());
        means.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    (
        stats::median(&means).expect("at least one batch ran"),
        means.len(),
    )
}

/// Nanoseconds one call of `f` takes, and its result.
pub fn once_ns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_nanos() as f64, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_time_grows_with_the_work() {
        let spin = |n: u64| {
            move || {
                std::hint::black_box((0..n).fold(0u64, |a, b| a ^ std::hint::black_box(b)));
            }
        };
        let (small, batches) = per_call_ns(Duration::from_millis(10), spin(100));
        let (large, _) = per_call_ns(Duration::from_millis(10), spin(10_000));
        assert!(batches >= MIN_BATCHES);
        assert!(large > 10.0 * small, "{small} ns vs {large} ns");
    }
}
