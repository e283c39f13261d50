//! A std-only fork-join pool for the workspace's embarrassingly parallel
//! sweeps: the ST offline search, the figure heatmaps, and the
//! per-mix experiment loops.
//!
//! The workspace is intentionally zero-third-party-dependency, so no
//! rayon: [`par_map`] and [`par_map_indexed`] run the caller as worker 0
//! beside `jobs - 1` **scoped threads** ([`std::thread::scope`]) over a
//! shared chunk queue, nested sweeps included. Each worker
//! repeatedly claims the next unclaimed chunk of the input (an atomic
//! cursor — the degenerate but contention-free form of work stealing
//! where every worker steals from one shared tail), so a slow item never
//! idles the rest of the pool.
//!
//! # Determinism contract
//!
//! Parallel and serial runs must be **byte-identical**. Three rules make
//! that hold:
//!
//! 1. results are returned **in input order**, whatever order workers
//!    finished in (each worker tags results with their input index and
//!    the pool reassembles);
//! 2. the closure must depend only on `(index, item)` — never on thread
//!    identity, claim order, or shared mutable state;
//! 3. randomized tasks derive their stream from the task index via
//!    [`task_rng`], not from a generator that is advanced by *other*
//!    tasks.
//!
//! Under those rules `par_map(items, f)` equals
//! `items.iter().map(f).collect()` for every job count, and callers are
//! free to default to [`effective_jobs`] (the `--jobs N` /
//! `COPART_JOBS` knob, falling back to the machine's available
//! parallelism).
//!
//! # Panics
//!
//! A panicking task does not poison the pool: remaining workers drain
//! the queue, the scope joins, and the first panic (in worker order) is
//! re-raised on the caller thread with its original payload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use copart_rng::XorShift64Star;

/// Process-wide override installed by `--jobs N`. Zero means "not set".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count (the `--jobs N` flag). `None`
/// clears the override, returning control to `COPART_JOBS` / the
/// machine's available parallelism.
pub fn set_jobs(jobs: Option<usize>) {
    JOBS_OVERRIDE.store(jobs.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count sweeps run at: the [`set_jobs`] override if
/// installed, else a positive integer `COPART_JOBS`, else
/// [`std::thread::available_parallelism`] (1 when even that is unknown).
pub fn effective_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Some(n) = std::env::var("COPART_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A deterministic per-task generator: the stream depends only on
/// `(base_seed, task_index)`, so a task draws the same randomness no
/// matter which worker claims it or how many workers exist.
///
/// The index is folded into the seed with the SplitMix64 increment
/// before one mixing round, so adjacent indices yield uncorrelated
/// streams even for small base seeds.
pub fn task_rng(base_seed: u64, task_index: u64) -> XorShift64Star {
    let mut s = base_seed
        ^ task_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    XorShift64Star::seed_from_u64(copart_rng::splitmix64(&mut s))
}

/// Utilization statistics of the most recent parallel sweep in this
/// process (serial fast-path runs report themselves as one busy worker).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Workers the sweep ran with.
    pub jobs: usize,
    /// Tasks (input items) executed.
    pub tasks: usize,
    /// Wall-clock nanoseconds from fork to join.
    pub wall_ns: u64,
    /// Summed per-worker busy nanoseconds (claim loop, task bodies).
    pub busy_ns: u64,
}

impl SweepStats {
    /// Fraction of the pool's capacity that was busy: `busy / (jobs ×
    /// wall)`. 1.0 means every worker computed for the whole sweep; low
    /// values mean workers idled at the join barrier.
    pub fn occupancy(&self) -> f64 {
        if self.wall_ns == 0 || self.jobs == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.wall_ns as f64 * self.jobs as f64)
    }
}

static LAST_SWEEP: Mutex<Option<SweepStats>> = Mutex::new(None);

/// Statistics of the most recent [`par_map`] / [`par_map_indexed`] call,
/// if any — the source for the bench's pool-occupancy telemetry gauge.
pub fn last_sweep() -> Option<SweepStats> {
    *LAST_SWEEP.lock().expect("stats mutex never poisoned")
}

fn record_sweep(stats: SweepStats) {
    *LAST_SWEEP.lock().expect("stats mutex never poisoned") = Some(stats);
}

/// Maps `f` over `items` on [`effective_jobs`] workers, returning
/// results in input order. See the module docs for the determinism
/// contract.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items, 0, |_, item| f(item))
}

/// [`par_map`] with the task index passed to the closure and an explicit
/// chunk granularity: workers claim `chunk` consecutive items at a time
/// (0 picks a granularity of roughly four chunks per worker). Larger
/// chunks amortize claim traffic for sub-microsecond bodies; chunk 1 is
/// right for bodies that run milliseconds, like the policy evaluations.
pub fn par_map_indexed<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run(items, effective_jobs(), chunk, &f)
}

/// [`par_map_indexed`] with an explicit worker count, bypassing the
/// global knob — the determinism tests and the speedup bench compare
/// job counts side by side without racing on process state.
pub fn par_map_indexed_jobs<T, R, F>(items: &[T], jobs: usize, chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run(items, jobs, chunk, &f)
}

fn run<T, R, F>(items: &[T], jobs: usize, chunk: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = jobs.clamp(1, n.max(1));
    let chunk = if chunk == 0 {
        (n / (jobs * 4)).max(1)
    } else {
        chunk
    };
    let start = Instant::now();
    if jobs == 1 || n <= 1 {
        // Serial fast path: no threads, no claim traffic — and by the
        // determinism contract, the same output as any parallel run.
        let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let wall = start.elapsed().as_nanos() as u64;
        record_sweep(SweepStats {
            jobs: 1,
            tasks: n,
            wall_ns: wall,
            busy_ns: wall,
        });
        return out;
    }

    let cursor = AtomicUsize::new(0);
    let busy_total = AtomicU64::new(0);
    let work = || {
        let t0 = Instant::now();
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n {
                break;
            }
            let hi = (lo + chunk).min(n);
            for (i, item) in items[lo..hi].iter().enumerate() {
                local.push((lo + i, f(lo + i, item)));
            }
        }
        busy_total.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        local
    };
    let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        // The caller is worker 0 and spawns `jobs - 1` threads: it would
        // otherwise only wait, and each extra live thread pins an
        // allocator arena of its own.
        let handles: Vec<_> = (1..jobs).map(|_| scope.spawn(work)).collect();
        let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(work));
        // Join in worker order; the first panic payload is re-raised
        // after the scope has joined the remaining workers.
        let mut panic_payload = None;
        for part in std::iter::once(own).chain(handles.into_iter().map(|h| h.join())) {
            match part {
                Ok(part) => parts.push(part),
                Err(payload) => {
                    panic_payload.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic_payload {
            std::panic::resume_unwind(payload);
        }
    });
    record_sweep(SweepStats {
        jobs,
        tasks: n,
        wall_ns: start.elapsed().as_nanos() as u64,
        busy_ns: busy_total.load(Ordering::Relaxed),
    });

    // Reassemble in input order: every index appears exactly once across
    // the per-worker parts.
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed by exactly one worker"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::MutexGuard;

    /// Serialises the tests that run a sweep: each one overwrites the
    /// process-global [`last_sweep`], which the stats test reads back.
    fn sweeping() -> MutexGuard<'static, ()> {
        static SWEEPS: Mutex<()> = Mutex::new(());
        SWEEPS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn preserves_input_order_at_any_job_count() {
        let _sweeping = sweeping();
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            for chunk in [0, 1, 5, 300] {
                let got = par_map_indexed_jobs(&items, jobs, chunk, |i, &x| {
                    assert_eq!(i as u64, x);
                    x * x + 1
                });
                assert_eq!(got, expect, "jobs={jobs} chunk={chunk}");
            }
        }
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        let _sweeping = sweeping();
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map(&empty, |&x| x), Vec::<u32>::new());
        assert_eq!(
            par_map_indexed_jobs(&[7u32], 8, 0, |i, &x| x + i as u32),
            vec![7]
        );
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let _sweeping = sweeping();
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map_indexed_jobs(&items, 7, 3, |_, &x| {
            HITS.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(HITS.load(Ordering::Relaxed), 1000);
        assert_eq!(out, items);
    }

    #[test]
    fn propagates_panics_with_payload() {
        let _sweeping = sweeping();
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_indexed_jobs(&items, 4, 1, |_, &x| {
                if x == 13 {
                    panic!("unlucky task");
                }
                x
            })
        });
        let payload = caught.expect_err("the task panic must surface");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload survives");
        assert_eq!(msg, "unlucky task");
    }

    #[test]
    fn task_rng_depends_only_on_seed_and_index() {
        let mut a = task_rng(42, 3);
        let mut b = task_rng(42, 3);
        assert_eq!(a.next_u64(), b.next_u64());
        // Adjacent indices and seeds diverge immediately.
        assert_ne!(task_rng(42, 3).next_u64(), task_rng(42, 4).next_u64());
        assert_ne!(task_rng(42, 3).next_u64(), task_rng(43, 3).next_u64());
    }

    #[test]
    fn parallel_matches_serial_with_task_rng() {
        let _sweeping = sweeping();
        let items: Vec<u64> = (0..100).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, _)| task_rng(9, i as u64).next_u64())
            .collect();
        let parallel = par_map_indexed_jobs(&items, 8, 1, |i, _| task_rng(9, i as u64).next_u64());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sweeps_run_on_their_caller() {
        use std::sync::Barrier;
        let _guard = sweeping();
        // Two items on two workers, each item held at a barrier until
        // the other has started: a worker blocked in one item cannot
        // claim the other, so each worker runs exactly one of them.
        let top = std::thread::current().id();
        let outer_gate = Barrier::new(2);
        let rows = par_map_indexed_jobs(&[0u64, 1], 2, 1, |_, &row| {
            outer_gate.wait();
            let caller = std::thread::current().id();
            let inner_gate = Barrier::new(2);
            let done = par_map_indexed_jobs(&[0u64, 1], 2, 1, |_, &x| {
                inner_gate.wait();
                (row * 100 + x, std::thread::current().id())
            });
            let on_caller = done.iter().any(|&(_, id)| id == caller);
            let values: Vec<u64> = done.into_iter().map(|(v, _)| v).collect();
            (values, on_caller, caller)
        });
        assert!(
            rows.iter().any(|&(_, _, id)| id == top),
            "the top-level sweep never ran on its caller"
        );
        for (row, (values, on_caller, _)) in rows.into_iter().enumerate() {
            assert_eq!(values, [row as u64 * 100, row as u64 * 100 + 1]);
            assert!(
                on_caller,
                "row {row}: the nested sweep never ran on its caller"
            );
        }
    }

    #[test]
    fn sweep_stats_are_recorded_and_sane() {
        let _sweeping = sweeping();
        let items: Vec<u32> = (0..128).collect();
        let _ = par_map_indexed_jobs(&items, 4, 1, |_, &x| {
            // A body long enough that busy time registers.
            std::hint::black_box((0..500u32).fold(x, u32::wrapping_add))
        });
        let stats = last_sweep().expect("a sweep just ran");
        assert_eq!(stats.jobs, 4);
        assert_eq!(stats.tasks, 128);
        assert!(stats.wall_ns > 0);
        assert!(stats.occupancy() > 0.0 && stats.occupancy() <= 1.001);
    }

    #[test]
    fn jobs_override_wins_over_environment() {
        // Serialized against other tests by touching only the override.
        set_jobs(Some(3));
        assert_eq!(effective_jobs(), 3);
        set_jobs(None);
        assert!(effective_jobs() >= 1);
    }
}
