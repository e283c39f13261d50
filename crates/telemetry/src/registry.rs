//! A low-overhead metrics registry: monotonic counters, gauges, and
//! fixed-bucket latency histograms with a [`MetricsRegistry::snapshot`]
//! API.
//!
//! The consolidation runtime feeds three histograms per run —
//! `explore_ns` (one `get_next_system_state` decision), `apply_ns` (one
//! backend programming pass), and `epoch_ns` (one end-to-end control
//! epoch) — plus counters for epochs, transfers, θ-retries and backend
//! calls. Names are `&'static str` so the hot path never allocates.
//!
//! All mutation goes through `&self`: the registry keeps its three maps
//! behind one internal mutex, so an `Arc<MetricsRegistry>` can be shared
//! between the epoch thread that records and a listener thread that
//! serves `/metrics`. The single lock is deliberate — a snapshot taken
//! mid-epoch still sees counters, gauges and histograms from one
//! consistent instant (never `epochs = N` next to an `epoch_ns` count of
//! `N - 1`), which per-metric atomics could not guarantee.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Histogram bucket upper bounds in nanoseconds: 256 ns doubling up to
/// ~8.6 s, which brackets everything from a sub-microsecond matching
/// decision to a long profiling epoch. Samples above the last bound land
/// in an implicit overflow bucket.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 25] = {
    let mut bounds = [0u64; 25];
    let mut i = 0;
    while i < 25 {
        bounds[i] = 256u64 << i;
        i += 1;
    }
    bounds
};

/// A fixed-bucket latency histogram over [`LATENCY_BUCKET_BOUNDS_NS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
    count: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: [0; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
            count: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    /// Records one latency sample.
    pub fn observe_ns(&mut self, ns: u64) {
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Mean sample, in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Largest sample seen, in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`): the
    /// upper bound of the bucket containing that rank. Returns 0 when
    /// empty; `u64::MAX` when the rank falls in the overflow bucket.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LATENCY_BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(upper_bound_ns, count)`; the overflow
    /// bucket reports `u64::MAX` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                (
                    LATENCY_BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX),
                    c,
                )
            })
    }
}

/// What a series in [`SERIES`] is: the registry map it lives in, and the
/// Prometheus type it is exposed as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// A monotonic counter, exposed as `copart_<name>_total`.
    Counter,
    /// A gauge, exposed as `copart_<name>`.
    Gauge,
    /// A latency histogram, exposed as `copart_<name>` with `le` buckets.
    Histogram,
}

/// Every series the workspace emits, as `(name, kind, help)`: the one
/// list the metrics snapshot interns names from on restore, `/metrics`
/// takes its `# HELP` text from, and OPERATIONS.md documents.
// One row per line keeps the table a table.
#[rustfmt::skip]
pub const SERIES: &[(&str, SeriesKind, &str)] = {
    use SeriesKind::{Counter, Gauge, Histogram};
    &[
        ("epochs", Counter, "Control periods executed"),
        ("transfers", Counter, "Resource units moved by Algorithm 2 proposals"),
        ("theta_retries", Counter, "Random neighbor states tried after convergence (theta)"),
        ("convergences", Counter, "Times the explorer settled into the idle phase"),
        ("re_explorations", Counter, "Times idle-phase drift triggered re-adaptation"),
        ("matching_rounds", Counter, "Stable-matching rounds inside planning"),
        ("apps_profiled", Counter, "Profiling passes over single applications"),
        ("backend_applies", Counter, "Full allocation writes to the backend"),
        ("fault_write_retries", Counter, "Transient backend write failures that were retried"),
        ("fault_counter_dropouts", Counter, "Counter reads lost to injected dropouts"),
        ("degraded_epochs", Counter, "Epochs run on stale counters after a sensing fault"),
        ("partition_apply_failures", Counter, "Allocation transactions that failed mid-write"),
        ("partition_rollbacks", Counter, "Failed transactions rolled back to the prior state"),
        ("rollback_write_failures", Counter, "Rollback writes that themselves failed"),
        ("admitted_apps", Counter, "Applications admitted through POST /apps"),
        ("removed_apps", Counter, "Applications removed through DELETE /apps"),
        ("policy_switches", Counter, "Live policy switches through POST /policy"),
        ("epoch_failures", Counter, "Daemon epochs whose run_period returned an error"),
        ("ticks", Counter, "Epoch-timer ticks observed by the daemon"),
        ("epoch_deadline_misses", Counter, "Epochs that started more than one tick late"),
        ("http_requests", Counter, "HTTP requests parsed"),
        ("http_responses_2xx", Counter, "HTTP responses with a 2xx status"),
        ("http_responses_4xx", Counter, "HTTP responses with a 4xx status"),
        ("http_responses_5xx", Counter, "HTTP responses with a 5xx status"),
        ("http_rejected_overload", Counter, "Connections answered 503 because the queue was full"),
        ("trace_rotations", Counter, "Trace files opened after the previous one filled"),
        ("trace_verify_failures", Counter, "Recorded events that rewound the epoch or time"),
        ("snapshots_written", Counter, "State snapshots landed in the state directory"),
        ("recoveries", Counter, "Times this run resumed from a snapshot"),
        ("cluster_replans", Counter, "LFOC cluster plans recomputed"),
        ("unfairness", Gauge, "Current weighted unfairness (sigma/mu of slowdowns, Eq 2)"),
        ("snapshot_bytes", Gauge, "Size of the last state snapshot, bytes"),
        ("clusters", Gauge, "Clusters in the current LFOC plan"),
        ("healthy", Gauge, "1 when the control loop's last epoch is recent or it is done, else 0"),
        ("epoch_ns", Histogram, "End-to-end control epoch latency"),
        ("explore_ns", Histogram, "Latency of one get_next_system_state decision"),
        ("apply_ns", Histogram, "Latency of one backend programming pass"),
        ("tick_lag_ns", Histogram, "Lag between the scheduled and actual epoch start"),
        ("snapshot_ns", Histogram, "Latency of one state snapshot, from its cut until it landed"),
        ("snapshot_cut_ns", Histogram, "Control-thread part of a state snapshot: trace flush, capture, log rotation"),
    ]
};

/// The registry's maps, guarded together by one mutex so readers always
/// see one consistent instant across all three kinds.
#[derive(Debug, Clone, Default)]
struct RegistryInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Counters, gauges and histograms under `&'static str` names.
///
/// Mutators take `&self`: the maps live behind a single internal mutex,
/// so the registry can be shared (`Arc<MetricsRegistry>`) between the
/// thread recording metrics and a thread snapshotting them.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl Clone for MetricsRegistry {
    fn clone(&self) -> MetricsRegistry {
        MetricsRegistry {
            inner: Mutex::new(self.lock().clone()),
        }
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The maps, recovered even if a panicking thread poisoned the lock —
    /// metrics are monotone bookkeeping, never left mid-invariant.
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Increments the named monotonic counter by 1.
    pub fn inc(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Increments the named monotonic counter by `n`.
    pub fn add(&self, name: &'static str, n: u64) {
        *self.lock().counters.entry(name).or_insert(0) += n;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Overwrites the named counter — the snapshot/restore seam, used
    /// when a crash-recovered runtime re-adopts the counter values a
    /// persisted snapshot recorded. Normal accounting must go through
    /// [`MetricsRegistry::inc`]/[`MetricsRegistry::add`]; this is the
    /// one sanctioned break in counter monotonicity.
    pub fn set_counter(&self, name: &'static str, value: u64) {
        self.lock().counters.insert(name, value);
    }

    /// Sets the named gauge to an arbitrary value.
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        self.lock().gauges.insert(name, value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records a latency sample into the named histogram.
    pub fn observe_ns(&self, name: &'static str, ns: u64) {
        self.lock()
            .histograms
            .entry(name)
            .or_default()
            .observe_ns(ns);
    }

    /// A copy of the named histogram, if it has ever received a sample.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// A point-in-time copy of every metric. Taken under the registry's
    /// single lock, so the counters, gauges and histograms in one
    /// snapshot are mutually consistent even while another thread
    /// records.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(&k, &v)| (k, v)).collect(),
            gauges: inner.gauges.iter().map(|(&k, &v)| (k, v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(&k, v)| (k, v.clone()))
                .collect(),
        }
    }
}

/// A frozen copy of a [`MetricsRegistry`], sorted by name.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(&'static str, f64)>,
    /// `(name, histogram)` for every histogram.
    pub histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsSnapshot {
    /// The named counter's value at snapshot time (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// The named histogram at snapshot time.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, h)| h)
    }

    /// The snapshot without the host's wall-clock readings (the latency
    /// histograms' values), as one line: every counter and gauge, and how
    /// many observations each histogram holds. Two runs of one
    /// simulation agree on it exactly.
    pub fn simulated(&self) -> String {
        let histograms: Vec<(&str, u64)> = (self.histograms.iter())
            .map(|(name, h)| (*name, h.count()))
            .collect();
        format!("{:?} {:?} {histograms:?}", self.counters, self.gauges)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Human-readable rendering, one metric per line, used by the CLI's
    /// `--metrics` flag.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "counter {name} = {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "gauge   {name} = {v:.6}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "hist    {name}: count={} mean={} p50≤{} p99≤{} max={}",
                h.count(),
                fmt_ns(h.mean_ns()),
                fmt_ns(h.quantile_ns(0.50) as f64),
                fmt_ns(h.quantile_ns(0.99) as f64),
                fmt_ns(h.max_ns() as f64),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.inc("epochs");
        m.inc("epochs");
        m.add("epochs", 3);
        assert_eq!(m.counter("epochs"), 5);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn set_counter_overwrites_and_keeps_accumulating() {
        let m = MetricsRegistry::new();
        m.inc("epochs");
        m.set_counter("epochs", 41);
        m.inc("epochs");
        assert_eq!(m.counter("epochs"), 42);
        m.set_counter("fresh", 7);
        assert_eq!(m.counter("fresh"), 7);
    }

    #[test]
    fn gauges_overwrite() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("u"), None);
        m.set_gauge("u", 0.5);
        m.set_gauge("u", 0.25);
        assert_eq!(m.gauge("u"), Some(0.25));
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile_ns(0.5), 0);
        for ns in [100u64, 200, 300, 100_000, 2_000_000] {
            h.observe_ns(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max_ns(), 2_000_000);
        assert!((h.mean_ns() - 420_120.0).abs() < 1.0);
        // Rank 3 of 5 lands on the 300ns sample, in the ≤512ns bucket.
        assert_eq!(h.quantile_ns(0.5), 512);
        assert!(h.quantile_ns(1.0) >= 2_000_000);
        let total: u64 = h.buckets().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::default();
        h.observe_ns(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_ns(0.5), u64::MAX);
        assert_eq!(h.buckets().next(), Some((u64::MAX, 1)));
    }

    #[test]
    fn bucket_bounds_are_increasing() {
        for pair in LATENCY_BUCKET_BOUNDS_NS.windows(2) {
            assert!(pair[0] < pair[1]);
        }
        assert_eq!(LATENCY_BUCKET_BOUNDS_NS[0], 256);
    }

    #[test]
    fn snapshot_is_a_frozen_copy() {
        let m = MetricsRegistry::new();
        m.inc("epochs");
        m.observe_ns("epoch_ns", 1000);
        let snap = m.snapshot();
        m.inc("epochs");
        m.observe_ns("epoch_ns", 2000);
        assert_eq!(snap.counter("epochs"), 1);
        assert_eq!(snap.histogram("epoch_ns").unwrap().count(), 1);
        assert_eq!(m.counter("epochs"), 2);
    }

    #[test]
    fn shared_across_threads_snapshots_consistently() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new());
        let writer = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    // One epoch = one counter bump plus one latency sample,
                    // taken under the same lock acquisitions a real epoch
                    // driver performs.
                    m.inc("epochs");
                    m.observe_ns("epoch_ns", 1000 + i);
                }
            })
        };
        let reader = {
            let m = Arc::clone(&m);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let snap = m.snapshot();
                    let epochs = snap.counter("epochs");
                    let samples = snap.histogram("epoch_ns").map_or(0, |h| h.count());
                    // Writers bump the counter before observing the sample,
                    // so a consistent snapshot can be ahead by at most one.
                    assert!(
                        epochs == samples || epochs == samples + 1,
                        "inconsistent snapshot: epochs={epochs} samples={samples}"
                    );
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(m.counter("epochs"), 1000);
    }

    #[test]
    fn snapshot_renders_every_kind() {
        let m = MetricsRegistry::new();
        m.inc("epochs");
        m.set_gauge("unfairness", 0.125);
        m.observe_ns("epoch_ns", 1_500_000);
        let text = m.snapshot().to_string();
        assert!(text.contains("counter epochs = 1"));
        assert!(text.contains("gauge   unfairness = 0.125000"));
        assert!(text.contains("hist    epoch_ns: count=1"));
    }
}
