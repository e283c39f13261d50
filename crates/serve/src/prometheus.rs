//! Prometheus text exposition (version 0.0.4) for a [`MetricsSnapshot`].
//!
//! The registry's three kinds map directly onto Prometheus types:
//! counters become `copart_<name>_total` counters, gauges become
//! `copart_<name>` gauges, and the fixed-bucket latency histograms
//! become `copart_<name>` histograms with cumulative `le` buckets, a
//! `_sum`, and a `_count`. The registry stores *per-bucket* counts, so
//! rendering cumulates them on the way out — the one representational
//! difference between the two formats.

use copart_telemetry::MetricsSnapshot;
use std::fmt::Write as _;

/// The metric-name prefix every exposed series carries.
pub const PREFIX: &str = "copart";

/// `# HELP` text for the metrics the runtime and daemon emit. Unknown
/// names (e.g. from future counters) fall back to a generic line so the
/// exposition stays valid either way.
pub fn help(name: &str) -> &'static str {
    match name {
        "epochs" => "Control periods executed",
        "transfers" => "Resource units moved by Algorithm 2 proposals",
        "theta_retries" => "Random neighbor states tried after convergence (theta)",
        "convergences" => "Times the explorer settled into the idle phase",
        "re_explorations" => "Times idle-phase drift triggered re-adaptation",
        "apps_profiled" => "Profiling passes over single applications",
        "backend_applies" => "Full allocation writes to the backend",
        "matching_rounds" => "Stable-matching rounds inside planning",
        "fault_write_retries" => "Transient backend write failures that were retried",
        "degraded_epochs" => "Epochs run on stale counters after a sensing fault",
        "fault_counter_dropouts" => "Counter reads lost to injected dropouts",
        "partition_apply_failures" => "Allocation transactions that failed mid-write",
        "partition_rollbacks" => "Failed transactions rolled back to the prior state",
        "rollback_write_failures" => "Rollback writes that themselves failed",
        "unfairness" => "Current weighted unfairness (sigma/mu of slowdowns, Eq 2)",
        "epoch_ns" => "End-to-end control epoch latency",
        "explore_ns" => "Latency of one get_next_system_state decision",
        "apply_ns" => "Latency of one backend programming pass",
        "epoch_failures" => "Daemon epochs whose run_period returned an error",
        "ticks" => "Epoch-timer ticks observed by the daemon",
        "epoch_deadline_misses" => "Epochs that started more than one tick late",
        "tick_lag_ns" => "Lag between the scheduled and actual epoch start",
        "http_requests" => "HTTP requests parsed",
        "http_responses_2xx" => "HTTP responses with a 2xx status",
        "http_responses_4xx" => "HTTP responses with a 4xx status",
        "http_responses_5xx" => "HTTP responses with a 5xx status",
        "http_rejected_overload" => "Connections answered 503 because the queue was full",
        "admitted_apps" => "Applications admitted through POST /apps",
        "removed_apps" => "Applications removed through DELETE /apps",
        "policy_switches" => "Live policy switches through POST /policy",
        "trace_rotations" => "Trace files opened after the previous one filled",
        "trace_verify_failures" => "Recorded events that rewound the epoch or time",
        "healthy" => "1 when the control loop's last epoch is recent or it is done, else 0",
        "cluster_replans" => "LFOC cluster plans recomputed",
        "clusters" => "Clusters in the current LFOC plan",
        "snapshots_written" => "State snapshots written to the state directory",
        "recoveries" => "Times this run resumed from a snapshot",
        "snapshot_bytes" => "Size of the last state snapshot, bytes",
        "snapshot_ns" => "Latency of writing one state snapshot",
        _ => "CoPart metric",
    }
}

/// Renders the snapshot as Prometheus text exposition.
///
/// # Examples
///
/// ```
/// use copart_telemetry::MetricsRegistry;
/// let m = MetricsRegistry::new();
/// m.inc("epochs");
/// m.set_gauge("unfairness", 0.25);
/// let text = copart_serve::prometheus::render(&m.snapshot());
/// assert!(text.contains("# TYPE copart_epochs_total counter"));
/// assert!(text.contains("copart_epochs_total 1"));
/// assert!(text.contains("copart_unfairness 0.25"));
/// ```
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let _ = writeln!(out, "# HELP {PREFIX}_{name}_total {}", help(name));
        let _ = writeln!(out, "# TYPE {PREFIX}_{name}_total counter");
        let _ = writeln!(out, "{PREFIX}_{name}_total {value}");
    }
    for (name, value) in &snap.gauges {
        let _ = writeln!(out, "# HELP {PREFIX}_{name} {}", help(name));
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} gauge");
        let _ = writeln!(out, "{PREFIX}_{name} {value}");
    }
    for (name, hist) in &snap.histograms {
        let _ = writeln!(out, "# HELP {PREFIX}_{name} {}", help(name));
        let _ = writeln!(out, "# TYPE {PREFIX}_{name} histogram");
        let mut cumulative = 0u64;
        for (bound, count) in hist.buckets() {
            cumulative += count;
            if bound == u64::MAX {
                // The overflow bucket is only representable as +Inf;
                // it is emitted below with the full count.
                continue;
            }
            let _ = writeln!(out, "{PREFIX}_{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(
            out,
            "{PREFIX}_{name}_bucket{{le=\"+Inf\"}} {}",
            hist.count()
        );
        let _ = writeln!(out, "{PREFIX}_{name}_sum {}", hist.sum_ns());
        let _ = writeln!(out, "{PREFIX}_{name}_count {}", hist.count());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_telemetry::MetricsRegistry;

    #[test]
    fn renders_all_three_kinds() {
        let m = MetricsRegistry::new();
        m.add("epochs", 7);
        m.set_gauge("unfairness", 0.125);
        m.observe_ns("epoch_ns", 300);
        m.observe_ns("epoch_ns", 100_000);
        let text = render(&m.snapshot());
        assert!(text.contains("# TYPE copart_epochs_total counter"));
        assert!(text.contains("copart_epochs_total 7"));
        assert!(text.contains("# TYPE copart_unfairness gauge"));
        assert!(text.contains("copart_unfairness 0.125"));
        assert!(text.contains("# TYPE copart_epoch_ns histogram"));
        assert!(text.contains("copart_epoch_ns_bucket{le=\"512\"} 1"));
        assert!(text.contains("copart_epoch_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("copart_epoch_ns_sum 100300"));
        assert!(text.contains("copart_epoch_ns_count 2"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_increasing() {
        let m = MetricsRegistry::new();
        for ns in [100, 100, 400, 4000, 4000, 4000] {
            m.observe_ns("epoch_ns", ns);
        }
        let text = render(&m.snapshot());
        let mut last = 0u64;
        let mut last_bound = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let (head, count) = line.rsplit_once(' ').unwrap();
            let count: u64 = count.parse().unwrap();
            assert!(count >= last, "buckets must be cumulative: {line}");
            last = count;
            let bound = head.split('"').nth(1).unwrap();
            if bound != "+Inf" {
                let bound: u64 = bound.parse().unwrap();
                assert!(bound > last_bound, "le bounds must increase: {line}");
                last_bound = bound;
            }
        }
        assert_eq!(last, 6, "+Inf bucket carries the total count");
    }

    #[test]
    fn overflow_bucket_folds_into_inf() {
        let m = MetricsRegistry::new();
        m.observe_ns("epoch_ns", u64::MAX);
        let text = render(&m.snapshot());
        assert!(!text.contains("le=\"18446744073709551615\""));
        assert!(text.contains("copart_epoch_ns_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn every_documented_metric_has_specific_help() {
        for name in [
            "epochs",
            "transfers",
            "theta_retries",
            "convergences",
            "re_explorations",
            "apps_profiled",
            "backend_applies",
            "matching_rounds",
            "fault_write_retries",
            "degraded_epochs",
            "fault_counter_dropouts",
            "partition_apply_failures",
            "partition_rollbacks",
            "rollback_write_failures",
            "unfairness",
            "epoch_ns",
            "explore_ns",
            "apply_ns",
            "ticks",
            "epoch_deadline_misses",
            "http_requests",
        ] {
            assert_ne!(help(name), "CoPart metric", "missing help for {name}");
        }
    }
}
