//! Prometheus text exposition (version 0.0.4) for a [`MetricsSnapshot`].
//!
//! The registry's three kinds map directly onto Prometheus types:
//! counters become `copart_<name>_total` counters, gauges become
//! `copart_<name>` gauges, and the fixed-bucket latency histograms
//! become `copart_<name>` histograms with cumulative `le` buckets, a
//! `_sum`, and a `_count`. The registry stores *per-bucket* counts, so
//! rendering cumulates them on the way out — the one representational
//! difference between the two formats.

use copart_telemetry::{MetricsSnapshot, SERIES};
use std::fmt::Write as _;

/// The metric-name prefix every exposed series carries.
pub const PREFIX: &str = "copart";

/// `# HELP` text for a series, from [`SERIES`]. Names the table lacks
/// (e.g. a bench probe) fall back to a generic line so the exposition
/// stays valid either way.
pub fn help(name: &str) -> &'static str {
    SERIES
        .iter()
        .find(|&&(series, ..)| series == name)
        .map_or("CoPart metric", |&(.., help)| help)
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
    fn help_text_comes_from_the_series_table() {
        for &(name, _, text) in SERIES {
            assert_eq!(help(name), text);
        }
        assert_eq!(help("bench_probe"), "CoPart metric");
    }
}
