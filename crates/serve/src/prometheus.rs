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
    // Sized above a daemon's full registry (~9 KB) so the text does not
    // regrow; the static text goes in with `push_str` and only the
    // values are formatted.
    let mut out = String::with_capacity(12 * 1024);
    for &(name, value) in &snap.counters {
        head(&mut out, name, "_total", "counter");
        sample(&mut out, name, "_total ");
        push_u64(&mut out, value);
        out.push('\n');
    }
    for &(name, value) in &snap.gauges {
        head(&mut out, name, "", "gauge");
        sample(&mut out, name, " ");
        let _ = writeln!(out, "{value}");
    }
    for (name, hist) in &snap.histograms {
        head(&mut out, name, "", "histogram");
        let mut cumulative = 0u64;
        for (bound, count) in hist.buckets() {
            cumulative += count;
            if bound == u64::MAX {
                // The overflow bucket is only representable as +Inf;
                // it is emitted below with the full count.
                continue;
            }
            sample(&mut out, name, "_bucket{le=\"");
            push_u64(&mut out, bound);
            out.push_str("\"} ");
            push_u64(&mut out, cumulative);
            out.push('\n');
        }
        sample(&mut out, name, "_bucket{le=\"+Inf\"} ");
        push_u64(&mut out, hist.count());
        out.push('\n');
        sample(&mut out, name, "_sum ");
        let _ = writeln!(out, "{}", hist.sum_ns());
        sample(&mut out, name, "_count ");
        push_u64(&mut out, hist.count());
        out.push('\n');
    }
    out
}

/// A series' `# HELP` and `# TYPE` lines.
fn head(out: &mut String, name: &str, suffix: &str, kind: &str) {
    for (tag, text) in [("# HELP ", help(name)), ("# TYPE ", kind)] {
        out.push_str(tag);
        sample(out, name, suffix);
        out.push(' ');
        out.push_str(text);
        out.push('\n');
    }
}

/// `copart_<name><suffix>`, the start of a sample line.
fn sample(out: &mut String, name: &str, suffix: &str) {
    out.push_str(PREFIX);
    out.push('_');
    out.push_str(name);
    out.push_str(suffix);
}

/// `value` in decimal, as `{value}` formats it.
fn push_u64(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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

    /// The exposition byte for byte, every kind and a multi-bucket
    /// histogram with an overflow sample.
    #[test]
    fn renders_the_exact_text() {
        let m = MetricsRegistry::new();
        m.add("epochs", 1_234_567_890);
        m.add("ticks", 0);
        m.set_gauge("unfairness", 0.1 + 0.2);
        m.observe_ns("epoch_ns", 0);
        m.observe_ns("epoch_ns", 3_000);
        m.observe_ns("epoch_ns", u64::MAX);
        let expected = "\
# HELP copart_epochs_total Control periods executed
# TYPE copart_epochs_total counter
copart_epochs_total 1234567890
# HELP copart_ticks_total Epoch-timer ticks observed by the daemon
# TYPE copart_ticks_total counter
copart_ticks_total 0
# HELP copart_unfairness Current weighted unfairness (sigma/mu of slowdowns, Eq 2)
# TYPE copart_unfairness gauge
copart_unfairness 0.30000000000000004
# HELP copart_epoch_ns End-to-end control epoch latency
# TYPE copart_epoch_ns histogram
copart_epoch_ns_bucket{le=\"256\"} 1
copart_epoch_ns_bucket{le=\"4096\"} 2
copart_epoch_ns_bucket{le=\"+Inf\"} 3
copart_epoch_ns_sum 18446744073709554615
copart_epoch_ns_count 3
";
        assert_eq!(render(&m.snapshot()), expected);
        for value in [0, 9, 10, 99, 100, 1 << 40, u64::MAX - 1, u64::MAX] {
            let mut out = String::new();
            push_u64(&mut out, value);
            assert_eq!(out, value.to_string());
        }
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
