//! Freezing and restoring the metrics registry.
//!
//! [`copart_telemetry::MetricsRegistry`] keys its series by
//! `&'static str`, which keeps the hot path allocation-free but means a
//! name read back from disk (a `String`) cannot be handed to
//! [`MetricsRegistry::set_counter`] directly. Restoring looks every
//! counter and gauge up in [`copart_telemetry::SERIES`], the one table of
//! the series the workspace emits, to get its static name back; a
//! snapshot written by a newer build with series this build does
//! not know is restored best-effort (unknown names are skipped and
//! reported, never fabricated).
//!
//! Histograms (`*_ns` latency series) are deliberately *not* frozen:
//! they measure wall-clock behaviour of the process that died, which a
//! resumed process cannot meaningfully continue. This is a documented
//! recovery invariant (DESIGN.md §16).

use copart_telemetry::{
    JsonReader, JsonWriter, MetricsRegistry, MetricsSnapshot, SeriesKind, SERIES,
};

use crate::codec::{arr, hex_f64, obj};
use crate::error::PersistError;

/// Series the daemon computes each time `/metrics` is rendered instead
/// of holding them in the registry: a frozen value of one is stale, so
/// restore skips it like an unknown name.
const RENDERED: &[&str] = &["healthy"];

/// The static name [`SERIES`] lists for `name` as a series of `kind`,
/// unless it is one of the [`RENDERED`] series.
fn intern(name: &str, kind: SeriesKind) -> Option<&'static str> {
    SERIES
        .iter()
        .filter(|&&(series, ..)| !RENDERED.contains(&series))
        .find(|&&(series, k, _)| series == name && k == kind)
        .map(|&(series, ..)| series)
}

/// The restorable slice of a [`MetricsSnapshot`]: cumulative counters
/// and current gauges, without the wall-clock histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrozen {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
}

impl MetricsFrozen {
    /// Freezes the restorable slice of a registry snapshot.
    pub fn capture(snap: &MetricsSnapshot) -> MetricsFrozen {
        MetricsFrozen {
            counters: snap
                .counters
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
            gauges: snap
                .gauges
                .iter()
                .map(|&(k, v)| (k.to_string(), v))
                .collect(),
        }
    }

    /// Writes the frozen values back into a live registry. Returns the
    /// names that could not be interned (unknown to this build) and were
    /// therefore skipped.
    pub fn restore(&self, registry: &MetricsRegistry) -> Vec<String> {
        let mut skipped = Vec::new();
        for (name, value) in &self.counters {
            match intern(name, SeriesKind::Counter) {
                Some(key) => registry.set_counter(key, *value),
                None => skipped.push(name.clone()),
            }
        }
        for (name, value) in &self.gauges {
            match intern(name, SeriesKind::Gauge) {
                Some(key) => registry.set_gauge(key, *value),
                None => skipped.push(name.clone()),
            }
        }
        skipped
    }

    /// Streams the frozen values into `s`: counters as hex `u64`, gauges
    /// as hex bits.
    pub fn emit(&self, s: &mut JsonWriter<'_>) {
        s.begin_obj();
        arr(s, "counters", &self.counters, |s, (name, value)| {
            s.begin_obj();
            s.key("name").str(name);
            s.key("value").hex16(*value);
            s.end_obj();
        });
        arr(s, "gauges", &self.gauges, |s, (name, value)| {
            s.begin_obj();
            s.key("name").str(name);
            hex_f64(s, "value", *value);
            s.end_obj();
        });
        s.end_obj();
    }

    /// Reads the object [`MetricsFrozen::emit`] writes, at the reader's
    /// position.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] on missing, out-of-order or ill-typed
    /// members; [`PersistError::Json`] on malformed text.
    pub fn read(r: &mut JsonReader<'_>) -> Result<MetricsFrozen, PersistError> {
        obj(r, |r| {
            Ok(MetricsFrozen {
                counters: r.key("counters")?.items(|r| {
                    obj(r, |r| {
                        Ok((
                            r.key("name")?.string()?.into_owned(),
                            r.key("value")?.hex_u64()?,
                        ))
                    })
                })?,
                gauges: r.key("gauges")?.items(|r| {
                    obj(r, |r| {
                        Ok((
                            r.key("name")?.string()?.into_owned(),
                            r.key("value")?.hex_f64()?,
                        ))
                    })
                })?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_restore_round_trips_known_series() {
        let reg = MetricsRegistry::new();
        reg.add("epochs", 41);
        reg.set_gauge("unfairness", 0.0625);
        reg.observe_ns("epoch_ns", 1_000); // histogram: dropped by design
        let frozen = MetricsFrozen::capture(&reg.snapshot());

        let fresh = MetricsRegistry::new();
        let skipped = frozen.restore(&fresh);
        assert!(skipped.is_empty(), "skipped: {skipped:?}");
        assert_eq!(fresh.counter("epochs"), 41);
        assert_eq!(fresh.gauge("unfairness"), Some(0.0625));
        assert!(fresh.snapshot().histograms.is_empty());
    }

    #[test]
    fn unknown_names_are_skipped_not_fabricated() {
        let frozen = MetricsFrozen {
            counters: vec![("from_the_future".to_string(), 7)],
            gauges: vec![],
        };
        let reg = MetricsRegistry::new();
        assert_eq!(frozen.restore(&reg), vec!["from_the_future".to_string()]);
        assert_eq!(reg.counter("from_the_future"), 0);
    }

    #[test]
    fn a_series_rendered_per_scrape_is_skipped() {
        let frozen = MetricsFrozen {
            counters: vec![],
            gauges: vec![("healthy".to_string(), 1.0)],
        };
        let reg = MetricsRegistry::new();
        assert_eq!(frozen.restore(&reg), vec!["healthy".to_string()]);
        assert!(reg.snapshot().gauges.is_empty());
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let frozen = MetricsFrozen {
            counters: vec![("epochs".to_string(), u64::MAX - 3)],
            gauges: vec![("unfairness".to_string(), 0.1 + 0.2)],
        };
        let mut text = String::new();
        frozen.emit(&mut JsonWriter::new(&mut text));
        let back = MetricsFrozen::read(&mut JsonReader::new(&text)).unwrap();
        assert_eq!(back, frozen);
    }
}
