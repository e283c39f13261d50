//! What a traced run carries from section to section: the span log, the
//! report being filled, and the spans taken so far.

use crate::trace::SpanLog;
use bench_harness::report::Report;
use bench_harness::spans::Span;
use bench_harness::spec::LAYER_METRICS;
use std::path::PathBuf;
use std::sync::Arc;

/// The traced run's context.
pub struct Cx {
    /// Forwarded to every seeded surface, as in the end-to-end run.
    pub seed: u64,
    /// Short loops (`run.sh --quick`).
    pub quick: bool,
    /// A directory this run may write state into.
    pub scratch: PathBuf,
    /// The span log the decorators record into.
    pub log: Arc<SpanLog>,
    /// The per-layer metrics measured so far.
    pub report: Report,
    /// Every span taken so far, dumped when the run ends.
    pub spans: Vec<Span>,
}

impl Cx {
    /// Records a per-layer metric; the unit comes from the spec table,
    /// and a name the table does not list is a bug caught on first run.
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let spec = LAYER_METRICS
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer table"));
        self.report
            .check(value.is_finite(), || format!("{name} is not a number"));
        if value.is_finite() {
            self.report.put(name, value, spec.unit, samples);
        }
    }

    /// Records a metric that needs samples to exist; too few is a failed
    /// check (skipped on a `--quick` run, whose report is lenient).
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, samples: usize) {
        match value {
            Some(v) => self.put(name, v, samples),
            None => self.report.put_measured(name, None, "", samples),
        }
    }

    /// Keeps a batch of taken spans for the dump, re-basing their parent
    /// indices onto the combined list.
    pub fn absorb(&mut self, mut taken: Vec<Span>) {
        let base = self.spans.len() as u32;
        for s in &mut taken {
            s.parent = s.parent.map(|p| p + base);
        }
        self.spans.append(&mut taken);
    }
}

/// The spans called `name`, with their indices.
pub fn named<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> {
    spans
        .iter()
        .enumerate()
        .filter(move |(_, s)| s.name == name)
}

/// Durations, in nanoseconds, of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name)
        .map(|(_, s)| s.duration_ns() as f64)
        .collect()
}

/// Durations of the spans called `name` whose parent is an `epoch` span:
/// the calls one control period made (profiling makes its own, outside
/// any epoch).
pub fn durations_in_epochs(spans: &[Span], name: &str) -> Vec<f64> {
    named(spans, name)
        .filter(|(_, s)| s.parent.is_some_and(|p| spans[p as usize].name == "epoch"))
        .map(|(_, s)| s.duration_ns() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: 0,
            end_ns: 10,
            parent,
            epoch: 0,
        }
    }

    #[test]
    fn absorbed_batches_keep_their_parents() {
        let mut cx = Cx {
            seed: 0,
            quick: true,
            scratch: PathBuf::new(),
            log: SpanLog::new(),
            report: Report::new("t"),
            spans: Vec::new(),
        };
        cx.absorb(vec![span("epoch", None), span("sim.advance", Some(0))]);
        cx.absorb(vec![span("epoch", None), span("sim.advance", Some(0))]);
        let parents: Vec<_> = cx.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert_eq!(durations(&cx.spans, "sim.advance"), [10.0, 10.0]);
        cx.absorb(vec![
            span("core.profile", None),
            span("sim.advance", Some(0)),
        ]);
        assert_eq!(durations(&cx.spans, "sim.advance").len(), 3);
        assert_eq!(durations_in_epochs(&cx.spans, "sim.advance").len(), 2);
    }

    #[test]
    fn metrics_take_their_unit_from_the_table() {
        let mut cx = Cx {
            seed: 0,
            quick: true,
            scratch: PathBuf::new(),
            log: SpanLog::new(),
            report: Report::new("t"),
            spans: Vec::new(),
        };
        cx.put("sim.advance_share", 0.97, 200);
        cx.report.lenient = true;
        cx.put_opt("core.epoch_ns_p99", None, 200); // quick: allowed
        cx.report.lenient = false;
        cx.put_opt("core.epoch_ns_p99", None, 200);
        cx.put("rdt.write_ns", f64::NAN, 0);
        assert_eq!(cx.report.metrics[0].1.unit, "ratio");
        assert_eq!(cx.report.metrics.len(), 1);
        assert_eq!((cx.report.attempted, cx.report.failed), (3, 2));
    }
}
