//! What one workload run produced, and how it is printed.

use crate::json::Json;
use crate::spec::{self, USER_METRICS};

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Raw samples behind it (trials, requests, or epochs).
    pub samples: usize,
}

/// The result of one workload run (end-to-end or traced).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The workload's name.
    pub workload: String,
    /// Metrics by name, in the order they were measured.
    pub metrics: Vec<(String, Metric)>,
    /// Operations attempted: child invocations, HTTP requests, checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Digests and other facts printed as information, never compared
    /// to a checked-in value.
    pub notes: Vec<String>,
    /// A `--quick` run: loops are too short for some metrics (a p99, a
    /// rate, the `/proc` poll of a 3 ms child), and one that could not
    /// be measured is skipped instead of failed.
    pub lenient: bool,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.metrics.push((
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                samples,
            },
        ));
    }

    /// Records a metric that may not have been measurable (too few
    /// samples, a child that failed): `None` is a failed check, unless
    /// the run is [`Report::lenient`].
    pub fn put_measured(&mut self, name: &str, value: Option<f64>, unit: &str, samples: usize) {
        match value {
            Some(v) if v.is_finite() => self.put(name, v, unit, samples),
            _ if self.lenient => {}
            _ => self.check(false, || {
                format!("{name} could not be measured ({samples} samples)")
            }),
        }
    }

    /// Records an end-to-end metric from the spec table (which supplies
    /// the unit).
    pub fn put_user(&mut self, name: &str, value: Option<f64>, samples: usize) {
        let unit = USER_METRICS
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit);
        self.put_measured(name, value, unit, samples);
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.value)
    }

    /// Counts one attempted operation; a false `ok` is a failure,
    /// described by `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let why = why();
            eprintln!("FAIL [{}] {why}", self.workload);
            self.failures.push(why);
        }
    }

    /// Counts `n` operations of which `failed` failed (bulk requests).
    pub fn count(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            let why = format!("{failed} of {n} {what} failed");
            eprintln!("FAIL [{}] {why}", self.workload);
            self.failures.push(why);
        }
    }

    /// Requires all `items` (outputs of repeated trials of one shape) to
    /// be byte-identical, one check per item after the first.
    pub fn check_identical(&mut self, what: &str, items: &[String]) {
        for (i, item) in items.iter().enumerate().skip(1) {
            self.check(item == &items[0], || {
                format!("{what}: trial {i} differs from trial 0")
            });
        }
    }

    /// Adds a line of information.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `failed / attempted`.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints every metric by name with unit and sample count.
    pub fn print(&self, title: &str) {
        println!("== {} [{title}] ==", self.workload);
        for (name, m) in &self.metrics {
            println!(
                "  {name:<34} {:>16} {:<9} (n={})",
                format_value(m.value),
                m.unit,
                m.samples
            );
        }
        for note in &self.notes {
            println!("  · {note}");
        }
        println!(
            "  attempted {}, failed {} (fail_ratio {})",
            self.attempted,
            self.failed,
            format_value(self.fail_ratio())
        );
    }

    /// The object form kept in `results.json`.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::obj();
        for (name, m) in &self.metrics {
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(m.value))
                    .with("unit", Json::str(&m.unit))
                    .with("samples", Json::Num(m.samples as f64)),
            );
        }
        Json::obj()
            .with("workload", Json::str(&self.workload))
            .with("attempted", Json::Num(self.attempted as f64))
            .with("failed", Json::Num(self.failed as f64))
            .with("metrics", metrics)
            .with(
                "failures",
                Json::Arr(self.failures.iter().map(|s| Json::str(s)).collect()),
            )
            .with(
                "notes",
                Json::Arr(self.notes.iter().map(|s| Json::str(s)).collect()),
            )
    }

    /// Reads back the object form (the traced run hands its report to
    /// the runner this way, and `--against` loads a previous run's).
    pub fn from_json(j: &Json) -> Option<Report> {
        let strings = |key: &str| -> Vec<String> {
            j.get(key)
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|s| s.as_str().map(str::to_string))
                .collect()
        };
        let metrics = j
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| {
                Some((
                    name.clone(),
                    Metric {
                        value: m.get("value")?.as_f64().unwrap_or(f64::NAN),
                        unit: m.get("unit")?.as_str()?.to_string(),
                        samples: m.get("samples")?.as_f64()? as usize,
                    },
                ))
            })
            .collect::<Option<_>>()?;
        Some(Report {
            workload: j.get("workload")?.as_str()?.to_string(),
            metrics,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            failures: strings("failures"),
            notes: strings("notes"),
            lenient: false,
        })
    }

    /// The driver's result line: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being exactly `names` in order.
    /// A listed metric this run did not produce makes the run incorrect;
    /// `fill` supplies the value printed in its place.
    pub fn driver_line(&self, names: &[(&str, &str)], fill: Option<f64>) -> String {
        let mut metrics = Json::obj();
        let mut missing = 0u64;
        for (name, unit) in names {
            let value = match (self.get(name), fill) {
                (Some(v), _) => v,
                (None, Some(f)) => f,
                (None, None) => {
                    missing += 1;
                    f64::NAN
                }
            };
            metrics.set(
                name,
                Json::obj()
                    .with("value", Json::Num(value))
                    .with("unit", Json::str(unit)),
            );
        }
        Json::obj()
            .with("correct", Json::Bool(self.failed == 0 && missing == 0))
            .with("attempted", Json::Num(self.attempted.max(1) as f64))
            .with("failed", Json::Num((self.failed + missing) as f64))
            .with("metrics", metrics)
            .render()
    }
}

/// The gated end-to-end names and units, in manifest order.
pub fn gated_names() -> Vec<(&'static str, &'static str)> {
    spec::gated().map(|m| (m.name, m.unit)).collect()
}

/// The per-layer names and units, in manifest order.
pub fn layer_names() -> Vec<(&'static str, &'static str)> {
    spec::LAYER_METRICS
        .iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// A value for the human-readable table: six significant digits.
pub fn format_value(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let mag = v.abs().log10().floor() as i32;
    if !(-4..9).contains(&mag) {
        return format!("{v:.5e}");
    }
    let decimals = (5 - mag).clamp(0, 9) as usize;
    format!("{v:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_listed_metrics() {
        let mut r = Report::new("node_steady");
        r.put("wall_s", 6.81320411, "s", 1);
        r.put("setup_s", 1.2571, "s", 3);
        r.put("unfairness", 0.0757, "ratio", 1);
        r.check(true, String::new);
        let line = r.driver_line(&[("setup_s", "s"), ("wall_s", "s")], None);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":1.2571,\"unit\":\"s\"},\
             \"wall_s\":{\"value\":6.81320411,\"unit\":\"s\"}}}"
        );
        // A listed metric that was not measured is a failure, not a gap.
        let line = r.driver_line(&[("setup_s", "s"), ("cpu_s", "s")], None);
        assert!(line.starts_with("{\"correct\":false,\"attempted\":1,\"failed\":1,"));
        // ...unless the caller says what an unexercised layer reads.
        let line = r.driver_line(&[("sim.advance_ns", "ns")], Some(0.0));
        assert!(line.contains("\"sim.advance_ns\":{\"value\":0,\"unit\":\"ns\"}"));
        assert!(line.starts_with("{\"correct\":true"));
    }

    #[test]
    fn failed_checks_are_counted_and_make_the_run_incorrect() {
        let mut r = Report::new("w");
        r.check(true, String::new);
        r.check(false, || "trace-check exited 1".to_string());
        r.count(1000, 2, "requests");
        r.check_identical("result lines", &["a".into(), "a".into(), "b".into()]);
        assert_eq!((r.attempted, r.failed), (1004, 4));
        assert_eq!(r.fail_ratio(), 4.0 / 1004.0);
        assert!(r.driver_line(&[], None).starts_with("{\"correct\":false"));
        r.put_user("resume_s", None, 0);
        assert_eq!(r.failed, 5);
        // A --quick run skips what it could not measure.
        r.lenient = true;
        r.put_user("resume_s", None, 0);
        assert_eq!(r.failed, 5);
    }

    #[test]
    fn the_object_form_round_trips() {
        let mut r = Report::new("serve_churn");
        r.put("admit_ms_p50", 224.71, "ms", 30);
        r.check(false, || "POST /apps answered 409".to_string());
        r.note("drained: 312 epochs".to_string());
        let back = Report::from_json(&Json::parse(&r.to_json().render()).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.attempted, back.failed), (1, 1));
        assert_eq!((back.failures, back.notes), (r.failures, r.notes));
        assert!(Report::from_json(&Json::obj()).is_none());
    }

    #[test]
    fn values_print_with_six_significant_digits() {
        assert_eq!(format_value(6.813204117), "6.81320");
        assert_eq!(format_value(18734.56), "18734.6");
        assert_eq!(format_value(0.00123456789), "0.00123457");
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(2_812_345.0), "2812345");
    }
}
