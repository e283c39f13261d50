//! `BENCH_*.json` performance artifacts and the gate that holds them.
//!
//! Each bench binary collects its headline timings into an [`Artifact`]
//! — a flat, insertion-ordered map of string/number fields — and calls
//! [`Artifact::write`] at exit. That writes `BENCH_<name>.json` into
//! the directory the bench names (its `CARGO_TARGET_TMPDIR`) and gates
//! it against the checked-in `crates/bench/baselines/BENCH_<name>.json`,
//! so `cargo bench -p copart-bench` fails on a regression. The rule is
//! read off each key's name:
//!
//! - `*_ns` latencies (and `*_ns_per_*` costs) may be at most 3× their
//!   baseline;
//! - `*_per_sec` throughputs must stay at least baseline ÷ 3;
//! - the `schema` string must match byte for byte;
//! - any other number is informational.
//!
//! A baseline key the run lacks, a run key the baseline lacks and an
//! artifact with no baseline all fail. `UPDATE_BENCH=1` writes the run
//! over its baseline instead (bless). Exact facts — allocation counts,
//! digests, byte sizes — are tier-1 tests, not artifact fields.

use copart_telemetry::json::Json;
use copart_telemetry::JsonWriter;

/// The latency/throughput tolerance ratio: wide enough for a noisy
/// shared host, tight enough to catch an accidental O(n²).
const TOLERANCE: f64 = 3.0;

/// One flat `BENCH_*.json` artifact under construction.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Each member's key and the JSON text of its value.
    fields: Vec<(String, String)>,
}

impl Artifact {
    /// Starts an artifact; `schema` (e.g. `"copart-bench-epoch/v1"`),
    /// quoted by the one [`JsonWriter`], becomes its first field.
    pub fn new(schema: &str) -> Artifact {
        let mut quoted = String::new();
        JsonWriter::new(&mut quoted).str(schema);
        Artifact {
            fields: vec![("schema".to_string(), quoted)],
        }
    }

    /// Records a numeric field.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value — NaN/∞ have no JSON encoding and
    /// would poison the regression gate.
    pub fn num(&mut self, key: &str, v: f64) {
        assert!(v.is_finite(), "artifact field {key} is not finite: {v}");
        self.fields.push((key.to_string(), format!("{v}")));
    }

    /// Serializes the artifact as a pretty-printed JSON object, one
    /// member per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            out.push_str("  ");
            JsonWriter::new(&mut out).str(k);
            out.push_str(": ");
            out.push_str(v);
            let last = i + 1 == self.fields.len();
            out.push_str(if last { "\n" } else { ",\n" });
        }
        out.push_str("}\n");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir`, then gates it against its
    /// baseline — or, under `UPDATE_BENCH=1`, blesses it as the baseline.
    ///
    /// # Panics
    ///
    /// Panics when a file cannot be written and when the gate fails, so
    /// the bench run fails.
    pub fn write(&self, name: &str, dir: &str) {
        let json = self.to_json();
        std::fs::create_dir_all(dir).expect("the artifact directory must be creatable");
        let path = format!("{dir}/BENCH_{name}.json");
        std::fs::write(&path, &json).expect("the artifact must be writable");
        println!("bench artifact written to {path}");
        let baseline = format!("{}/baselines/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        if std::env::var("UPDATE_BENCH").as_deref() == Ok("1") {
            std::fs::write(&baseline, &json).expect("the baseline must be writable");
            println!("blessed {baseline}: commit the diff");
        } else if let Err(e) = self.gate(&baseline) {
            panic!("{e}");
        } else {
            println!("within {baseline}");
        }
    }

    /// Gates this artifact against the baseline file at `path`.
    fn gate(&self, path: &str) -> Result<(), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("no baseline {path} ({e}); bless one with UPDATE_BENCH=1"))?;
        let failures = regressions(&fields(&text)?, &fields(&self.to_json())?);
        if failures.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{} perf regression(s) against {path}:\n  {}\n\
             if intentional, re-bless with UPDATE_BENCH=1 cargo bench -p copart-bench",
            failures.len(),
            failures.join("\n  ")
        ))
    }
}

/// An artifact's members, in order.
fn fields(text: &str) -> Result<Vec<(String, Json)>, String> {
    match Json::parse(text).map_err(|e| e.to_string())? {
        Json::Obj(fields) => Ok(fields),
        _ => Err("an artifact must be a JSON object".into()),
    }
}

/// Every way `current` fails `baseline`, one line each.
fn regressions(baseline: &[(String, Json)], current: &[(String, Json)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (key, base) in baseline {
        let Some((_, cur)) = current.iter().find(|(k, _)| k == key) else {
            failures.push(format!("{key}: missing from this run"));
            continue;
        };
        let pass = match (base, cur) {
            (Json::Str(b), Json::Str(c)) => b == c,
            (Json::Num(b), Json::Num(c)) if key.ends_with("_per_sec") => *c >= b / TOLERANCE,
            (Json::Num(b), Json::Num(c)) if key.ends_with("_ns") || key.contains("_ns_") => {
                *c <= b * TOLERANCE
            }
            (Json::Num(_), Json::Num(_)) => true,
            _ => false,
        };
        if !pass {
            failures.push(format!(
                "{key}: {cur} against baseline {base} (tolerance {TOLERANCE}x)"
            ));
        }
    }
    for (key, _) in current {
        if !baseline.iter().any(|(k, _)| k == key) {
            failures.push(format!("{key}: not in the baseline"));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The regressions of `current` against `baseline`.
    fn check(baseline: &Artifact, current: &Artifact) -> Vec<String> {
        let (b, c) = (baseline.to_json(), current.to_json());
        regressions(&fields(&b).unwrap(), &fields(&c).unwrap())
    }

    fn one(key: &str, v: f64) -> Artifact {
        let mut a = Artifact::new("s/v1");
        a.num(key, v);
        a
    }

    #[test]
    fn artifact_round_trips_through_the_telemetry_parser() {
        let mut a = Artifact::new("copart-bench-test/v1");
        a.num("epoch_ns_p50", 1234.5);
        let parsed = Json::parse(&a.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("copart-bench-test/v1")
        );
        assert_eq!(
            parsed.get("epoch_ns_p50").and_then(|v| v.as_f64()),
            Some(1234.5)
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_fields_are_rejected() {
        let mut a = Artifact::new("s");
        a.num("bad", f64::NAN);
    }

    #[test]
    fn the_schema_is_escaped() {
        let a = Artifact::new("s\"x\\y\nz");
        let parsed = Json::parse(&a.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("s\"x\\y\nz")
        );
    }

    #[test]
    fn latency_within_tolerance_passes_and_beyond_fails() {
        let base = one("x_ns", 100.0);
        assert!(check(&base, &one("x_ns", 300.0)).is_empty());
        assert_eq!(check(&base, &one("x_ns", 301.0)).len(), 1);
        // A latency improvement never fails, however large.
        assert!(check(&base, &one("x_ns", 1.0)).is_empty());
        // Per-unit costs are latencies too.
        let base = one("x_ns_per_kb", 100.0);
        assert_eq!(check(&base, &one("x_ns_per_kb", 400.0)).len(), 1);
    }

    #[test]
    fn throughput_drops_fail() {
        let base = one("chain_indexed_1024_per_sec", 9000.0);
        assert!(check(&base, &one("chain_indexed_1024_per_sec", 3000.0)).is_empty());
        assert_eq!(
            check(&base, &one("chain_indexed_1024_per_sec", 2999.0)).len(),
            1
        );
    }

    #[test]
    fn schema_mismatch_fails() {
        let failures = check(&Artifact::new("s/v1"), &Artifact::new("s/v2"));
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("schema:"), "{failures:?}");
    }

    #[test]
    fn missing_and_unbaselined_keys_fail() {
        let base = one("x_ns", 10.0);
        let missing = Artifact::new("s/v1");
        assert_eq!(check(&base, &missing), ["x_ns: missing from this run"]);
        assert_eq!(check(&missing, &base), ["x_ns: not in the baseline"]);
    }

    #[test]
    fn other_numbers_are_informational() {
        let base = one("tick_split_h_both_accesses", 100.0);
        assert!(check(&base, &one("tick_split_h_both_accesses", 9999.0)).is_empty());
    }

    #[test]
    fn an_artifact_without_a_baseline_fails() {
        let dir = std::env::temp_dir().join(format!("copart-artifact-{}", std::process::id()));
        let path = dir.join("BENCH_none.json");
        let err = one("x_ns", 1.0)
            .gate(path.to_str().expect("utf-8 path"))
            .unwrap_err();
        assert!(err.starts_with("no baseline"), "{err}");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, one("x_ns", 1.0).to_json()).unwrap();
        assert_eq!(one("x_ns", 2.0).gate(path.to_str().unwrap()), Ok(()));
        let err = one("x_ns", 4.0).gate(path.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("1 perf regression(s)"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
