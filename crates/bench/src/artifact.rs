//! `BENCH_*.json` performance artifacts.
//!
//! Each bench binary collects its headline numbers into an [`Artifact`]
//! — a flat, insertion-ordered map of string/number fields — and calls
//! [`Artifact::write`] at exit. When the `BENCH_JSON_DIR` environment
//! variable is set (as `scripts/bench_gate.sh` and the CI `bench` job
//! do), the artifact lands there as `BENCH_<name>.json`; otherwise the
//! call is a no-op and the bench stays a plain human-readable printout.
//!
//! The schema is deliberately flat so the `copart bench-report` diff
//! tool can gate on key *suffixes* alone: `*_ns` fields are latencies
//! (compared with a tolerance ratio), `*allocs*` fields are exact
//! counts, `*_per_sec` fields are throughputs (higher is better), and
//! string fields (digests, schema) must match byte-for-byte.

use copart_telemetry::JsonWriter;

/// One flat `BENCH_*.json` artifact under construction.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Each member's key and the JSON text of its value.
    fields: Vec<(String, String)>,
}

impl Artifact {
    /// Starts an artifact; `schema` becomes its first field (e.g.
    /// `"copart-bench-epoch/v1"`).
    pub fn new(schema: &str) -> Artifact {
        let mut artifact = Artifact { fields: Vec::new() };
        artifact.text("schema", schema);
        artifact
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

    /// Records a string field (digests and other exact-match values),
    /// quoted by the one [`JsonWriter`].
    pub fn text(&mut self, key: &str, v: &str) {
        let mut quoted = String::new();
        JsonWriter::new(&mut quoted).str(v);
        self.fields.push((key.to_string(), quoted));
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

    /// Writes `BENCH_<name>.json` into `$BENCH_JSON_DIR`, creating the
    /// directory if needed; does nothing when the variable is unset
    /// (plain bench runs stay artifact-free).
    ///
    /// # Panics
    ///
    /// Panics when the directory or file cannot be written — a bench
    /// asked for an artifact must not silently produce none.
    pub fn write(&self, name: &str) {
        let Ok(dir) = std::env::var("BENCH_JSON_DIR") else {
            return;
        };
        std::fs::create_dir_all(&dir).expect("BENCH_JSON_DIR must be creatable");
        let path = format!("{dir}/BENCH_{name}.json");
        std::fs::write(&path, self.to_json()).expect("artifact must be writable");
        println!("bench artifact written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_round_trips_through_the_telemetry_parser() {
        let mut a = Artifact::new("copart-bench-test/v1");
        a.num("epoch_ns_p50", 1234.5);
        a.num("allocs_per_epoch", 2.0);
        a.text("digest", "0x00ff");
        let parsed = copart_telemetry::json::Json::parse(&a.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("copart-bench-test/v1")
        );
        assert_eq!(
            parsed.get("epoch_ns_p50").and_then(|v| v.as_f64()),
            Some(1234.5)
        );
        assert_eq!(
            parsed.get("allocs_per_epoch").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            parsed.get("digest").and_then(|v| v.as_str()),
            Some("0x00ff")
        );
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_fields_are_rejected() {
        let mut a = Artifact::new("s");
        a.num("bad", f64::NAN);
    }

    #[test]
    fn strings_are_escaped() {
        let mut a = Artifact::new("s\"x\\y");
        a.text("k", "line\nbreak");
        let parsed = copart_telemetry::json::Json::parse(&a.to_json()).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("s\"x\\y")
        );
        assert_eq!(
            parsed.get("k").and_then(|v| v.as_str()),
            Some("line\nbreak")
        );
    }
}
