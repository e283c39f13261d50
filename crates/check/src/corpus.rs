//! The persisted regression corpus: minimized failing tapes, replayed on
//! every run.
//!
//! When a property fails, the runner minimizes the tape and prints a
//! ready-to-save corpus entry; once the underlying bug is fixed the entry
//! is *blessed* into `tests/corpus/` (by hand or with
//! `copart-check --bless`) and replays forever after as a regression
//! test. An entry records:
//!
//! * the property it belongs to,
//! * the tape (hex `u64` draws) that reproduces the input, and
//! * an FNV-1a digest (`copart_telemetry::fnv1a64`) of the *witness* —
//!   the generator's deterministic description of the decoded input.
//!
//! The digest is the drift guard: if a generator is later changed, a
//! saved tape may silently decode to a different input and the fixture
//! would test nothing. Replay therefore recomputes the witness and fails
//! loudly on a digest mismatch, telling the developer to re-bless.
//!
//! Format (`*.case` files, `#` comments and blank lines ignored):
//!
//! ```text
//! property: schemata-validation
//! note: MB levels above 100 were accepted
//! witness-fnv: 9e6a3f21c4b0d87e
//! tape: 2 0 65 0
//! ```

use std::fs;
use std::path::{Path, PathBuf};

/// One blessed regression case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// File stem the case was loaded from (diagnostics only).
    pub name: String,
    /// The property this tape belongs to.
    pub property: String,
    /// Free-form description of the original failure.
    pub note: String,
    /// FNV-1a digest of the witness the tape decoded to when blessed.
    pub witness_fnv: u64,
    /// The minimized draw sequence.
    pub tape: Vec<u64>,
}

impl CorpusCase {
    /// Parses one `*.case` document.
    pub fn parse(name: &str, text: &str) -> Result<CorpusCase, String> {
        let mut property = None;
        let mut note = String::new();
        let mut witness_fnv = None;
        let mut tape = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(':')
                .ok_or_else(|| format!("{name}: malformed line {line:?}"))?;
            let value = value.trim();
            match key.trim() {
                "property" => property = Some(value.to_string()),
                "note" => note = value.to_string(),
                "witness-fnv" => {
                    let v = u64::from_str_radix(value, 16)
                        .map_err(|e| format!("{name}: bad witness-fnv {value:?}: {e}"))?;
                    witness_fnv = Some(v);
                }
                "tape" => {
                    let draws: Result<Vec<u64>, String> = value
                        .split_whitespace()
                        .map(|w| {
                            u64::from_str_radix(w, 16)
                                .map_err(|e| format!("{name}: bad tape draw {w:?}: {e}"))
                        })
                        .collect();
                    tape = Some(draws?);
                }
                other => return Err(format!("{name}: unknown key {other:?}")),
            }
        }
        Ok(CorpusCase {
            name: name.to_string(),
            property: property.ok_or_else(|| format!("{name}: missing property"))?,
            note,
            witness_fnv: witness_fnv.ok_or_else(|| format!("{name}: missing witness-fnv"))?,
            tape: tape.ok_or_else(|| format!("{name}: missing tape"))?,
        })
    }

    /// Renders the case back into the on-disk format.
    pub fn render(&self) -> String {
        let tape: Vec<String> = self.tape.iter().map(|v| format!("{v:x}")).collect();
        format!(
            "property: {}\nnote: {}\nwitness-fnv: {:016x}\ntape: {}\n",
            self.property,
            self.note,
            self.witness_fnv,
            tape.join(" ")
        )
    }
}

/// Loads every `*.case` file under `dir`, sorted by file name so replay
/// order (and hence the report) is stable. A missing directory is an
/// empty corpus; an unreadable or malformed file is an error — a corpus
/// that silently fails to load would mask regressions.
pub fn load_dir(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("<non-utf8>")
            .to_string();
        let text =
            fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        cases.push(CorpusCase::parse(&name, &text)?);
    }
    Ok(cases)
}

/// The corpus directory: `$COPART_CORPUS_DIR` when set, else the
/// workspace's `tests/corpus/`.
pub fn default_dir() -> PathBuf {
    match std::env::var_os("COPART_CORPUS_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_round_trips_through_render_and_parse() {
        let case = CorpusCase {
            name: "x".to_string(),
            property: "schemata-validation".to_string(),
            note: "MB levels above 100 were accepted".to_string(),
            witness_fnv: 0x9e6a_3f21_c4b0_d87e,
            tape: vec![2, 0, 0x65, 0],
        };
        let parsed = CorpusCase::parse("x", &case.render()).unwrap();
        assert_eq!(parsed, case);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# header\n\nproperty: p\nwitness-fnv: ff\ntape:\n";
        let case = CorpusCase::parse("c", text).unwrap();
        assert_eq!(case.property, "p");
        assert_eq!(case.witness_fnv, 0xff);
        assert!(case.tape.is_empty());
        assert!(case.note.is_empty());
    }

    #[test]
    fn missing_fields_and_bad_draws_are_rejected() {
        assert!(CorpusCase::parse("c", "property: p\ntape: 1\n")
            .unwrap_err()
            .contains("witness-fnv"));
        assert!(
            CorpusCase::parse("c", "property: p\nwitness-fnv: 0\ntape: xyz\n")
                .unwrap_err()
                .contains("bad tape draw")
        );
        assert!(CorpusCase::parse("c", "gibberish\n")
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn missing_directory_is_an_empty_corpus() {
        let cases = load_dir(Path::new("/nonexistent/corpus/dir")).unwrap();
        assert!(cases.is_empty());
    }
}
