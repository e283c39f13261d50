//! The suite runner: corpus replay plus seeded fresh cases, in parallel,
//! with a byte-reproducible report.
//!
//! Determinism contract (the same one `copart-parallel` gives the sweep
//! engine): the report is a pure function of `(properties, config,
//! corpus)`. Each fresh case runs on its own derived seed —
//! `derive_seed(master ⊕ fnv(property), case_index)` — so neither worker
//! count nor scheduling order can leak into any case, and the report
//! contains no timing. `--jobs 1` and `--jobs 8` produce identical
//! bytes; a top-level integration test pins that.

use crate::corpus::CorpusCase;
use crate::property::Property;
use crate::shrink::shrink;
use crate::source::Source;
use copart_rng::derive_seed;
use copart_telemetry::fnv1a64;
use std::path::PathBuf;

/// Default number of fresh cases per property (the `quick` budget).
pub const DEFAULT_CASES: u32 = 64;
/// Default master seed (`COPART_CHECK_SEED` overrides).
pub const DEFAULT_SEED: u64 = 0xC0_9A87;
/// Default cap on shrink candidate evaluations per failure.
pub const DEFAULT_SHRINK_BUDGET: usize = 4096;

/// Suite configuration.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Fresh cases per property (0 = corpus replay only).
    pub cases: u32,
    /// Master seed; every case seed is derived from it.
    pub seed: u64,
    /// Worker threads (must not affect the report bytes).
    pub jobs: usize,
    /// Corpus directory; `None` skips replay entirely.
    pub corpus_dir: Option<PathBuf>,
    /// Max shrink candidate evaluations per failure.
    pub shrink_budget: usize,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            cases: DEFAULT_CASES,
            seed: DEFAULT_SEED,
            jobs: copart_parallel::effective_jobs(),
            corpus_dir: Some(crate::corpus::default_dir()),
            shrink_budget: DEFAULT_SHRINK_BUDGET,
        }
    }
}

impl CheckConfig {
    /// The default configuration with the environment knobs applied:
    /// `COPART_CHECK_CASES` (fuzz budget), `COPART_CHECK_SEED` (master
    /// seed, decimal or `0x…` hex), `COPART_JOBS` (via
    /// `copart_parallel::effective_jobs`), `COPART_CORPUS_DIR`.
    pub fn from_env() -> CheckConfig {
        let mut cfg = CheckConfig::default();
        if let Ok(v) = std::env::var("COPART_CHECK_CASES") {
            if let Ok(n) = v.trim().parse::<u32>() {
                cfg.cases = n;
            }
        }
        if let Ok(v) = std::env::var("COPART_CHECK_SEED") {
            let v = v.trim();
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse::<u64>(),
            };
            if let Ok(seed) = parsed {
                cfg.seed = seed;
            }
        }
        cfg
    }
}

/// Where a failure came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureOrigin {
    /// A freshly generated case (index within the property's run).
    Fresh {
        /// Case index; the failing seed is `derive_seed` of it.
        case: u32,
    },
    /// A corpus entry that no longer passes or no longer reproduces.
    Corpus {
        /// Corpus file stem.
        entry: String,
    },
}

/// One failing case, minimized where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The property that failed.
    pub property: &'static str,
    /// Fresh case or corpus entry.
    pub origin: FailureOrigin,
    /// The oracle's disagreement (or panic message).
    pub error: String,
    /// The decoded input of the (minimized) failing tape.
    pub witness: String,
    /// The minimized tape, replayable with [`Source::replay`].
    pub tape: Vec<u64>,
}

impl Failure {
    /// A ready-to-bless corpus entry for this failure.
    pub fn corpus_case(&self) -> CorpusCase {
        CorpusCase {
            name: format!(
                "{}-{:04x}",
                self.property,
                fnv1a64(&tape_bytes(&self.tape)) & 0xffff
            ),
            property: self.property.to_string(),
            note: self.error.clone(),
            witness_fnv: fnv1a64(self.witness.as_bytes()),
            tape: self.tape.clone(),
        }
    }
}

fn tape_bytes(tape: &[u64]) -> Vec<u8> {
    tape.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Per-property outcome.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// The property name.
    pub name: &'static str,
    /// Fresh cases executed.
    pub cases: u32,
    /// Corpus entries replayed.
    pub corpus_entries: usize,
    /// Failures, corpus first, then fresh cases in index order.
    pub failures: Vec<Failure>,
}

/// The whole suite's outcome.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Master seed the fresh cases were derived from.
    pub seed: u64,
    /// Fresh-case budget per property.
    pub cases_per_property: u32,
    /// Per-property results, in registration order.
    pub properties: Vec<PropertyReport>,
    /// Corpus entries naming no registered property — always failures:
    /// a silently orphaned fixture would stop testing anything.
    pub orphaned_corpus: Vec<String>,
}

impl SuiteReport {
    /// `true` when every property passed and no corpus entry is orphaned.
    pub fn ok(&self) -> bool {
        self.orphaned_corpus.is_empty() && self.properties.iter().all(|p| p.failures.is_empty())
    }

    /// Renders the deterministic text report. Contains no timing, no
    /// paths and no worker counts, so the bytes depend only on
    /// `(properties, seed, cases, corpus)`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("copart-check report\n");
        out.push_str(&format!("seed: 0x{:x}\n", self.seed));
        out.push_str(&format!(
            "cases-per-property: {}\n",
            self.cases_per_property
        ));
        for p in &self.properties {
            let status = if p.failures.is_empty() {
                "ok"
            } else {
                "FAILED"
            };
            out.push_str(&format!(
                "property {}: {status} ({} corpus, {} fresh)\n",
                p.name, p.corpus_entries, p.cases
            ));
            for f in &p.failures {
                match &f.origin {
                    FailureOrigin::Fresh { case } => {
                        out.push_str(&format!("  fresh case {case} FAILED\n"));
                    }
                    FailureOrigin::Corpus { entry } => {
                        out.push_str(&format!("  corpus entry {entry} FAILED\n"));
                    }
                }
                out.push_str(&format!("    error: {}\n", f.error));
                out.push_str(&format!("    witness: {}\n", f.witness));
                let tape: Vec<String> = f.tape.iter().map(|v| format!("{v:x}")).collect();
                out.push_str(&format!("    tape: {}\n", tape.join(" ")));
                out.push_str("    bless as corpus entry:\n");
                for line in f.corpus_case().render().lines() {
                    out.push_str(&format!("      {line}\n"));
                }
            }
        }
        for name in &self.orphaned_corpus {
            out.push_str(&format!(
                "corpus entry {name} FAILED: names no registered property\n"
            ));
        }
        out.push_str(&format!(
            "verdict: {}\n",
            if self.ok() { "ok" } else { "FAILED" }
        ));
        out
    }
}

/// Runs `properties` under `config`: replays the corpus, then the fresh
/// seeded cases, minimizing any failure. See the module docs for the
/// determinism contract.
pub fn run_suite(properties: &[Property], config: &CheckConfig) -> SuiteReport {
    let corpus: Vec<CorpusCase> = match &config.corpus_dir {
        Some(dir) => match crate::corpus::load_dir(dir) {
            Ok(cases) => cases,
            Err(e) => panic!("corpus load failed: {e}"),
        },
        None => Vec::new(),
    };
    let orphaned_corpus: Vec<String> = corpus
        .iter()
        .filter(|c| properties.iter().all(|p| p.name() != c.property))
        .map(|c| c.name.clone())
        .collect();

    // One task per (property, fresh case) plus one per corpus entry, so
    // slow properties don't serialize behind each other.
    enum Task<'a> {
        Corpus(usize, &'a CorpusCase),
        Fresh(usize, u32),
    }
    let mut tasks: Vec<Task> = Vec::new();
    for (pi, p) in properties.iter().enumerate() {
        for c in corpus.iter().filter(|c| c.property == p.name()) {
            tasks.push(Task::Corpus(pi, c));
        }
        for case in 0..config.cases {
            tasks.push(Task::Fresh(pi, case));
        }
    }

    let results: Vec<(usize, Option<Failure>, bool)> =
        copart_parallel::par_map_indexed_jobs(&tasks, config.jobs, 1, |_, task| match task {
            Task::Corpus(pi, entry) => {
                let p = &properties[*pi];
                (*pi, replay_corpus_entry(p, entry), true)
            }
            Task::Fresh(pi, case) => {
                let p = &properties[*pi];
                (*pi, run_fresh_case(p, config, *case), false)
            }
        });

    let mut reports: Vec<PropertyReport> = properties
        .iter()
        .map(|p| PropertyReport {
            name: p.name(),
            cases: config.cases,
            corpus_entries: 0,
            failures: Vec::new(),
        })
        .collect();
    // Input order already groups by property, corpus entries first.
    for (pi, failure, is_corpus) in results {
        if is_corpus {
            reports[pi].corpus_entries += 1;
        }
        if let Some(f) = failure {
            reports[pi].failures.push(f);
        }
    }

    SuiteReport {
        seed: config.seed,
        cases_per_property: config.cases,
        properties: reports,
        orphaned_corpus,
    }
}

/// Replays one blessed corpus entry: the tape must still decode to the
/// blessed input (witness digest match) *and* the property must pass.
fn replay_corpus_entry(p: &Property, entry: &CorpusCase) -> Option<Failure> {
    let mut src = Source::replay(&entry.tape);
    let outcome = p.run(&mut src);
    let got_fnv = fnv1a64(outcome.witness.as_bytes());
    let error = if got_fnv != entry.witness_fnv {
        Some(format!(
            "witness drifted: recorded fnv {:016x}, replay decodes to fnv {:016x} \
             ({}) — a generator change broke this fixture; re-bless it",
            entry.witness_fnv, got_fnv, outcome.witness
        ))
    } else {
        outcome.verdict.clone().err()
    };
    error.map(|error| Failure {
        property: p.name(),
        origin: FailureOrigin::Corpus {
            entry: entry.name.clone(),
        },
        error,
        witness: outcome.witness,
        tape: entry.tape.clone(),
    })
}

/// Runs one fresh case on its derived seed, shrinking on failure.
fn run_fresh_case(p: &Property, config: &CheckConfig, case: u32) -> Option<Failure> {
    let case_seed = derive_seed(config.seed ^ fnv1a64(p.name().as_bytes()), u64::from(case));
    let mut src = Source::from_seed(case_seed);
    let outcome = p.run(&mut src);
    if outcome.verdict.is_ok() {
        return None;
    }
    let tape = src.tape().to_vec();
    let minimized = shrink(&tape, config.shrink_budget, |candidate| {
        let mut replay = Source::replay(candidate);
        p.run(&mut replay).verdict.is_err()
    });
    let mut replay = Source::replay(&minimized);
    let final_outcome = p.run(&mut replay);
    // The final replay consumes only the draws the generator asked for;
    // persist that trimmed tape, not the padded candidate.
    let final_tape = replay.tape().to_vec();
    Some(Failure {
        property: p.name(),
        origin: FailureOrigin::Fresh { case },
        error: final_outcome
            .verdict
            .err()
            .unwrap_or_else(|| "shrunk tape stopped failing (flaky property?)".to_string()),
        witness: final_outcome.witness,
        tape: final_tape,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::CaseOutcome;

    fn size_property(limit: usize) -> Property {
        Property::new("size-bounded", move |src| {
            let n = src.size(0, 1000);
            CaseOutcome {
                witness: format!("n={n}"),
                verdict: if n <= limit {
                    Ok(())
                } else {
                    Err(format!("n={n} exceeds {limit}"))
                },
            }
        })
    }

    fn cfg(cases: u32) -> CheckConfig {
        CheckConfig {
            cases,
            seed: 0xFEED,
            jobs: 2,
            corpus_dir: None,
            shrink_budget: 2048,
        }
    }

    #[test]
    fn passing_suite_is_ok_and_deterministic() {
        let props = || vec![size_property(1000)];
        let a = run_suite(&props(), &cfg(32)).render();
        let b = run_suite(&props(), &CheckConfig { jobs: 1, ..cfg(32) }).render();
        assert!(a.contains("verdict: ok"));
        assert_eq!(a, b, "report must not depend on worker count");
    }

    #[test]
    fn failures_are_minimized_to_the_boundary() {
        let report = run_suite(&[size_property(10)], &cfg(16));
        assert!(!report.ok());
        let failures = &report.properties[0].failures;
        assert!(!failures.is_empty());
        // The minimal counterexample of `n ≤ 10` over 0..=1000 is n=11:
        // shrinking must land exactly on the boundary every time.
        for f in failures {
            assert_eq!(f.witness, "n=11", "not minimized: {f:?}");
            assert_eq!(f.tape, vec![11], "tape not minimal: {f:?}");
        }
    }

    #[test]
    fn corpus_replay_passes_fixed_bugs_and_flags_drift() {
        let prop = size_property(1000);
        // Decode tape [42] to its witness, as a blessing would.
        let mut src = Source::replay(&[42]);
        let out = prop.run(&mut src);
        let good = CorpusCase {
            name: "good".to_string(),
            property: "size-bounded".to_string(),
            note: String::new(),
            witness_fnv: fnv1a64(out.witness.as_bytes()),
            tape: vec![42],
        };
        let drifted = CorpusCase {
            witness_fnv: good.witness_fnv ^ 1,
            name: "drifted".to_string(),
            ..good.clone()
        };
        assert!(replay_corpus_entry(&prop, &good).is_none());
        let f = replay_corpus_entry(&prop, &drifted).expect("drift must fail");
        assert!(f.error.contains("witness drifted"), "got: {}", f.error);
    }

    #[test]
    fn orphaned_corpus_entries_fail_the_suite() {
        let dir = std::env::temp_dir().join("copart-check-orphan-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("ghost.case"),
            "property: no-such-property\nwitness-fnv: 0\ntape: 1\n",
        )
        .unwrap();
        let config = CheckConfig {
            corpus_dir: Some(dir.clone()),
            ..cfg(0)
        };
        let report = run_suite(&[size_property(1000)], &config);
        std::fs::remove_dir_all(&dir).ok();
        assert!(!report.ok());
        assert_eq!(report.orphaned_corpus, vec!["ghost".to_string()]);
        assert!(report.render().contains("names no registered property"));
    }
}
