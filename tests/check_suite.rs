//! Tier-1 gate for the `copart-check` differential-oracle suite.
//!
//! Three contracts: the whole suite is green at the configured fuzz
//! budget (`COPART_CHECK_CASES`, default 64); the report is a pure
//! function of the configuration — byte-identical at any worker count;
//! and every blessed regression fixture in `tests/corpus/` still
//! replays (same decoded input, passing verdict). The last one is what
//! turns each fixed bug into a permanent test: if a generator change
//! silently re-decodes a blessed tape, the witness digest trips here.

use copart_check::{oracles, run_suite, CheckConfig};

#[test]
fn suite_is_green_at_the_configured_budget() {
    let config = CheckConfig::from_env();
    let report = run_suite(&oracles::all(), &config);
    assert!(report.ok(), "suite failed:\n{}", report.render());
}

#[test]
fn report_is_byte_identical_across_job_counts() {
    // A moderate budget keeps this affordable even when the full gate
    // raises COPART_CHECK_CASES; determinism does not depend on volume.
    let base = CheckConfig::from_env();
    let at = |jobs| {
        let config = CheckConfig {
            jobs,
            cases: base.cases.min(64),
            ..base.clone()
        };
        run_suite(&oracles::all(), &config).render()
    };
    assert_eq!(
        at(1),
        at(8),
        "report bytes must not depend on the worker count"
    );
}

#[test]
fn corpus_replays_every_blessed_regression() {
    let config = CheckConfig {
        cases: 0,
        ..CheckConfig::from_env()
    };
    let report = run_suite(&oracles::all(), &config);
    assert!(report.ok(), "corpus replay failed:\n{}", report.render());
    let replayed = |name: &str| {
        report
            .properties
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.corpus_entries)
            .unwrap_or(0)
    };
    // The fixtures behind this PR's bug fixes must actually be there —
    // an accidentally deleted or mis-named .case file would otherwise
    // pass by replaying nothing.
    assert!(
        replayed("json-depth-limit") >= 1,
        "depth-limit bomb missing"
    );
    assert!(
        replayed("ewma-reference") >= 1,
        "EWMA dropout fixture missing"
    );
    assert!(
        replayed("schemata-validation") >= 2,
        "schemata fixtures missing"
    );
    assert!(
        replayed("matching-allocate-stable") >= 1,
        "matching fixture missing"
    );
    assert!(
        replayed("snapshot-restore-replay") >= 2,
        "crash-recovery fixtures missing (clean + faulted)"
    );
    assert!(
        replayed("sim-cache-matches-reference") >= 1,
        "cache victim tie-break fixture missing"
    );
    assert!(
        replayed("decoder-rejects-corruption") >= 1,
        "snapshot header digest-case fixture missing"
    );
}
