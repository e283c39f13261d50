//! Documentation checks, with no shell: what OPERATIONS.md tells an
//! operator matches what the code emits, every source path, `copart`
//! subcommand, `--flag` and oracle the docs cite exists, every flag the
//! CLI accepts is documented, and DESIGN.md does not grow.

use copart_telemetry::{SeriesKind, SERIES};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const OPERATIONS: &str = include_str!("../OPERATIONS.md");
const DESIGN: &str = include_str!("../DESIGN.md");
const README: &str = include_str!("../README.md");
const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");
const CLI_MAIN: &str = include_str!("../crates/cli/src/main.rs");

/// DESIGN.md's size ceiling, in bytes: prose a change adds must replace
/// prose, until the by-layer rewrite lowers it.
const DESIGN_MAX_BYTES: usize = 97_973;

/// The `(series, kind)` rows of the tables under OPERATIONS.md's
/// `/metrics` exposition heading: every row whose first cell is a
/// backticked `copart_*` name.
fn documented_series() -> BTreeSet<(String, String)> {
    let section = OPERATIONS
        .split("\n## The `/metrics` exposition\n")
        .nth(1)
        .expect("OPERATIONS.md has a /metrics exposition section");
    let section = section.split("\n## ").next().unwrap_or(section);
    section
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').map(str::trim).skip(1);
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let kind = cells.next()?;
            name.starts_with("copart_")
                .then(|| (name.to_string(), kind.to_string()))
        })
        .collect()
}

/// The exposed name and kind of every series in the table: counters
/// carry Prometheus's `_total` suffix, gauges and histograms do not.
fn table_series() -> BTreeSet<(String, String)> {
    SERIES
        .iter()
        .map(|&(name, kind, _)| match kind {
            SeriesKind::Counter => (format!("copart_{name}_total"), "counter".to_string()),
            SeriesKind::Gauge => (format!("copart_{name}"), "gauge".to_string()),
            SeriesKind::Histogram => (format!("copart_{name}"), "histogram".to_string()),
        })
        .collect()
}

#[test]
fn operations_documents_exactly_the_series_table() {
    let documented = documented_series();
    for (name, kind) in &documented {
        assert_eq!(
            name.ends_with("_total"),
            kind == "counter",
            "{name} is documented as a {kind}: counters, and only they, end in _total"
        );
    }
    let table = table_series();
    let undocumented: Vec<_> = table.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&table).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "OPERATIONS.md lacks {undocumented:?} and documents {unknown:?}, which the series table does not list"
    );
}

/// Every full `crates/<crate>/…` path — a file or directory inside a
/// crate, not the bare crate directory or a glob — that DESIGN.md,
/// README.md or OPERATIONS.md cites.
fn cited_crate_paths() -> BTreeSet<String> {
    let mut paths = BTreeSet::new();
    for doc in [DESIGN, README, OPERATIONS] {
        for (at, _) in doc.match_indices("crates/") {
            let rest = &doc[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || "_./-".contains(c)))
                .unwrap_or(rest.len());
            let path = rest[..end].trim_end_matches('.');
            if path.split('/').filter(|part| !part.is_empty()).count() >= 3 {
                paths.insert(path.to_string());
            }
        }
    }
    paths
}

#[test]
fn every_cited_crate_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cited = cited_crate_paths();
    assert!(
        cited.contains("crates/persist/tests/snapshot_bytes.rs"),
        "{cited:?}"
    );
    let missing: Vec<_> = cited.iter().filter(|p| !root.join(p).exists()).collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md, README.md or OPERATIONS.md cite paths that do not exist: {missing:?}"
    );
}

#[test]
fn design_stays_under_its_byte_ceiling() {
    assert!(
        DESIGN.len() <= DESIGN_MAX_BYTES,
        "DESIGN.md is {} bytes, over its {DESIGN_MAX_BYTES}-byte ceiling: replace prose rather than add it",
        DESIGN.len()
    );
}

/// `crates/cli/src/main.rs`'s `OPTIONS` table: each subcommand with the
/// options its row accepts.
fn cli_options() -> BTreeMap<String, BTreeSet<String>> {
    let table = CLI_MAIN
        .split("const OPTIONS")
        .nth(1)
        .expect("main.rs has an OPTIONS table");
    let table = &table[..table.find("];").expect("the OPTIONS table ends")];
    table
        .split('(')
        .skip(1)
        .filter_map(|row| {
            let mut strings = row.split('"').skip(1).step_by(2);
            let name = strings.next()?.to_string();
            let options = strings.next()?.split_whitespace();
            Some((
                name,
                options.filter(|o| *o != "\\").map(str::to_string).collect(),
            ))
        })
        .collect()
}

/// The subcommands the `OPTIONS` table has rows for.
fn cli_subcommands() -> BTreeSet<String> {
    cli_options().into_keys().collect()
}

/// Every command `doc` quotes as `copart <subcommand>` or `copart-cli --
/// <subcommand>`: the subcommand word and the text after it.
fn quoted_commands(doc: &str) -> Vec<(String, &str)> {
    let mut found = Vec::new();
    for prefix in ["copart ", "copart-cli -- "] {
        for (at, _) in doc.match_indices(prefix) {
            let before = doc[..at].chars().next_back();
            if before.is_some_and(|c| c.is_ascii_alphanumeric() || "_-".contains(c)) {
                continue;
            }
            let rest = &doc[at + prefix.len()..];
            let word: String = rest
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            if word.starts_with(|c: char| c.is_ascii_lowercase()) {
                let after = &rest[word.len()..];
                found.push((word, after));
            }
        }
    }
    found
}

/// Every `--flag` README.md and OPERATIONS.md quote beside a subcommand,
/// as `(doc, subcommand, flag)`: the flags after the subcommand, up to
/// the closing backtick or the end of the command line, following `\`
/// continuations.
fn cited_flags() -> BTreeSet<(&'static str, String, String)> {
    let known = cli_subcommands();
    let mut cited = BTreeSet::new();
    for (name, doc) in [("README.md", README), ("OPERATIONS.md", OPERATIONS)] {
        for (cmd, after) in quoted_commands(doc) {
            if !known.contains(&cmd) {
                continue;
            }
            let mut span = String::new();
            for line in after.split('\n') {
                let code = line.split('`').next().unwrap_or_default();
                span.push_str(code);
                if code.len() < line.len() || !code.trim_end().ends_with('\\') {
                    break;
                }
            }
            for (at, _) in span.match_indices("--") {
                let flag: String = span[at + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                    .collect();
                if !flag.is_empty() {
                    cited.insert((name, cmd.clone(), flag));
                }
            }
        }
    }
    cited
}

#[test]
fn every_cited_flag_is_accepted_and_every_option_is_documented() {
    let options = cli_options();
    assert!(
        options["sim-run"].contains("trace-out") && options["sim-run"].contains("resume"),
        "{options:?}"
    );
    let cited = cited_flags();
    assert!(
        cited.contains(&(
            "README.md",
            "fleet-run".to_string(),
            "tickets-out".to_string()
        )),
        "{cited:?}"
    );
    let unknown: Vec<_> = cited
        .iter()
        .filter(|(_, cmd, flag)| !options[cmd].contains(flag))
        .collect();
    assert!(
        unknown.is_empty(),
        "the docs quote flags main.rs's OPTIONS does not accept: {unknown:?}"
    );

    let undocumented: Vec<_> = options
        .iter()
        .flat_map(|(cmd, flags)| flags.iter().map(move |flag| (cmd, flag)))
        .filter(|(_, flag)| {
            let quoted = format!("--{flag}");
            ![README, OPERATIONS].iter().any(|doc| {
                doc.match_indices(&quoted).any(|(at, _)| {
                    !doc[at + quoted.len()..]
                        .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
                })
            })
        })
        .collect();
    assert!(
        undocumented.is_empty(),
        "README.md and OPERATIONS.md never quote these OPTIONS flags: {undocumented:?}"
    );
}

/// Every backticked kebab-case name in a DESIGN.md paragraph that speaks
/// of an oracle, except crate and thread names (`copart-…`) and `copart`
/// subcommands: the oracle names DESIGN.md cites.
fn cited_oracles() -> BTreeSet<String> {
    let subcommands = cli_subcommands();
    let mut cited = BTreeSet::new();
    for paragraph in DESIGN.split("\n\n").filter(|p| p.contains("oracle")) {
        for quoted in paragraph.split('`').skip(1).step_by(2) {
            let kebab = quoted.contains('-')
                && quoted.starts_with(|c: char| c.is_ascii_lowercase())
                && quoted
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
            if kebab && !quoted.starts_with("copart-") && !subcommands.contains(quoted) {
                cited.insert(quoted.to_string());
            }
        }
    }
    cited
}

#[test]
fn every_cited_oracle_is_registered() {
    let registered: BTreeSet<&str> = copart_check::oracles::all()
        .iter()
        .map(|p| p.name())
        .collect();
    let cited = cited_oracles();
    assert!(cited.contains("snapshot-restore-replay"), "{cited:?}");
    let unknown: Vec<_> = cited
        .iter()
        .filter(|name| !registered.contains(name.as_str()))
        .collect();
    assert!(
        unknown.is_empty(),
        "DESIGN.md cites oracles copart_check::oracles::all() does not register: {unknown:?}"
    );
}

/// Every `copart <subcommand>` the docs quote, with the doc it is in.
fn cited_subcommands() -> BTreeSet<(&'static str, String)> {
    let mut cited = BTreeSet::new();
    for (name, doc) in [
        ("README.md", README),
        ("OPERATIONS.md", OPERATIONS),
        ("EXPERIMENTS.md", EXPERIMENTS),
        ("DESIGN.md", DESIGN),
    ] {
        for (word, _) in quoted_commands(doc) {
            cited.insert((name, word));
        }
    }
    cited
}

#[test]
fn every_cited_subcommand_exists() {
    let known = cli_subcommands();
    assert!(
        known.contains("sim-run") && known.contains("monitor"),
        "{known:?}"
    );
    let cited = cited_subcommands();
    assert!(
        cited.contains(&("README.md", "compare".to_string())),
        "{cited:?}"
    );
    let unknown: Vec<_> = cited
        .iter()
        .filter(|(_, cmd)| !known.contains(cmd))
        .collect();
    assert!(
        unknown.is_empty(),
        "the docs quote `copart` subcommands main.rs's OPTIONS does not list: {unknown:?}"
    );
}
