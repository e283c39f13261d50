//! `sim-run` under fault plans. Golden-trace regression for
//! degraded-mode classification: a fixed counter-dropout schedule (every
//! 7th read, seed 5) must reproduce exactly the checked-in sequence of
//! `(epoch, phase, decision, fault)` projections. Any change to the
//! dropout handling, EWMA bridging, or fault annotation shows up here as
//! a diff. And the LFOC clustering engine survives a fault plan with its
//! cluster planner engaged.
//!
//! Bless an intentional change with `UPDATE_GOLDEN=1 cargo test -p
//! copart-cli --test golden_degraded`.

use std::path::PathBuf;
use std::process::Command;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/degraded_trace.txt"
);

/// One stable line per event: the full byte trace would churn on any
/// simulator timing tweak, so the golden pins only the fields the
/// degraded-mode contract is about.
fn project(events: &[copart_telemetry::TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let fault = match &e.fault {
            None => "-".to_string(),
            Some(f) => format!(
                "degraded=[{}] retries={} rolled_back={}",
                f.degraded.join("+"),
                f.write_retries,
                f.rolled_back
            ),
        };
        out.push_str(&format!(
            "{} {} {} {}\n",
            e.epoch,
            e.phase.as_str(),
            e.decision.as_str(),
            fault
        ));
    }
    out
}

#[test]
fn degraded_mode_trace_matches_golden() {
    let trace = std::env::temp_dir().join(format!(
        "copart-golden-degraded-{}.jsonl",
        std::process::id()
    ));
    let bin = env!("CARGO_BIN_EXE_copart");
    let status = Command::new(bin)
        .args([
            "sim-run",
            "--mix",
            "h-llc",
            "--apps",
            "4",
            "--seconds",
            "10",
            "--policy",
            "copart",
            "--faults",
            "seed=5,dropout=1/7",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .status()
        .expect("run copart sim-run");
    assert!(status.success(), "sim-run --faults failed");

    // The degraded trace must still satisfy the machine-checkable
    // invariants (gapless epochs, monotone time).
    let check = Command::new(bin)
        .args([
            "trace-check",
            "--path",
            trace.to_str().unwrap(),
            "--min-events",
            "20",
        ])
        .status()
        .expect("run copart trace-check");
    assert!(check.success(), "trace-check rejected the degraded trace");

    let events = copart_telemetry::read_trace_file(&trace).expect("trace parses");
    let _ = std::fs::remove_file(&trace);
    let got = project(&events);
    assert!(
        got.contains("degraded=["),
        "the dropout schedule produced no degraded epoch"
    );

    let golden_path = PathBuf::from(GOLDEN);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &got).unwrap();
        eprintln!("golden file updated: {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} — bless it with UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        got, want,
        "degraded-mode trace diverged from the golden projection \
         (intentional? bless with UPDATE_GOLDEN=1)"
    );
}

/// The value of `<kind> <name>` in a `--metrics` block.
fn metric(metrics: &str, kind: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        let rest = line.strip_prefix(kind)?.trim_start().strip_prefix(name)?;
        rest.strip_prefix(" = ")?.trim().parse().ok()
    })
}

/// The runtime lays out shared-cluster schemata through its validity
/// assertions under transient write faults and counter dropouts; the
/// run finishes, its trace holds the trace invariants, and the metrics
/// show the cluster planner engaged.
#[test]
fn lfoc_clusters_under_faults() {
    let trace =
        std::env::temp_dir().join(format!("copart-lfoc-faults-{}.jsonl", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(["sim-run", "--mix", "m-both", "--policy", "lfoc"])
        .args([
            "--seconds",
            "30",
            "--faults",
            "seed=7,write=0.1,dropout=0.05",
        ])
        .args(["--metrics", "--trace-out", trace.to_str().unwrap()])
        .output()
        .expect("run copart sim-run");
    assert!(
        out.status.success(),
        "sim-run --policy lfoc failed: {out:?}"
    );
    let events = copart_telemetry::read_trace_file(&trace).expect("trace parses");
    let _ = std::fs::remove_file(&trace);
    let (n, _) = copart_telemetry::check_trace(&events).expect("the trace holds its invariants");
    assert!(n >= 10, "only {n} events");

    let metrics = String::from_utf8(out.stdout).expect("utf-8 metrics");
    assert!(
        metric(&metrics, "gauge", "clusters").is_some_and(|c| c >= 1.0),
        "no cluster gauge — the planner never engaged:\n{metrics}"
    );
    assert!(
        metric(&metrics, "counter", "cluster_replans").is_some_and(|n| n >= 1.0),
        "no cluster replans under faults:\n{metrics}"
    );
}
