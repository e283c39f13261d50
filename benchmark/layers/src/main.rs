//! `bench-layers`: one workload's traced run.
//!
//! Links the `copart-*` crates by path and measures them from outside:
//! decorators ([`trace`]) time every call the controller makes out of
//! `copart-core`, and everything else is timed around direct calls into
//! each crate's public functions. It reports the per-layer metrics the
//! workload exercises; `bench-e2e` runs it as a child, reads the report
//! it writes, and fills the layers this workload never enters with 0.
//! If a future API change breaks this build, the end-to-end numbers are
//! unaffected.

mod alloc;
mod compare;
mod cx;
mod fleet;
mod node;
mod persist;
mod planner;
mod serve;
mod timing;
mod trace;

use bench_harness::procfs;
use bench_harness::report::Report;
use bench_harness::spans;
use cx::Cx;
use std::io::BufWriter;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: bench-layers --workload NAME [--seed N] [--quick] \
                     [--out-json FILE] [--spans-out FILE] [--scratch DIR]";

fn main() -> ExitCode {
    let (mut workload, mut seed, mut quick) = (None, 42u64, false);
    let (mut out_json, mut spans_out) = (None::<PathBuf>, None::<PathBuf>);
    let mut scratch = std::env::temp_dir().join(format!("bench-layers-{}", std::process::id()));
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => match value().parse() {
                Ok(s) => seed = s,
                Err(_) => {
                    eprintln!("error: --seed takes a number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--quick" => quick = true,
            "--out-json" => out_json = Some(value().into()),
            "--spans-out" => spans_out = Some(value().into()),
            "--scratch" => scratch = value().into(),
            _ => {
                eprintln!("error: unknown option {flag:?}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let section: fn(&mut Cx) = match workload.as_deref() {
        Some("node_steady") => node::node_steady,
        Some("planner_scale") => planner::planner_scale,
        Some("node_persist") => persist::node_persist,
        Some("fleet_churn") => fleet::fleet_churn,
        Some("serve_reads") => serve::serve_reads,
        Some("serve_churn") => serve::serve_churn,
        Some("compare_grid") => compare::compare_grid,
        _ => {
            eprintln!("error: --workload must name one of the seven workloads\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let workload = workload.expect("matched above");

    let mut cx = Cx {
        seed,
        quick,
        scratch,
        log: trace::SpanLog::new(),
        report: Report {
            lenient: quick,
            ..Report::new(&workload)
        },
        spans: Vec::new(),
    };
    cx.put(
        "bench.loadavg_start",
        procfs::loadavg_1m().unwrap_or(0.0),
        1,
    );
    section(&mut cx);
    let rest = cx.log.take();
    cx.absorb(rest);
    let _ = std::fs::remove_dir_all(&cx.scratch);

    cx.report.print("per-layer, traced run");
    let mut ok = cx.report.failed == 0;
    if let Some(path) = &spans_out {
        let written = std::fs::File::create(path)
            .and_then(|f| spans::write_jsonl(&mut BufWriter::new(f), &cx.spans));
        match written {
            Ok(()) => println!("{} spans written to {}", cx.spans.len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    if let Some(path) = &out_json {
        if let Err(e) = std::fs::write(path, cx.report.to_json().render_pretty()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
