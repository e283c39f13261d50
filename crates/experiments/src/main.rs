//! `repro` — regenerates every table and figure of the CoPart paper on
//! the simulated testbed.
//!
//! Each subcommand prints the rows/series of one paper artifact; `all`
//! runs everything. Every mix × engine grid runs through the library's
//! `Grid`. See EXPERIMENTS.md at the repository root for the
//! paper-vs-measured record.

mod ablations;
mod casestudy;
mod common;
mod compare;
mod fairness_figs;
mod fig12;
mod overhead;
mod perf_figs;
mod sensitivity;
mod tables;

use std::process::ExitCode;

const USAGE: &str = "\
Usage: repro <subcommand>

Paper artifacts:
  table1          System configuration (Table 1)
  table2          Benchmark characteristics (Table 2)
  fig1            Perf heatmaps: LLC-sensitive benchmarks (WN WS RT)
  fig2            Perf heatmaps: BW-sensitive benchmarks (OC CG FT)
  fig3            Perf heatmaps: LLC- & BW-sensitive benchmarks (SP ON FMM)
  fig4            Unfairness heatmap: LLC-sensitive mix
  fig5            Unfairness heatmap: BW-sensitive mix
  fig6            Unfairness heatmap: LLC- & BW-sensitive mix
  fig11           Sensitivity to design parameters (delta_P, B, Gamma)
  fig12           Unfairness of EQ/ST/CAT-only/MBA-only/CoPart x 7 mixes
  fig13           Sensitivity to the application count (3-6)
  fig14           Sensitivity to the total LLC capacity (7-11 ways)
  fig15           Case study: LC + batch runtime behaviour
  fig16           Overhead: state-space exploration time vs app count
  fig17           Throughput of all policies vs app count

Ablations (design choices of DESIGN.md section 6):
  ablate-matching HR matching vs greedy reallocation
  ablate-fsm      Cross-resource FSM awareness on/off
  ablate-retry    theta-retry random restarts on/off
  ablate-prefetch next-line hardware prefetcher on/off
  compare-utility UCP/dCat-style utility partitioning vs CoPart
  compare-engines Head-to-head: every registered engine (incl. LFOC
                  clustering) x every compare scenario, normalized to EQ

  all             Run everything (slow)

Options:
  --jobs N        Worker threads for the sweep fan-out (also COPART_JOBS;
                  default: the machine's available parallelism)

Environment:
  COPART_JOBS     Same as --jobs (the flag wins)
  REPRO_FAST      Non-empty/non-zero: shrink every run to smoke length
  REPRO_TRACE_DIR Where JSONL decision traces land (default: results/)
  REPRO_CSV_DIR   Also write each table as CSV under this directory
";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Global `--jobs N` (anywhere on the line): worker count for the
    // parallel sweep engine.
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let Some(value) = args.get(pos + 1) else {
            eprintln!("error: --jobs needs a value\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        };
        match value.parse::<usize>() {
            Ok(n) if n > 0 => copart_parallel::set_jobs(Some(n)),
            _ => {
                eprintln!("error: --jobs: cannot parse {value:?} (want a positive integer)\n");
                eprint!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
        args.drain(pos..=pos + 1);
    }
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let run = |name: &str| -> bool {
        match name {
            "table1" => tables::table1(),
            "table2" => tables::table2(),
            "fig1" => perf_figs::fig1(),
            "fig2" => perf_figs::fig2(),
            "fig3" => perf_figs::fig3(),
            "fig4" => fairness_figs::fig4(),
            "fig5" => fairness_figs::fig5(),
            "fig6" => fairness_figs::fig6(),
            "fig11" => sensitivity::fig11(),
            "fig12" => fig12::fig12(),
            "fig13" => sensitivity::fig13(),
            "fig14" => sensitivity::fig14(),
            "fig15" => casestudy::fig15(),
            "fig16" => overhead::fig16(),
            "fig17" => sensitivity::fig17(),
            "ablate-matching" => ablations::matching(),
            "ablate-fsm" => ablations::fsm_awareness(),
            "ablate-retry" => ablations::retry(),
            "ablate-prefetch" => ablations::prefetch(),
            "compare-utility" => ablations::utility(),
            "compare-engines" => compare::compare_engines(),
            _ => return false,
        }
        true
    };
    if cmd == "all" {
        for name in [
            "table1",
            "table2",
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "ablate-matching",
            "ablate-fsm",
            "ablate-retry",
            "ablate-prefetch",
            "compare-utility",
            "compare-engines",
        ] {
            println!("\n================ {name} ================\n");
            assert!(run(name));
        }
        return ExitCode::SUCCESS;
    }
    if run(cmd) {
        ExitCode::SUCCESS
    } else {
        eprintln!("unknown subcommand {cmd:?}\n");
        eprint!("{USAGE}");
        ExitCode::FAILURE
    }
}
