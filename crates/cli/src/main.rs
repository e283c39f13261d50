//! `copart` — command-line interface to the CoPart reproduction.
//!
//! ```text
//! copart sim-run   --mix h-both --policy copart --seconds 30
//! copart serve     --mix h-both --policy copart --port 7700
//! copart load      --addr 127.0.0.1:7700 --requests 10000
//! copart classify  --bench WN
//! copart resctrl-status --root /sys/fs/resctrl
//! copart resctrl-apply  --root /sys/fs/resctrl --group batch0 --ways 4@2 --mba 40
//! ```
//!
//! `sim-run` and `classify` run entirely on the simulated testbed;
//! `resctrl-*` speak the resctrl filesystem protocol (point `--root` at a
//! mock tree or at `/sys/fs/resctrl` on RDT hardware).

/// `print!` for command output. A stdout whose reader went away (`| head`)
/// drops the rest of the output instead of panicking; the command runs to
/// its own end and exit status.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for command output, under [`out!`]'s closed-stdout rule.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;
mod compare_cmd;
mod fleet_cmd;
mod resctrl_cmd;
mod serve_cmd;
mod sim_cmd;

use std::io::Write;
use std::process::ExitCode;

/// Writes command output to stdout; see [`out!`].
///
/// # Panics
///
/// On any stdout failure but a broken pipe, as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("failed printing to stdout: {e}");
        }
    }
}

const USAGE: &str = "\
Usage: copart <command> [options]

Commands:
  sim-run          Run a consolidation on the simulated testbed
      --mix <h-llc|h-bw|h-both|m-llc|m-bw|m-both|is>   (default h-both)
      --policy <eq|st|cat-only|mba-only|copart|utility|lfoc>
                                                       (default copart)
      --apps <1..4096>                                 (default 4)
                           7+ apps run the synthetic planner-scale
                           harness (no machine simulation); --seed and
                           --churn <0..1> tune its population
      --seconds <virtual seconds>                      (default 30)
      --seed <n>           seed of the explorer's randomized retries
                           (dynamic policies) and of ST's candidate
                           search; same seed, same bytes (default
                           242882029; 1371601426 with --state-dir or
                           7+ apps)
      --trace-out <path>   write a per-epoch JSONL decision trace
                           (dynamic policies: cat-only, mba-only, copart,
                           lfoc)
      --metrics            print the runtime metrics registry after the run
      --jobs <n>           worker threads for parallel sweeps (the ST
                           offline search); also COPART_JOBS env var
      --faults <spec>      inject deterministic backend faults (dynamic
                           policies only), e.g. seed=7,write=0.1,dropout=0.05
                           keys: seed, dropout, cbm, mba, write, vanish,
                           stall; values: probability, 1/<n>, or off
      --population <uniform|fleet>   planner-scale population source
                           (7+ apps): uniform random verdicts, or the
                           fleet's zipf-skewed benchmark mix
      --state-dir <dir>    crash-safe persistence: epoch snapshots plus an
                           event log (dynamic policies, up to 6 apps);
                           --epochs <n> sets the control epoch count
                           (default derived from --seconds),
                           --snapshot-every <n> the snapshot cadence
                           (default 16), --kill-at-epoch <k> stops dead
                           after k epochs (simulated SIGKILL), and
                           --resume recovers from the state directory and
                           finishes the run with byte-identical traces
  serve            Run the always-on control daemon (HTTP API + /metrics)
      --mix, --policy (dynamic only), --apps, --seed    as in sim-run
                           (--seed default 42)
      --port <n>           listen port (default 0 = ephemeral)
      --tick-ms <n>        wall-clock epoch spacing (default 25;
                           0 = free-run, requires --epochs)
      --epochs <n>         stop epoching after n (default 0 = unbounded)
      --faults <spec>      deterministic fault injection, as in sim-run
      --trace-dir <path>   write rotating JSONL trace files
      --state-dir <dir>    crash-safe persistence; a restarted daemon
                           resumes the run from its latest snapshot
      --snapshot-every <n> epochs between daemon snapshots (default 64;
                           0 = only at shutdown and POST /snapshot)
                           stop it with: curl -X POST <addr>/shutdown
  load             Hammer a daemon's read API (status/metrics/trace)
      --addr <host:port> [--requests <n>] [--concurrency <n>]
  fleet-run        Consolidate a multi-node fleet (placement engine,
                   unfairness-driven migrations, fleet-wide metrics)
      --nodes <n>          Xeon node count (default 4)
      --apps <n>           tenants on the churn tape (default 16)
      --seed <n>           master fleet seed (default 42)
      --epochs <n>         fleet epochs (default 48)
      --capacity <n>       tenants per node (default 4, the paper's
                           consolidation density)
      --rebalance-threshold <x>  unfairness EWMA that marks a node hot
      --rebalance-patience <n>   hot epochs before a migration fires
      --faults <spec>      per-node fault injection; sim-run's spec plus
                           nodes=<all|every/<k>|half> scoping
      --state-dir <dir>    write every live node's final snapshot
                           (node-NNNN/, PR-8 wire format)
      --trace-out <path>   write the JSONL fleet trace
      --tickets-out <path> write the migration-ticket audit trail
      --metrics            print the fleet metrics JSON document
      --jobs <n>           node-phase workers (byte-identical output at
                           any setting)
  compare          Head-to-head fairness grid: every registered policy
                   engine (EQ, ST, CAT-only, MBA-only, CoPart, Utility,
                   LFOC) x every compare scenario (paper mixes, diurnal
                   LC, flash-crowd LC, bully); byte-identical output at
                   any --jobs setting
      --seconds <virtual seconds>   per-cell run length (default 30)
      --seed <n>           evaluation seed (default 1371601426)
      --jobs <n>           worker threads for the cell grid
      --out <path>         write one JSONL line per (engine, scenario)
                           cell
  trace-check      Validate a JSONL decision trace (parses, gapless
                   epochs, monotone time)
      --path <file> [--min-events <n>]
      --fleet              validate a fleet-run trace instead: full
                           occupancy replay of placements, departures,
                           migrations, and per-epoch summaries
      --reference <file>   additionally require the trace to be
                           byte-identical to a reference trace (the
                           crash-recovery CI gate)
  classify         Probe one benchmark's sensitivity class
      --bench <WN|WS|RT|OC|CG|FT|SP|ON|FMM|SW|EP>
  resctrl-status   Show groups and schemata of a resctrl tree
      --root <path>
  resctrl-apply    Program one group's CAT mask and MBA level
      --root <path> --group <name> --ways <count>@<first> --mba <percent>
  resctrl-init     Create a mock resctrl tree (for dry runs)
      --root <path> [--llc-ways <n>]
  monitor          Sample per-group memory bandwidth (MBM) and occupancy
      --root <path> [--interval-ms <n>] [--count <n>]
";

/// The options each subcommand takes, as USAGE lists them. Any other
/// option is refused before the command runs.
const OPTIONS: &[(&str, &str)] = &[
    (
        "sim-run",
        "mix policy apps churn seconds seed trace-out metrics jobs faults population \
         state-dir epochs snapshot-every kill-at-epoch resume",
    ),
    (
        "serve",
        "mix policy apps seed port tick-ms epochs faults trace-dir state-dir snapshot-every",
    ),
    ("load", "addr requests concurrency"),
    (
        "fleet-run",
        "nodes apps seed epochs capacity rebalance-threshold rebalance-patience faults \
         state-dir trace-out tickets-out metrics jobs",
    ),
    ("compare", "seconds seed jobs out"),
    ("trace-check", "path min-events fleet reference"),
    ("classify", "bench"),
    ("resctrl-status", "root"),
    ("resctrl-apply", "root group ways mba"),
    ("resctrl-init", "root llc-ways"),
    ("monitor", "root interval-ms count"),
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(&(_, accepted)) = OPTIONS.iter().find(|(name, _)| name == cmd) else {
        eprintln!("unknown command {cmd:?}\n");
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = args::Options::parse_with_flags(rest, &["metrics", "resume", "fleet"])
        .and_then(|o| o.only(cmd, accepted).map(|()| o));
    let opts = match parsed {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "sim-run" => sim_cmd::sim_run(&opts),
        "compare" => compare_cmd::compare(&opts),
        "fleet-run" => fleet_cmd::fleet_run(&opts),
        "serve" => serve_cmd::serve(&opts),
        "load" => serve_cmd::load(&opts),
        "trace-check" if opts.flag("fleet") => fleet_cmd::fleet_trace_check(&opts),
        "trace-check" => sim_cmd::trace_check(&opts),
        "classify" => sim_cmd::classify(&opts),
        "resctrl-status" => resctrl_cmd::status(&opts),
        "resctrl-apply" => resctrl_cmd::apply(&opts),
        "resctrl-init" => resctrl_cmd::init(&opts),
        "monitor" => resctrl_cmd::monitor(&opts),
        other => unreachable!("{other} has an OPTIONS row but no dispatch arm"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every `--option` USAGE quotes inside each command's block.
    fn documented() -> Vec<(String, BTreeSet<String>)> {
        let mut blocks: Vec<(String, BTreeSet<String>)> = Vec::new();
        for line in USAGE.lines().skip_while(|l| *l != "Commands:").skip(1) {
            if let Some(head) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let name = head.split_whitespace().next().unwrap_or_default();
                blocks.push((name.to_string(), BTreeSet::new()));
            }
            let Some((_, options)) = blocks.last_mut() else {
                continue;
            };
            for (at, _) in line.match_indices("--") {
                let name: String = line[at + 2..]
                    .chars()
                    .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                    .collect();
                options.insert(name);
            }
        }
        blocks
    }

    #[test]
    fn usage_documents_exactly_the_accepted_options() {
        let table: Vec<(String, BTreeSet<String>)> = OPTIONS
            .iter()
            .map(|(cmd, opts)| {
                let opts = opts.split_whitespace().map(str::to_string).collect();
                (cmd.to_string(), opts)
            })
            .collect();
        assert_eq!(documented(), table);
    }
}
