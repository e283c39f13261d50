//! Every subcommand refuses an option USAGE does not list for it, naming
//! the option, before it runs anything: a misspelled `--polcy lfoc` must
//! not run the default policy and exit 0.

use std::process::{Command, Output};

fn copart(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(args)
        .output()
        .expect("run copart")
}

fn assert_refused(args: &[&str], option: &str) {
    let out = copart(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} accepted");
    assert!(
        stderr.contains(&format!("{} does not take --{option}", args[0])),
        "{args:?}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran: {:?}", out.stdout);
}

#[test]
fn misspelled_and_foreign_options_are_refused_by_name() {
    assert_refused(
        &[
            "sim-run",
            "--seconds",
            "1",
            "--mix",
            "h-llc",
            "--polcy",
            "lfoc",
        ],
        "polcy",
    );
    assert_refused(&["sim-run", "--seconds", "1", "--bogus", "3"], "bogus");
    // Options and flags of other subcommands are foreign here.
    assert_refused(&["sim-run", "--seconds", "1", "--tick-ms", "5"], "tick-ms");
    assert_refused(&["compare", "--seconds", "1", "--metrics"], "metrics");
    assert_refused(&["trace-check", "--path", "x", "--resume"], "resume");
    // The daemon refuses before it binds a port or touches a directory.
    assert_refused(&["serve", "--tick-ms", "0", "--epoch", "3"], "epoch");
    assert_refused(&["fleet-run", "--node", "2"], "node");
}
