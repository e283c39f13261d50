//! A reader that goes away early (`copart … | head -0`) is not a crash:
//! a printing subcommand drops the rest of its output, finishes its work
//! and exits with its own status instead of panicking on `BrokenPipe`.

use std::process::{Command, Output};

/// Runs `copart args` with a stdout pipe whose read end is closed before
/// the process starts, so its first write fails with `EPIPE`.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("run copart")
}

fn assert_clean(what: &str, out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{what} exited {:?}: {stderr}",
        out.status
    );
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
}

#[test]
fn a_closed_stdout_ends_printing_commands_cleanly() {
    let trace =
        std::env::temp_dir().join(format!("copart-closed-stdout-{}.jsonl", std::process::id()));
    let path = trace.to_str().unwrap();
    let run = [
        "sim-run",
        "--seconds",
        "2",
        "--trace-out",
        path,
        "--metrics",
    ];
    assert_clean("sim-run", &run_with_closed_stdout(&run));
    // The work behind the output still happened.
    let events = std::fs::read_to_string(&trace).expect("the trace was written");
    assert!(events.lines().count() > 4);
    let check = ["trace-check", "--path", path, "--reference", path];
    assert_clean("trace-check", &run_with_closed_stdout(&check));
    // The exit status is still the command's own verdict.
    std::fs::write(&trace, "not json\n").unwrap();
    let out = run_with_closed_stdout(&["trace-check", "--path", path]);
    assert_eq!(out.status.code(), Some(1), "an invalid trace still fails");
    let _ = std::fs::remove_file(&trace);
}
