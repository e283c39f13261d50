//! A static policy asked to run a controller is refused with one message
//! on every `sim-run` path: it names the dynamic policies by wire name
//! and only the command the user ran. `--state-dir` used to answer with
//! the daemon's refusal ("serve needs …") after creating the directory.

use std::process::{Command, Output};

const DYNAMIC: &str = "cat-only, mba-only, copart, lfoc";

fn sim_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_copart"))
        .args(["sim-run", "--seconds", "1"])
        .args(args)
        .output()
        .expect("run copart sim-run")
}

fn assert_refused(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} accepted");
    assert!(stderr.contains(DYNAMIC), "{what}: {stderr}");
    assert!(!stderr.contains("serve"), "{what}: {stderr}");
}

#[test]
fn state_dir_refuses_static_policies_without_side_effects() {
    for policy in ["eq", "st", "utility"] {
        let dir = std::env::temp_dir().join(format!(
            "copart-static-refusal-{}-{policy}",
            std::process::id()
        ));
        let out = sim_run(&["--policy", policy, "--state-dir", dir.to_str().unwrap()]);
        assert_refused(&out, &format!("--policy {policy} --state-dir"));
        assert!(!dir.exists(), "a refused run left {} behind", dir.display());
    }
}

#[test]
fn controller_flags_refuse_static_policies() {
    assert_refused(
        &sim_run(&["--policy", "eq", "--faults", "seed=1"]),
        "--faults",
    );
    assert_refused(&sim_run(&["--policy", "eq", "--metrics"]), "--metrics");
}
