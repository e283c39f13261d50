//! What every workload needs to run children: where the binary is,
//! where output goes, the seed, and the time budget.

use crate::child::{Run, Spawned};
use bench_harness::report::Report;
use bench_harness::stats;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The run's parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// `target/release/copart`.
    pub copart: PathBuf,
    /// This workload run's output directory (child stdout/stderr, state
    /// directories, traces).
    pub dir: PathBuf,
    /// Forwarded to every surface that takes `--seed`; also seeds the
    /// client's own choices.
    pub seed: u64,
    /// The measuring budget: full trials repeat while another fits.
    pub seconds: f64,
    /// Probe sizes only (`run.sh --quick`).
    pub quick: bool,
}

/// Peak RSS over a set of children.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    peak_kb: Option<u64>,
}

impl Usage {
    /// Folds one finished child in.
    pub fn add(&mut self, run: &Run) {
        self.peak_kb = self.peak_kb.max(run.proc.hwm_kb);
    }

    /// The largest `VmHWM` seen, MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        self.peak_kb.map(|kb| kb as f64 / 1024.0)
    }
}

/// A child killed after three times its expected wall, and never before
/// five seconds (a loaded host must not turn a 1 s probe into a failure).
pub fn timeout_for(expected_s: f64) -> Duration {
    Duration::from_secs_f64((3.0 * expected_s).max(5.0))
}

impl Ctx {
    /// Runs one `copart` invocation to completion and counts it: a
    /// non-zero exit, a timeout or a spawn failure is a failed operation.
    pub fn run(&self, report: &mut Report, label: &str, args: &[String], expected_s: f64) -> Run {
        let run = match Spawned::spawn(&self.copart, args, &self.dir, label) {
            Ok(child) => child.wait(timeout_for(expected_s)),
            Err(e) => Run {
                wall_s: 0.0,
                ok: false,
                stdout: String::new(),
                proc: Default::default(),
                failure: Some(format!("{label}: cannot spawn: {e}")),
            },
        };
        report.check(run.ok, || run.failure.clone().unwrap_or_default());
        run
    }

    /// Set-up probes: the command at minimum work, at least three times
    /// and until a second has been spent (cheap probes run more often, up
    /// to 25), so `setup_s` is a median even when one run affords a
    /// single full trial. `--quick` runs one.
    pub fn probes(&self, mut one: impl FnMut(usize) -> Run) -> Vec<Run> {
        let started = Instant::now();
        let mut runs = Vec::new();
        loop {
            runs.push(one(runs.len()));
            let enough = runs.len() >= 3 && started.elapsed() >= Duration::from_secs(1);
            if self.quick || enough || runs.len() >= 25 {
                return runs;
            }
        }
    }

    /// Full trials of the workload's fixed shape: one always runs, and
    /// another starts only while the budget has room for a trial as long
    /// as the last one. `since` is when the workload began (probes spend
    /// budget too).
    pub fn trials<T>(&self, since: Instant, mut one: impl FnMut(usize) -> (T, f64)) -> Vec<T> {
        let mut out = Vec::new();
        loop {
            let (trial, took_s) = one(out.len());
            out.push(trial);
            if since.elapsed().as_secs_f64() + took_s > self.seconds {
                return out;
            }
        }
    }

    /// An empty report for `workload`; a `--quick` run's is lenient.
    pub fn report(&self, workload: &str) -> Report {
        Report {
            lenient: self.quick,
            ..Report::new(workload)
        }
    }

    /// A path under the output directory, as an argument string.
    pub fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

/// Turns string literals and owned strings into an argument vector.
pub fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Median of the walls of the successful runs.
pub fn median_wall(runs: &[Run]) -> Option<f64> {
    let walls: Vec<f64> = runs.iter().filter(|r| r.ok).map(|r| r.wall_s).collect();
    stats::median(&walls)
}

/// FNV-1a 64 of some output, printed as information so two result files
/// can be compared by eye; never checked against a stored value.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reads a file the child was asked to write; a missing file reads as
/// empty and fails whatever check looks at it.
pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeouts_are_three_times_expected_with_a_floor() {
        assert_eq!(timeout_for(12.5), Duration::from_secs_f64(37.5));
        assert_eq!(timeout_for(0.003), Duration::from_secs(5));
    }

    #[test]
    fn one_trial_always_runs_and_more_only_while_they_fit() {
        let ctx = Ctx {
            copart: PathBuf::new(),
            dir: PathBuf::new(),
            seed: 42,
            seconds: 0.05,
            quick: false,
        };
        // A trial that claims to take longer than the budget runs once.
        let long = ctx.trials(Instant::now(), |i| (i, 1.0));
        assert_eq!(long, vec![0]);
        // Instant trials repeat until the wall clock spends the budget.
        let short = ctx.trials(Instant::now(), |i| {
            std::thread::sleep(Duration::from_millis(10));
            (i, 0.01)
        });
        assert!((2..=6).contains(&short.len()), "{short:?}");
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), "cbf29ce484222325");
        assert_eq!(digest(b"a"), "af63dc4c8601ec8c");
    }
}
