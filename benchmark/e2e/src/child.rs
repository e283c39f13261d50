//! Subprocess runner: every `copart` invocation the benchmark makes.
//!
//! A [`Spawned`] child has its stdout and stderr redirected to files
//! under the run's output directory (kept for post-mortem), is polled
//! for peak RSS and CPU time while it runs, is killed when it outlives
//! its timeout, and is killed and reaped on drop — so no `copart serve`
//! outlives a failed or panicking run.

use bench_harness::procfs::{self, ProcSample};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often a waiting runner samples `/proc` and the output files.
const POLL: Duration = Duration::from_millis(5);

/// A finished child.
#[derive(Debug, Clone)]
pub struct Run {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exited 0 within its timeout.
    pub ok: bool,
    /// Everything it wrote to stdout (stderr stays on disk, under the
    /// output directory).
    pub stdout: String,
    /// Peak RSS and CPU time, as last polled before exit.
    pub proc: ProcSample,
    /// Why it failed, when it did.
    pub failure: Option<String>,
}

/// Which output file to watch.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// The child's stdout.
    Out,
    /// The child's stderr.
    Err,
}

/// A running child.
pub struct Spawned {
    child: Child,
    label: String,
    started: Instant,
    stdout_path: PathBuf,
    stderr_path: PathBuf,
    proc: ProcSample,
}

impl Spawned {
    /// Starts `program args...` with its output under `dir/<label>.*`.
    ///
    /// # Errors
    ///
    /// Fails when the output files cannot be created or the program
    /// cannot be started.
    pub fn spawn(program: &Path, args: &[String], dir: &Path, label: &str) -> io::Result<Spawned> {
        fs::create_dir_all(dir)?;
        let stdout_path = dir.join(format!("{label}.stdout"));
        let stderr_path = dir.join(format!("{label}.stderr"));
        let started = Instant::now();
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(File::create(&stdout_path)?)
            .stderr(File::create(&stderr_path)?)
            .spawn()?;
        Ok(Spawned {
            child,
            label: label.to_string(),
            started,
            stdout_path,
            stderr_path,
            proc: ProcSample::default(),
        })
    }

    /// Seconds since the child was spawned.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Samples the child's `/proc` entry.
    pub fn poll(&mut self) {
        self.proc.merge(procfs::sample(self.child.id()));
    }

    /// Waits until a line containing `needle` appears on `stream`;
    /// returns the seconds since spawn at which it was seen, and the
    /// line. `None` when the child exits or `timeout` (since spawn)
    /// passes first.
    pub fn wait_for_line(
        &mut self,
        stream: Stream,
        needle: &str,
        timeout: Duration,
    ) -> Option<(f64, String)> {
        let path = match stream {
            Stream::Out => self.stdout_path.clone(),
            Stream::Err => self.stderr_path.clone(),
        };
        loop {
            let seen = self.elapsed_s();
            let text = fs::read_to_string(&path).unwrap_or_default();
            // Only complete lines: the writer may be mid-line.
            let complete = text.rfind('\n').map_or("", |end| &text[..end]);
            if let Some(line) = complete.lines().find(|l| l.contains(needle)) {
                return Some((seen, line.to_string()));
            }
            self.poll();
            let exited = matches!(self.child.try_wait(), Ok(Some(_)) | Err(_));
            if exited || self.started.elapsed() > timeout {
                return None;
            }
            std::thread::sleep(POLL);
        }
    }

    /// Waits for the child to exit, polling `/proc` on the way; kills it
    /// when `timeout` (since spawn) passes first.
    pub fn wait(mut self, timeout: Duration) -> Run {
        let mut last_poll = Instant::now() - POLL;
        let (status, failure) = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break (Some(status), None),
                Ok(None) => {}
                Err(e) => break (None, Some(format!("wait failed: {e}"))),
            }
            if self.started.elapsed() > timeout {
                let _ = self.child.kill();
                let _ = self.child.wait();
                break (
                    None,
                    Some(format!(
                        "killed after {:.1} s timeout",
                        timeout.as_secs_f64()
                    )),
                );
            }
            if last_poll.elapsed() >= POLL {
                self.poll();
                last_poll = Instant::now();
            }
            // Short children (a 3 ms planner probe) are timed to 0.1 ms;
            // long ones are not worth a busy core.
            let nap = if self.started.elapsed() < Duration::from_millis(50) {
                Duration::from_micros(100)
            } else {
                Duration::from_millis(1)
            };
            std::thread::sleep(nap);
        };
        let wall_s = self.elapsed_s();
        let failure = failure.or_else(|| match status {
            Some(s) if s.success() => None,
            Some(s) => Some(format!("exited with {s}")),
            None => Some("no exit status".to_string()),
        });
        Run {
            wall_s,
            ok: failure.is_none(),
            stdout: fs::read_to_string(&self.stdout_path).unwrap_or_default(),
            proc: self.proc,
            failure: failure.map(|f| format!("{}: {f}", self.label)),
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path or
        // a panic; `wait` reaps on the normal one.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-e2e-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sh(script: &str, dir: &Path, label: &str) -> Spawned {
        Spawned::spawn(
            Path::new("/bin/sh"),
            &["-c".to_string(), script.to_string()],
            dir,
            label,
        )
        .unwrap()
    }

    #[test]
    fn captures_output_status_and_peak_rss() {
        let dir = tmp("capture");
        let run = sh("echo out; echo err >&2; sleep 0.05", &dir, "ok").wait(Duration::from_secs(5));
        assert!(run.ok, "{:?}", run.failure);
        assert_eq!(run.stdout, "out\n");
        assert!(run.wall_s >= 0.05 && run.wall_s < 2.0);
        assert!(run.proc.hwm_kb.is_some_and(|kb| kb > 0), "{:?}", run.proc);
        // Kept for post-mortem.
        assert!(dir.join("ok.stdout").exists());
        assert_eq!(fs::read_to_string(dir.join("ok.stderr")).unwrap(), "err\n");

        let bad = sh("exit 3", &dir, "bad").wait(Duration::from_secs(5));
        assert!(!bad.ok);
        assert!(bad.failure.unwrap().starts_with("bad: exited with"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn kills_a_child_that_outlives_its_timeout() {
        let dir = tmp("timeout");
        let run = sh("exec sleep 30", &dir, "hang").wait(Duration::from_millis(100));
        assert!(!run.ok);
        assert!(run.wall_s < 5.0);
        assert!(run.failure.unwrap().contains("timeout"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sees_a_marker_line_and_reaps_on_drop() {
        let dir = tmp("marker");
        let mut child = sh(
            "sleep 0.05; echo listening on http://x:1; exec sleep 30",
            &dir,
            "d",
        );
        let (at, line) = child
            .wait_for_line(Stream::Out, "listening on", Duration::from_secs(5))
            .unwrap();
        assert!(at >= 0.05);
        assert_eq!(line, "listening on http://x:1");
        let pid = child.child.id();
        drop(child);
        assert!(
            !Path::new(&format!("/proc/{pid}")).exists(),
            "child outlived its handle"
        );

        // A child that exits without the marker ends the wait early.
        let mut quiet = sh("true", &dir, "q");
        assert!(quiet
            .wait_for_line(Stream::Out, "never", Duration::from_secs(5))
            .is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
