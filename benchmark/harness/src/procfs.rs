//! `/proc` readers: a child's peak resident set and CPU time, and the
//! host's load average.
//!
//! `VmHWM` is the kernel's own high-water mark, so polling it cannot
//! miss a peak between polls — only the growth in the last poll interval
//! before exit, after which the entry is gone.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` has been 100 on every Linux ABI since
/// 2.6; reading it properly needs `sysconf`, which `std` does not expose.
pub const TICKS_PER_S: f64 = 100.0;

/// What one poll of a live process saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// Peak resident set so far (`VmHWM`), kB.
    pub hwm_kb: Option<u64>,
    /// User + system CPU consumed so far by all threads, seconds.
    pub cpu_s: Option<f64>,
}

impl ProcSample {
    /// Folds a later poll into this one: both quantities only grow, and
    /// a failed read (the process just exited) keeps the last good value.
    pub fn merge(&mut self, later: ProcSample) {
        self.hwm_kb = later.hwm_kb.max(self.hwm_kb);
        if let Some(cpu) = later.cpu_s {
            self.cpu_s = Some(self.cpu_s.map_or(cpu, |c| c.max(cpu)));
        }
    }
}

/// The `VmHWM` line of a `/proc/<pid>/status` document, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the comm: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Polls a live process. Fields the kernel no longer serves (the
/// process has exited, or was never ours to read) come back `None`.
pub fn sample(pid: u32) -> ProcSample {
    ProcSample {
        hwm_kb: fs::read_to_string(format!("/proc/{pid}/status"))
            .ok()
            .and_then(|s| parse_vm_hwm_kb(&s)),
        cpu_s: fs::read_to_string(format!("/proc/{pid}/stat"))
            .ok()
            .and_then(|s| parse_cpu_ticks(&s))
            .map(|t| t as f64 / TICKS_PER_S),
    }
}

/// The 1-minute load average, if `/proc/loadavg` is readable.
pub fn loadavg_1m() -> Option<f64> {
    fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> Option<String> {
    fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tcopart\nUmask:\t0022\nVmPeak:\t  123456 kB\n\
                          VmSize:\t  120000 kB\nVmHWM:\t   45678 kB\nVmRSS:\t   40000 kB\n";

    #[test]
    fn reads_vm_hwm() {
        assert_eq!(parse_vm_hwm_kb(STATUS), Some(45678));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn reads_cpu_ticks_past_an_awkward_comm() {
        let stat = "4242 (co) part (x)) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    371 29 0 0 20 0 3 0 100 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(400));
        assert_eq!(parse_cpu_ticks("4242 (copart) S 1 2 3"), None);
        assert_eq!(parse_cpu_ticks("no parens"), None);
    }

    #[test]
    fn polls_a_live_process_and_survives_a_dead_pid() {
        let me = sample(std::process::id());
        assert!(me.hwm_kb.is_some_and(|kb| kb > 0), "own VmHWM: {me:?}");
        assert!(me.cpu_s.is_some());
        // PID 0 has no /proc entry: the poller reports nothing, not an error.
        assert_eq!(sample(0), ProcSample::default());
    }

    #[test]
    fn merge_keeps_the_high_water_marks() {
        let mut acc = ProcSample::default();
        acc.merge(ProcSample {
            hwm_kb: Some(100),
            cpu_s: Some(0.5),
        });
        acc.merge(ProcSample {
            hwm_kb: Some(300),
            cpu_s: Some(0.7),
        });
        // The poll after exit reads nothing and must not erase the peak.
        acc.merge(ProcSample::default());
        assert_eq!(
            acc,
            ProcSample {
                hwm_kb: Some(300),
                cpu_s: Some(0.7)
            }
        );
    }
}
