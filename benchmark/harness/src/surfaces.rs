//! What both binaries know about the surfaces they drive: the daemon's
//! read endpoints and reply shapes, the rotation of benchmarks the churn
//! workload admits, and the fleet trace's unit of work. Shared so the
//! end-to-end and traced runs issue the same requests at the same seed.

use crate::json::Json;
use std::time::Duration;

/// The read endpoints a connection rotates through.
pub const READ_ENDPOINTS: [&str; 3] = ["/status", "/metrics", "/trace?tail=4"];

/// One paced connection's interval: 1000 req/s.
pub const PACE: Duration = Duration::from_millis(1);

/// Every request fails after this long instead of hanging the run.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// The group id in a `POST /apps` reply, `{"group":N}`.
pub fn admitted_group(body: &str) -> Option<u64> {
    let digits: String = body
        .split("\"group\":")
        .nth(1)?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Node-epochs of a fleet run, its unit of work: the sum of
/// `active_nodes` over the trace's per-epoch `summary` lines. `None`
/// when there is no summary line or one does not parse.
pub fn node_epochs(trace: &str) -> Option<f64> {
    let mut total = 0.0;
    let mut summaries = 0;
    for line in trace.lines().filter(|l| l.contains("\"kind\":\"summary\"")) {
        total += Json::parse(line).ok()?.get("active_nodes")?.as_f64()?;
        summaries += 1;
    }
    (summaries > 0).then_some(total)
}

/// Table 2 short names `POST /apps` accepts.
pub const TABLE2: [&str; 11] = [
    "WN", "WS", "RT", "OC", "CG", "FT", "SP", "ON", "FMM", "SW", "EP",
];

/// Which benchmark each admission cycle admits: a rotation through
/// Table 2 that the seed only *starts*. An admission re-profiles the
/// node, and what that costs depends on the benchmark admitted, so
/// independent random picks would make the workload's cost a property
/// of the seed. A rotation gives
/// every seed nearly the same multiset over 30 cycles.
#[derive(Debug, Clone)]
pub struct Table2Rotation(usize);

impl Table2Rotation {
    /// The rotation `seed` starts.
    pub fn new(seed: u64) -> Table2Rotation {
        Table2Rotation((seed % TABLE2.len() as u64) as usize)
    }

    /// The next benchmark to admit.
    pub fn next_bench(&mut self) -> &'static str {
        let bench = TABLE2[self.0 % TABLE2.len()];
        self.0 += 1;
        bench
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_admitted_group() {
        assert_eq!(admitted_group("{\"group\":5}"), Some(5));
        assert_eq!(admitted_group("{\"group\":12,\"x\":1}"), Some(12));
        assert_eq!(admitted_group("{\"error\":\"no\"}"), None);
    }

    #[test]
    fn node_epochs_sum_active_nodes_over_summaries() {
        let trace = "{\"kind\":\"placement\",\"epoch\":0}\n\
                     {\"kind\":\"summary\",\"epoch\":0,\"active_nodes\":14}\n\
                     {\"kind\":\"summary\",\"epoch\":1,\"active_nodes\":27}\n";
        assert_eq!(node_epochs(trace), Some(41.0));
        assert_eq!(node_epochs("{\"kind\":\"placement\"}\n"), None);
    }

    #[test]
    fn every_seed_admits_nearly_the_same_multiset() {
        let picks = |seed: u64| -> Vec<&str> {
            let mut r = Table2Rotation::new(seed);
            (0..30).map(|_| r.next_bench()).collect()
        };
        assert_eq!(picks(42), picks(42));
        assert_ne!(picks(42), picks(43));
        assert_eq!(picks(42)[0], TABLE2[42 % 11]);
        for seed in 0..50 {
            for b in TABLE2 {
                let n = picks(seed).iter().filter(|&&p| p == b).count();
                assert!((2..=3).contains(&n), "seed {seed}: {b} admitted {n} times");
            }
        }
    }
}
