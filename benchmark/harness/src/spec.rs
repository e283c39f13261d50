//! The one table of workloads and metrics.
//!
//! `BENCHMARK.json` is generated from this table (plus the bounds that
//! `--calibrate` measures), the runner prints and checks against it, and
//! the README documents it; nothing else names a metric.

use crate::json::Json;

/// Worker threads for every surface that takes `--jobs`, and the most
/// client threads/connections the load generator uses: the sandbox's
/// `nproc`.
pub const JOBS: usize = 2;

/// The seed `fleet_churn` always runs at (the `scripts/fleet.sh` seed),
/// whatever `--seed` says. The fleet's seed draws the tenant mix, and what
/// a simulated epoch costs depends on which benchmarks are popular: over
/// seeds 101..=110 the same shape took 13.5 s to 21.5 s. A metric that
/// moves 40 % with its input cannot show a 10 % regression, so this one
/// input is held still.
pub const FLEET_SEED: u64 = 1001;

/// One benchmark workload and why it was chosen.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The fixed name later issues cite.
    pub name: &'static str,
    /// One line: what it stresses, and what it bypasses.
    pub why: &'static str,
}

/// The seven workloads, in run order.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "node_steady",
        why: "sim-run h-both x4 for 2000 warm epochs, null recorder: the simulator tick does ~all the work and the controller ~none",
    },
    Workload {
        name: "planner_scale",
        why: "sim-run --apps 4000 for 20000 planning epochs: planner and matching do all the work, the simulator none (the bypass for simulator changes)",
    },
    Workload {
        name: "node_persist",
        why: "800 epochs with a snapshot every 8, then kill at 792 and --resume: trace, event log, 588 KB snapshots, recover and replay beside the simulation",
    },
    Workload {
        name: "fleet_churn",
        why: "fleet-run 64 nodes x 500 tenants x 48 epochs on 2 workers: node boots, admissions with profiling, migrations and a barrier per epoch, not steady ticks",
    },
    Workload {
        name: "serve_reads",
        why: "the daemon under 2x1000 req/s open-loop reads, then a 4-connection closed loop: HTTP path and shared registry work while the control thread holds its 25 ms grid",
    },
    Workload {
        name: "serve_churn",
        why: "paced reads on one connection beside 30 remove+admit cycles on another: writes block the control loop the reads share state with",
    },
    Workload {
        name: "compare_grid",
        why: "compare --seconds 6: 35 short cold cells plus the ST/Utility offline search on the pool, and the only output that is the paper's headline quantity",
    },
];

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a user-visible metric's regression bound is derived from the
/// measured run-to-run spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundRule {
    /// Host time: `max(10 %, 3 x spread)`.
    HostTime,
    /// Set-up time: the contract's largest bound, 25 %.
    Setup,
    /// Simulated: repeats exactly at one seed; 1 %, and any difference
    /// at all prints `simulated statistics changed`.
    Simulated,
    /// A ratio near zero, bounded absolutely (worse by at most this).
    Absolute(f64),
}

/// One end-to-end metric: what a user of a surface sees.
#[derive(Debug, Clone, Copy)]
pub struct UserMetric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// The workloads that report it (`None` = every workload).
    pub workloads: Option<&'static [&'static str]>,
    /// How its bound is derived.
    pub rule: BoundRule,
    /// Whether it is in `BENCHMARK.json`'s `end_to_end` list. The
    /// driver requires every listed metric from every workload, never
    /// zero, so only metrics every surface has are listed; the rest are
    /// printed, written to `results.json`, and bounded in `NOISE.json`.
    pub gated: bool,
}

impl UserMetric {
    /// Whether `workload` reports this metric.
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_none_or(|w| w.contains(&workload))
    }
}

const SERVE: &[&str] = &["serve_reads", "serve_churn"];

/// Every end-to-end metric, gated ones first.
pub const USER_METRICS: [UserMetric; 17] = [
    UserMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        workloads: None,
        rule: BoundRule::Setup,
        gated: true,
    },
    UserMetric {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        workloads: None,
        rule: BoundRule::HostTime,
        gated: true,
    },
    UserMetric {
        name: "epochs_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: None,
        rule: BoundRule::HostTime,
        gated: true,
    },
    UserMetric {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        workloads: None,
        rule: BoundRule::HostTime,
        gated: true,
    },
    UserMetric {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        workloads: None,
        rule: BoundRule::HostTime,
        gated: true,
    },
    UserMetric {
        name: "resume_s",
        unit: "s",
        better: Better::Lower,
        workloads: Some(&["node_persist"]),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        workloads: Some(&["serve_reads"]),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "req_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: Some(SERVE),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "req_ms_p99",
        unit: "ms",
        better: Better::Lower,
        workloads: Some(SERVE),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "admit_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: Some(&["serve_churn"]),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "remove_ms_p50",
        unit: "ms",
        better: Better::Lower,
        workloads: Some(&["serve_churn"]),
        rule: BoundRule::HostTime,
        gated: false,
    },
    UserMetric {
        name: "deadline_miss_ratio",
        unit: "ratio",
        better: Better::Lower,
        workloads: Some(SERVE),
        rule: BoundRule::Absolute(0.02),
        gated: false,
    },
    UserMetric {
        name: "fail_ratio",
        unit: "ratio",
        better: Better::Lower,
        workloads: None,
        rule: BoundRule::Absolute(0.0),
        gated: false,
    },
    UserMetric {
        name: "unfairness",
        unit: "ratio",
        better: Better::Lower,
        workloads: Some(&["node_steady"]),
        rule: BoundRule::Simulated,
        gated: false,
    },
    UserMetric {
        name: "throughput_gips",
        unit: "Ginstr/s",
        better: Better::Higher,
        workloads: Some(&["node_steady"]),
        rule: BoundRule::Simulated,
        gated: false,
    },
    UserMetric {
        name: "copart_vs_eq",
        unit: "ratio",
        better: Better::Lower,
        workloads: Some(&["compare_grid"]),
        rule: BoundRule::Simulated,
        gated: false,
    },
    UserMetric {
        name: "copart_vs_ablation",
        unit: "ratio",
        better: Better::Lower,
        workloads: Some(&["compare_grid"]),
        rule: BoundRule::Simulated,
        gated: false,
    },
];

/// The paper's Fig 12 CoPart/EQ unfairness geomean, the one hardware
/// reference the simulator's output can be held against.
pub const PAPER_COPART_VS_EQ: f64 = 0.427;

/// One per-layer metric, `<crate>.<name>`.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
}

const fn lm(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

use Better::{Higher, Lower};

/// Every per-layer metric. A traced run measures the ones its workload
/// exercises; the rest read 0 there (see the README's layer table).
pub const LAYER_METRICS: [LayerMetric; 83] = [
    lm("sim.advance_ns", "ns", Lower),
    lm("sim.advance_share", "ratio", Lower),
    lm("sim.minstr_per_host_s", "Minstr/s", Higher),
    lm("sim.ns_per_kaccess", "ns", Lower),
    lm("sim.boot_ns", "ns", Lower),
    lm("sim.capture_ns", "ns", Lower),
    lm("sim.restore_ns", "ns", Lower),
    lm("sim.snapshot_cache_lines", "count", Lower),
    lm("rdt.read_counters_ns", "ns", Lower),
    lm("rdt.write_ns", "ns", Lower),
    lm("rdt.reads_per_epoch", "count", Lower),
    lm("rdt.writes", "count", Lower),
    lm("core.epoch_ns_p50", "ns", Lower),
    lm("core.epoch_ns_p99", "ns", Lower),
    lm("core.ctrl_self_ns", "ns", Lower),
    lm("core.ctrl_share", "ratio", Lower),
    lm("core.sense_ns", "ns", Lower),
    lm("core.classify_ns", "ns", Lower),
    lm("core.actuate_ns", "ns", Lower),
    lm("core.plan_ns_mean", "ns", Lower),
    lm("core.plans", "count", Lower),
    lm("core.plan_ns_p50", "ns", Lower),
    lm("core.plan_ns_p99", "ns", Lower),
    lm("core.role_cache_hit_ratio", "ratio", Higher),
    lm("core.matching_rounds_per_plan", "count", Lower),
    lm("core.profile_ns", "ns", Lower),
    lm("core.static_search_ns", "ns", Lower),
    lm("core.eval_cell_ns", "ns", Lower),
    lm("core.allocs_per_epoch", "count", Lower),
    lm("core.transfers", "count", Lower),
    lm("core.theta_retries", "count", Lower),
    lm("core.convergences", "count", Lower),
    lm("core.re_explorations", "count", Lower),
    lm("matching.allocate_ns_1024", "ns", Lower),
    lm("matching.allocate_ns_4096", "ns", Lower),
    lm("telemetry.record_ns", "ns", Lower),
    lm("telemetry.trace_bytes_per_epoch", "bytes", Lower),
    lm("telemetry.json_render_ns_per_kb", "ns", Lower),
    lm("telemetry.json_parse_ns_per_kb", "ns", Lower),
    lm("telemetry.registry_inc_ns_1t", "ns", Lower),
    lm("telemetry.registry_inc_ns_2t", "ns", Lower),
    lm("persist.encode_ns", "ns", Lower),
    lm("persist.decode_ns", "ns", Lower),
    lm("persist.write_snapshot_ns", "ns", Lower),
    lm("persist.read_snapshot_ns", "ns", Lower),
    lm("persist.snapshot_bytes", "bytes", Lower),
    lm("persist.log_append_ns", "ns", Lower),
    lm("persist.snapshot_epoch_ns", "ns", Lower),
    lm("persist.plain_epoch_ns", "ns", Lower),
    lm("persist.share", "ratio", Lower),
    lm("persist.recover_ns", "ns", Lower),
    lm("persist.replay_ns_per_epoch", "ns", Lower),
    lm("fleet.ns_per_node_epoch", "ns", Lower),
    lm("fleet.node_epochs", "count", Lower),
    lm("fleet.placements", "count", Lower),
    lm("fleet.migrations", "count", Lower),
    lm("fleet.node_boots", "count", Lower),
    lm("fleet.deferrals", "count", Lower),
    lm("fleet.place_ns", "ns", Lower),
    lm("fleet.ticket_roundtrip_ns", "ns", Lower),
    lm("fleet.speedup_jobs2", "ratio", Higher),
    lm("fleet.est_admission_share", "ratio", Lower),
    lm("parallel.dispatch_ns", "ns", Lower),
    lm("parallel.speedup_jobs2", "ratio", Higher),
    lm("parallel.occupancy", "ratio", Higher),
    lm("serve.boot_ns", "ns", Lower),
    lm("serve.healthz_ms_p50", "ms", Lower),
    lm("serve.status_ms_p50", "ms", Lower),
    lm("serve.metrics_ms_p50", "ms", Lower),
    lm("serve.trace_ms_p50", "ms", Lower),
    lm("serve.metrics_bytes", "bytes", Lower),
    lm("serve.render_metrics_ns", "ns", Lower),
    lm("serve.admit_ns", "ns", Lower),
    lm("serve.remove_ns", "ns", Lower),
    lm("serve.tick_lag_ms_mean", "ms", Lower),
    lm("serve.deadline_miss_ratio", "ratio", Lower),
    lm("workloads.stream_ref_ns", "ns", Lower),
    lm("workloads.solo_full_ns", "ns", Lower),
    lm("faults.none_overhead_ns", "ns", Lower),
    lm("bench.pacer_late_ms_p99", "ms", Lower),
    lm("bench.trace_overhead_ratio", "ratio", Higher),
    lm("bench.epoch_coverage", "ratio", Higher),
    lm("bench.loadavg_start", "load", Lower),
];

/// Seconds one driver run measures (`run_seconds`): repeated trials of
/// a workload's fixed shape stop once this much has been spent, and one
/// trial always completes.
pub const RUN_SECONDS: u32 = 10;

/// The command the driver runs from the repo root.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

/// The contract caps a relative bound at a quarter.
pub const MAX_BOUND: f64 = 0.25;

/// The floor of a host-time bound.
pub const MIN_HOST_BOUND: f64 = 0.10;

/// A host-time bound is this many times the measured run-to-run spread
/// (the contract asks for every spread to stay below a third of its
/// bound).
pub const SPREADS_PER_BOUND: f64 = 3.0;

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The gated end-to-end metrics, in `BENCHMARK.json` order.
pub fn gated() -> impl Iterator<Item = &'static UserMetric> {
    USER_METRICS.iter().filter(|m| m.gated)
}

/// Renders `BENCHMARK.json` from the table; `bound_of` supplies each
/// gated metric's bound.
pub fn manifest(bound_of: impl Fn(&UserMetric) -> f64) -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(s)).collect());
    Json::obj()
        .with("command", strs(&COMMAND))
        .with("paths", strs(&["benchmark"]))
        .with("run_seconds", Json::Num(f64::from(RUN_SECONDS)))
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", Json::str(w.name))
                            .with("why", Json::str(w.why))
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                gated()
                    .map(|m| {
                        Json::obj()
                            .with("name", Json::str(m.name))
                            .with("unit", Json::str(m.unit))
                            .with("better", Json::str(m.better.as_str()))
                            .with("bound", Json::Num(bound_of(m)))
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                LAYER_METRICS
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", Json::str(m.name))
                            .with("unit", Json::str(m.unit))
                            .with("better", Json::str(m.better.as_str()))
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_table_meets_the_manifest_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(names.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &USER_METRICS {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
            for w in m.workloads.unwrap_or(&[]) {
                assert!(workload(w).is_some(), "{} names unknown {w}", m.name);
            }
        }
        for m in &LAYER_METRICS {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(names.insert(m.name), "duplicate name {}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&gated().count()));
        assert!((1..=128).contains(&LAYER_METRICS.len()));
        // The driver wants every gated metric from every workload.
        assert!(gated().all(|m| m.workloads.is_none()));
        let setup = gated().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn the_manifest_has_exactly_the_contract_keys() {
        let doc = manifest(|_| 0.1);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let text = doc.render_pretty();
        assert!(text.len() < 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }
}
