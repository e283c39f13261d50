//! Run-to-run noise: what `--calibrate` measures and what `--against`
//! judges with.
//!
//! A *cell* is one end-to-end metric on one workload. Calibration runs
//! the full set several times on different seeds (as the acceptance
//! check does), summarises every cell as Python's `statistics` module
//! would, derives each cell's regression bound from its spread, and
//! requires the two interleaved halves of the runs to agree within those
//! bounds. The result is `NOISE.json`; `BENCHMARK.json` is regenerated
//! from it.

use bench_harness::json::Json;
use bench_harness::report::Report;
use bench_harness::spec::{
    self, Better, BoundRule, UserMetric, MAX_BOUND, MIN_HOST_BOUND, SPREADS_PER_BOUND,
    USER_METRICS, WORKLOADS,
};
use bench_harness::stats;

/// One metric on one workload over the calibration runs.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The workload.
    pub workload: String,
    /// The metric.
    pub metric: &'static UserMetric,
    /// One value per calibration run, in run order.
    pub values: Vec<f64>,
}

impl Cell {
    /// `(q3 − q1) / median`; 0 when every run agrees exactly.
    pub fn spread(&self) -> f64 {
        stats::spread(&self.values).unwrap_or(0.0)
    }

    /// The regression bound the spread justifies, and whether a listed
    /// cell's bound was cut short by the contract's 25 % cap.
    pub fn bound(&self) -> (f64, bool) {
        rule_bound(self.metric, self.spread())
    }

    /// Whether the driver would refuse this cell outright: a listed
    /// metric whose spread alone exceeds the widest bound allowed.
    pub fn unshippable(&self) -> bool {
        self.metric.gated && self.metric.rule == BoundRule::HostTime && self.spread() > MAX_BOUND
    }

    fn to_json(&self) -> Json {
        let q = stats::quartiles(&self.values).unwrap_or([f64::NAN; 3]);
        let (bound, noisy) = self.bound();
        Json::obj()
            .with("unit", Json::str(self.metric.unit))
            .with(
                "median",
                Json::Num(stats::median(&self.values).unwrap_or(f64::NAN)),
            )
            .with("q1", Json::Num(q[0]))
            .with("q3", Json::Num(q[2]))
            .with("spread", Json::Num(self.spread()))
            .with("bound", Json::Num(bound))
            .with("capped", Json::Bool(noisy))
            .with(
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            )
    }
}

/// The bound a rule gives a cell with this much spread, and whether the
/// contract's cap cut it short (the spread is then above a third of the
/// bound: the cell still gates, with less margin than the rule wants).
/// Only a metric listed in the manifest is held to the cap; the others
/// keep the bound their noise needs, however wide.
pub fn rule_bound(metric: &UserMetric, spread: f64) -> (f64, bool) {
    match metric.rule {
        BoundRule::HostTime => {
            let want = (SPREADS_PER_BOUND * spread).max(MIN_HOST_BOUND);
            if metric.gated {
                (want.min(MAX_BOUND), want > MAX_BOUND)
            } else {
                (want, false)
            }
        }
        BoundRule::Setup => (MAX_BOUND, false),
        BoundRule::Simulated => (0.01, false),
        BoundRule::Absolute(by) => (by, false),
    }
}

/// Gathers every applicable cell from `runs` (one full set each). A run
/// that failed to produce a metric simply contributes no value.
pub fn cells(runs: &[Vec<Report>]) -> Vec<Cell> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        for metric in USER_METRICS.iter().filter(|m| m.applies_to(w.name)) {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|set| set.iter().find(|r| r.workload == w.name)?.get(metric.name))
                .collect();
            if metric.name == "fail_ratio" || values.is_empty() {
                continue; // carried by attempted/failed, not a metric
            }
            out.push(Cell {
                workload: w.name.to_string(),
                metric,
                values,
            });
        }
    }
    out
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (absolute for [`BoundRule::Absolute`]); negative when better.
pub fn worse_by(metric: &UserMetric, base: f64, new: f64) -> f64 {
    let delta = match metric.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    match metric.rule {
        BoundRule::Absolute(_) => delta,
        _ if base == 0.0 => {
            if delta > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        }
        _ => delta / base.abs(),
    }
}

/// Splits the runs into two interleaved halves (even and odd run
/// indices, so slow drift lands in both) and reports every cell whose
/// half-medians disagree, in either direction, beyond its bound.
pub fn halves_disagree(cells: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // The simulated metrics change with the seed, and calibration runs on
    // many; they are only ever compared at one seed.
    for cell in cells
        .iter()
        .filter(|c| c.metric.rule != BoundRule::Simulated)
    {
        let half = |parity: usize| -> Vec<f64> {
            cell.values
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == parity)
                .map(|(_, &v)| v)
                .collect()
        };
        let (Some(a), Some(b)) = (stats::median(&half(0)), stats::median(&half(1))) else {
            continue;
        };
        let gap = worse_by(cell.metric, a, b).max(worse_by(cell.metric, b, a));
        let (bound, _) = cell.bound();
        if gap > bound {
            out.push(format!(
                "{}/{}: halves read {a} and {b}, apart by {gap:.4} > bound {bound}",
                cell.workload, cell.metric.name
            ));
        }
    }
    out
}

/// The `NOISE.json` document.
pub fn noise_json(cells: &[Cell], seeds: &[u64], env: Json) -> Json {
    let mut by_workload = Json::obj();
    for w in &WORKLOADS {
        let mut members = Json::obj();
        for cell in cells.iter().filter(|c| c.workload == w.name) {
            members.set(cell.metric.name, cell.to_json());
        }
        by_workload.set(w.name, members);
    }
    Json::obj()
        .with("runs", Json::Num(seeds.len() as f64))
        .with(
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        )
        .with("env", env)
        .with("cells", by_workload)
}

/// `BENCHMARK.json` from the spec table and a `NOISE.json` document: a
/// listed metric's bound is the widest any of its cells records (the
/// rule's floor where none does).
pub fn manifest(noise: Option<&Json>) -> Json {
    spec::manifest(|m| {
        WORKLOADS
            .iter()
            .filter_map(|w| recorded_bound(noise, w.name, m.name))
            .fold(rule_bound(m, 0.0).0, f64::max)
    })
}

/// The bound `NOISE.json` records for a cell, if it has one.
pub fn recorded_bound(noise: Option<&Json>, workload: &str, metric: &str) -> Option<f64> {
    noise?
        .get("cells")?
        .get(workload)?
        .get(metric)?
        .get("bound")?
        .as_f64()
}

/// Judges a new run against a previous one, cell by cell. Returns the
/// printable verdict lines and whether anything regressed.
pub fn judge(base: &[Report], new: &[Report], noise: Option<&Json>) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut regressed = false;
    let mut simulated_changed = false;
    for w in &WORKLOADS {
        let pair = base
            .iter()
            .find(|r| r.workload == w.name)
            .zip(new.iter().find(|r| r.workload == w.name));
        let Some((b, n)) = pair else { continue };
        for metric in USER_METRICS.iter().filter(|m| m.applies_to(w.name)) {
            let (Some(bv), Some(nv)) = (b.get(metric.name), n.get(metric.name)) else {
                continue;
            };
            if metric.rule == BoundRule::Simulated && bv != nv {
                simulated_changed = true;
            }
            // Without a calibration on file, the rule's floor applies.
            let bound =
                recorded_bound(noise, w.name, metric.name).unwrap_or(rule_bound(metric, 0.0).0);
            let by = worse_by(metric, bv, nv);
            let verdict = if by > bound {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            lines.push(format!(
                "{:<14} {:<20} {bv:>14.6} -> {nv:>14.6}  worse by {by:>+8.4} (bound {bound:.4})  {verdict}",
                w.name, metric.name
            ));
        }
    }
    if simulated_changed {
        // A simulator-speed change must leave these identical.
        lines.push("simulated statistics changed".to_string());
    }
    (lines, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static UserMetric {
        USER_METRICS.iter().find(|m| m.name == name).unwrap()
    }

    fn cell(name: &str, values: &[f64]) -> Cell {
        Cell {
            workload: "node_steady".into(),
            metric: metric(name),
            values: values.to_vec(),
        }
    }

    fn report(workload: &str, metrics: &[(&str, f64)]) -> Report {
        let mut r = Report::new(workload);
        for (name, v) in metrics {
            r.put_user(name, Some(*v), 1);
        }
        r
    }

    #[test]
    fn bounds_follow_the_rules() {
        // Spread 1 % -> the 10 % floor.
        let quiet = cell(
            "wall_s",
            &[1.0, 1.0, 1.01, 1.0, 0.99, 1.0, 1.0, 1.01, 0.99, 1.0],
        );
        assert_eq!(quiet.bound(), (0.10, false));
        // Quartiles 1.0 and 1.08 around 1.04: spread ~7.7 % -> three times.
        let busy = cell(
            "wall_s",
            &[1.0, 1.0, 1.0, 1.04, 1.04, 1.04, 1.08, 1.08, 1.08, 1.08],
        );
        let (bound, noisy) = busy.bound();
        assert!(
            (bound - 3.0 * busy.spread()).abs() < 1e-12 && !noisy,
            "{bound}"
        );
        // Spread 18 % would want 55 %: a listed metric is capped and
        // flagged; one the manifest does not list keeps what it needs.
        let values = [1.0, 1.0, 1.0, 1.1, 1.1, 1.1, 1.2, 1.2, 1.2, 1.2];
        assert_eq!(cell("wall_s", &values).bound(), (0.25, true));
        assert!(!cell("wall_s", &values).unshippable());
        // A spread beyond the cap itself cannot be listed at all.
        let wild = [1.0, 1.0, 1.0, 1.2, 1.2, 1.2, 1.5, 1.5, 1.5, 1.5];
        assert!(cell("wall_s", &wild).unshippable());
        assert!(!cell("req_ms_p99", &wild).unshippable());
        let (bound, noisy) = cell("req_ms_p99", &values).bound();
        assert!(bound > 0.5 && !noisy, "{bound}");
        assert_eq!(cell("setup_s", &[1.0, 5.0]).bound(), (0.25, false));
        assert_eq!(cell("unfairness", &[0.0757; 5]).bound(), (0.01, false));
        assert_eq!(
            cell("deadline_miss_ratio", &[0.0; 5]).bound(),
            (0.02, false)
        );
    }

    #[test]
    fn worse_by_respects_direction_and_absolute_rules() {
        assert!((worse_by(metric("wall_s"), 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(metric("epochs_per_s"), 400.0, 360.0) - 0.1).abs() < 1e-12);
        assert!(worse_by(metric("epochs_per_s"), 400.0, 440.0) < 0.0);
        assert!((worse_by(metric("deadline_miss_ratio"), 0.0, 0.015) - 0.015).abs() < 1e-12);
    }

    #[test]
    fn halves_must_agree_within_the_bound() {
        // Even runs ~1.0, odd runs ~1.3: a 30 % disagreement.
        let split = cell("wall_s", &[1.0, 1.3, 1.0, 1.3, 1.0, 1.3]);
        assert_eq!(halves_disagree(&[split]).len(), 1);
        let steady = cell("wall_s", &[1.0, 1.02, 1.01, 0.99, 1.0, 1.01]);
        assert!(halves_disagree(&[steady]).is_empty());
        // Simulated cells differ by seed, not by noise: not judged here.
        let seeded = cell("unfairness", &[0.07, 0.09, 0.07, 0.09]);
        assert!(halves_disagree(&[seeded]).is_empty());
    }

    #[test]
    fn cells_collect_applicable_metrics_across_runs() {
        let runs = vec![
            vec![report(
                "node_steady",
                &[("wall_s", 6.8), ("unfairness", 0.0757)],
            )],
            vec![report(
                "node_steady",
                &[("wall_s", 6.9), ("unfairness", 0.0757)],
            )],
        ];
        let cells = cells(&runs);
        let names: Vec<&str> = cells.iter().map(|c| c.metric.name).collect();
        assert_eq!(names, ["wall_s", "unfairness"]);
        assert_eq!(cells[0].values, [6.8, 6.9]);
        let doc = noise_json(&cells, &[1, 2], Json::obj());
        // The manifest takes the widest cell of each listed metric.
        let listed = manifest(Some(&doc));
        let wall = &listed.get("end_to_end").and_then(Json::as_arr).unwrap()[1];
        assert_eq!(wall.get("name").and_then(Json::as_str), Some("wall_s"));
        assert_eq!(wall.get("bound").and_then(Json::as_f64), Some(0.10));
        assert_eq!(
            recorded_bound(Some(&doc), "node_steady", "unfairness"),
            Some(0.01)
        );
        assert_eq!(recorded_bound(Some(&doc), "node_steady", "resume_s"), None);
    }

    #[test]
    fn judge_flags_regressions_and_any_simulated_change() {
        let base = vec![report(
            "node_steady",
            &[
                ("wall_s", 6.8),
                ("epochs_per_s", 360.0),
                ("unfairness", 0.0757),
            ],
        )];
        let same = judge(&base, &base, None);
        assert!(!same.1 && !same.0.iter().any(|l| l.contains("simulated")));
        let new = vec![report(
            "node_steady",
            &[
                ("wall_s", 8.0),
                ("epochs_per_s", 361.0),
                ("unfairness", 0.0758),
            ],
        )];
        let (lines, regressed) = judge(&base, &new, None);
        assert!(regressed);
        assert!(lines
            .iter()
            .any(|l| l.contains("wall_s") && l.ends_with("REGRESSED")));
        assert!(lines
            .iter()
            .any(|l| l.contains("epochs_per_s") && l.ends_with("ok")));
        // 0.0757 -> 0.0758 is inside the 1 % bound but still reported.
        assert!(lines
            .iter()
            .any(|l| l.contains("unfairness") && l.ends_with("ok")));
        assert_eq!(lines.last().unwrap(), "simulated statistics changed");
    }
}
