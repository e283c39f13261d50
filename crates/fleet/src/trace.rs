//! The JSONL fleet trace: placement, migration, departure, and
//! per-epoch summary events, plus the structural checker behind
//! `copart trace-check --fleet`.
//!
//! The fleet trace is the controller's decision log, and — like the
//! per-node period trace — it is part of the determinism contract:
//! byte-identical across `--jobs` settings for the same configuration.
//! Every line is one JSON object with a `kind` discriminator. The
//! checker replays the lines against the fleet's lifecycle rules (a
//! tenant is placed exactly once before it departs, migrations move a
//! placed tenant between distinct live nodes, summary counts match the
//! replayed membership and event tallies) so a trace that drifts from
//! the controller's actual behaviour fails structurally, not just by
//! eyeball.

use std::collections::HashMap;

use copart_telemetry::{FieldError, JsonReader, JsonWriter, ReadError};

/// One fleet trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetEvent {
    /// The run's configuration header (first line of every trace).
    Config {
        /// Node count.
        nodes: u64,
        /// Tenants on the churn tape.
        apps: u64,
        /// Per-node tenant capacity.
        capacity: u64,
        /// Fleet epochs driven.
        horizon: u64,
        /// Master seed.
        seed: u64,
    },
    /// A tenant was admitted onto a node.
    Placement {
        /// Fleet epoch.
        epoch: u64,
        /// Fleet-unique application id.
        app: u64,
        /// Table 2 short name of the tenant's workload.
        bench: String,
        /// Hosting node.
        node: u64,
        /// Whether this admission booted the node (first tenant).
        boot: bool,
    },
    /// A tenant could not be placed this epoch and stays queued.
    Deferred {
        /// Fleet epoch.
        epoch: u64,
        /// Fleet-unique application id.
        app: u64,
    },
    /// A tenant finished its service and left.
    Departure {
        /// Fleet epoch.
        epoch: u64,
        /// Fleet-unique application id.
        app: u64,
        /// The node it departed from.
        node: u64,
        /// Whether the departure emptied (tore down) the node.
        teardown: bool,
    },
    /// The rebalancer moved a tenant between nodes.
    Migration {
        /// Fleet epoch.
        epoch: u64,
        /// Fleet-unique application id.
        app: u64,
        /// Source node.
        from: u64,
        /// Destination node.
        to: u64,
        /// FNV-1a digest of the migration ticket that carried the state.
        digest: u64,
    },
    /// End-of-epoch fleet aggregate (cumulative counters).
    Summary {
        /// Fleet epoch.
        epoch: u64,
        /// Nodes hosting at least one tenant.
        active_nodes: u64,
        /// Tenants currently placed.
        running_apps: u64,
        /// Cumulative placements.
        placements: u64,
        /// Cumulative departures.
        departures: u64,
        /// Cumulative migrations.
        migrations: u64,
        /// p99 of per-node unfairness this epoch.
        unfairness_p99: f64,
        /// p99 of per-tenant slowdown this epoch.
        slowdown_p99: f64,
    },
}

impl FleetEvent {
    /// The `kind` discriminator the event is written under.
    fn kind(&self) -> &'static str {
        match self {
            FleetEvent::Config { .. } => "fleet-config",
            FleetEvent::Placement { .. } => "placement",
            FleetEvent::Deferred { .. } => "deferred",
            FleetEvent::Departure { .. } => "departure",
            FleetEvent::Migration { .. } => "migration",
            FleetEvent::Summary { .. } => "summary",
        }
    }

    /// The fleet epoch of every event but the config header.
    fn epoch(&self) -> Option<u64> {
        match self {
            FleetEvent::Config { .. } => None,
            FleetEvent::Placement { epoch, .. }
            | FleetEvent::Deferred { epoch, .. }
            | FleetEvent::Departure { epoch, .. }
            | FleetEvent::Migration { epoch, .. }
            | FleetEvent::Summary { epoch, .. } => Some(*epoch),
        }
    }

    /// Renders the event as one JSONL line.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        let mut w = JsonWriter::new(&mut line);
        w.begin_obj().key("kind").str(self.kind());
        if let Some(epoch) = self.epoch() {
            w.key("epoch").num(epoch as f64);
        }
        match self {
            FleetEvent::Config {
                nodes,
                apps,
                capacity,
                horizon,
                seed,
            } => {
                w.key("nodes").num(*nodes as f64);
                w.key("apps").num(*apps as f64);
                w.key("capacity").num(*capacity as f64);
                w.key("horizon").num(*horizon as f64);
                w.key("seed").num(*seed as f64);
            }
            FleetEvent::Placement {
                app,
                bench,
                node,
                boot,
                ..
            } => {
                w.key("app").num(*app as f64).key("bench").str(bench);
                w.key("node").num(*node as f64).key("boot").bool(*boot);
            }
            FleetEvent::Deferred { app, .. } => {
                w.key("app").num(*app as f64);
            }
            FleetEvent::Departure {
                app,
                node,
                teardown,
                ..
            } => {
                w.key("app").num(*app as f64).key("node").num(*node as f64);
                w.key("teardown").bool(*teardown);
            }
            FleetEvent::Migration {
                app,
                from,
                to,
                digest,
                ..
            } => {
                w.key("app").num(*app as f64);
                w.key("from").num(*from as f64).key("to").num(*to as f64);
                w.key("digest").hex16(*digest);
            }
            FleetEvent::Summary {
                active_nodes,
                running_apps,
                placements,
                departures,
                migrations,
                unfairness_p99,
                slowdown_p99,
                ..
            } => {
                w.key("active_nodes").num(*active_nodes as f64);
                w.key("running_apps").num(*running_apps as f64);
                w.key("placements").num(*placements as f64);
                w.key("departures").num(*departures as f64);
                w.key("migrations").num(*migrations as f64);
                w.key("unfairness_p99").num(*unfairness_p99);
                w.key("slowdown_p99").num(*slowdown_p99);
            }
        }
        w.end_obj();
        line
    }

    /// Parses one JSONL line back into an event, pulling its members in
    /// the order [`FleetEvent::to_json_line`] writes them.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON, an unknown `kind`, or a missing,
    /// out-of-order, extra or ill-typed member.
    pub fn parse_json_line(line: &str) -> Result<FleetEvent, String> {
        JsonReader::record(line, FleetEvent::read).map_err(|e| e.to_string())
    }

    fn read(r: &mut JsonReader<'_>) -> Result<FleetEvent, ReadError> {
        Ok(match &*r.key("kind")?.string()? {
            "fleet-config" => FleetEvent::Config {
                nodes: r.key("nodes")?.uint()?,
                apps: r.key("apps")?.uint()?,
                capacity: r.key("capacity")?.uint()?,
                horizon: r.key("horizon")?.uint()?,
                // The seed is an identifier, not a count, and the encoder
                // writes it through an f64 like every other integer:
                // above 2^53 it arrives rounded, beyond what `uint`
                // vouches for but still integral and in range — all a
                // decoder of these bytes can ask.
                seed: match r.key("seed")?.number()? {
                    n if n >= 0.0 && n.fract() == 0.0 && n < 2f64.powi(64) => n as u64,
                    _ => return Err(FieldError::new("seed", "u64").into()),
                },
            },
            "placement" => FleetEvent::Placement {
                epoch: r.key("epoch")?.uint()?,
                app: r.key("app")?.uint()?,
                bench: r.key("bench")?.string()?.into_owned(),
                node: r.key("node")?.uint()?,
                boot: r.key("boot")?.boolean()?,
            },
            "deferred" => FleetEvent::Deferred {
                epoch: r.key("epoch")?.uint()?,
                app: r.key("app")?.uint()?,
            },
            "departure" => FleetEvent::Departure {
                epoch: r.key("epoch")?.uint()?,
                app: r.key("app")?.uint()?,
                node: r.key("node")?.uint()?,
                teardown: r.key("teardown")?.boolean()?,
            },
            "migration" => FleetEvent::Migration {
                epoch: r.key("epoch")?.uint()?,
                app: r.key("app")?.uint()?,
                from: r.key("from")?.uint()?,
                to: r.key("to")?.uint()?,
                digest: r.key("digest")?.hex_u64()?,
            },
            "summary" => FleetEvent::Summary {
                epoch: r.key("epoch")?.uint()?,
                active_nodes: r.key("active_nodes")?.uint()?,
                running_apps: r.key("running_apps")?.uint()?,
                placements: r.key("placements")?.uint()?,
                departures: r.key("departures")?.uint()?,
                migrations: r.key("migrations")?.uint()?,
                unfairness_p99: r.key("unfairness_p99")?.number()?,
                slowdown_p99: r.key("slowdown_p99")?.number()?,
            },
            _ => return Err(FieldError::new("kind", "fleet event kind").into()),
        })
    }
}

/// What a structurally valid fleet trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetTraceStats {
    /// Events checked (including the config header).
    pub events: usize,
    /// Distinct epochs with a summary.
    pub epochs: u64,
    /// Placement events.
    pub placements: u64,
    /// Departure events.
    pub departures: u64,
    /// Migration events.
    pub migrations: u64,
    /// Deferral events.
    pub deferrals: u64,
}

/// Replays a fleet trace and checks it against the lifecycle rules.
///
/// # Errors
///
/// Returns a description of the first structural violation: malformed
/// line, missing/duplicated config header, an event that contradicts
/// the replayed membership (placing a placed tenant, departing from the
/// wrong node, migrating to a full or identical node), a node id out of
/// range, occupancy above capacity, non-monotonic epochs, or a summary
/// whose running-app or active-node count, or cumulative placement,
/// departure or migration count, disagrees with the replay.
pub fn check_fleet_trace(text: &str) -> Result<FleetTraceStats, String> {
    let mut stats = FleetTraceStats::default();
    let mut cfg: Option<(u64, u64)> = None; // (nodes, capacity)
    let mut placed: HashMap<u64, u64> = HashMap::new(); // app -> node
    let mut occupancy: HashMap<u64, u64> = HashMap::new(); // node -> apps
    let mut last_epoch = 0u64;
    let mut last_summary_epoch: Option<u64> = None;

    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = i + 1;
        let event = FleetEvent::parse_json_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
        stats.events += 1;
        if stats.events == 1 {
            match event {
                FleetEvent::Config {
                    nodes, capacity, ..
                } => {
                    cfg = Some((nodes, capacity));
                    continue;
                }
                _ => return Err(format!("line {lineno}: first event must be fleet-config")),
            }
        }
        let (n_nodes, capacity) = cfg.expect("config checked on the first event");
        let Some(epoch) = event.epoch() else {
            return Err(format!("line {lineno}: duplicate fleet-config"));
        };
        if epoch < last_epoch {
            return Err(format!(
                "line {lineno}: epoch {epoch} after epoch {last_epoch}"
            ));
        }
        last_epoch = epoch;
        match event {
            FleetEvent::Config { .. } => unreachable!("handled above"),
            FleetEvent::Placement {
                app, node, boot, ..
            } => {
                stats.placements += 1;
                if node >= n_nodes {
                    return Err(format!("line {lineno}: node {node} out of range"));
                }
                if let Some(on) = placed.get(&app) {
                    return Err(format!(
                        "line {lineno}: app {app} placed while already on node {on}"
                    ));
                }
                let occ = occupancy.entry(node).or_insert(0);
                if boot != (*occ == 0) {
                    return Err(format!(
                        "line {lineno}: boot flag {boot} but node {node} hosts {occ}"
                    ));
                }
                *occ += 1;
                if *occ > capacity {
                    return Err(format!(
                        "line {lineno}: node {node} over capacity ({occ} > {capacity})"
                    ));
                }
                placed.insert(app, node);
            }
            FleetEvent::Deferred { app, .. } => {
                stats.deferrals += 1;
                if let Some(on) = placed.get(&app) {
                    return Err(format!(
                        "line {lineno}: app {app} deferred while placed on node {on}"
                    ));
                }
            }
            FleetEvent::Departure {
                app,
                node,
                teardown,
                ..
            } => {
                stats.departures += 1;
                match placed.remove(&app) {
                    Some(on) if on == node => {}
                    Some(on) => {
                        return Err(format!(
                            "line {lineno}: app {app} departed node {node} but lives on {on}"
                        ));
                    }
                    None => {
                        return Err(format!("line {lineno}: app {app} departed unplaced"));
                    }
                }
                let occ = occupancy.entry(node).or_insert(0);
                *occ -= 1;
                if teardown != (*occ == 0) {
                    return Err(format!(
                        "line {lineno}: teardown flag {teardown} but node {node} hosts {occ}"
                    ));
                }
            }
            FleetEvent::Migration { app, from, to, .. } => {
                stats.migrations += 1;
                if from == to {
                    return Err(format!("line {lineno}: migration from a node to itself"));
                }
                if to >= n_nodes {
                    return Err(format!("line {lineno}: node {to} out of range"));
                }
                match placed.get(&app) {
                    Some(&on) if on == from => {}
                    Some(&on) => {
                        return Err(format!(
                            "line {lineno}: app {app} migrated from {from} but lives on {on}"
                        ));
                    }
                    None => {
                        return Err(format!("line {lineno}: app {app} migrated unplaced"));
                    }
                }
                *occupancy.entry(from).or_insert(1) -= 1;
                let occ = occupancy.entry(to).or_insert(0);
                *occ += 1;
                if *occ > capacity {
                    return Err(format!(
                        "line {lineno}: migration over capacity on node {to}"
                    ));
                }
                placed.insert(app, to);
            }
            FleetEvent::Summary {
                epoch,
                running_apps,
                active_nodes,
                placements,
                departures,
                migrations,
                ..
            } => {
                if last_summary_epoch == Some(epoch) {
                    return Err(format!(
                        "line {lineno}: duplicate summary for epoch {epoch}"
                    ));
                }
                last_summary_epoch = Some(epoch);
                stats.epochs += 1;
                let replayed_nodes = occupancy.values().filter(|&&o| o > 0).count() as u64;
                for (what, said, seen) in [
                    ("running apps", running_apps, placed.len() as u64),
                    ("active nodes", active_nodes, replayed_nodes),
                    ("placements", placements, stats.placements),
                    ("departures", departures, stats.departures),
                    ("migrations", migrations, stats.migrations),
                ] {
                    if said != seen {
                        return Err(format!(
                            "line {lineno}: summary says {said} {what}, replay says {seen}"
                        ));
                    }
                }
            }
        }
    }
    if cfg.is_none() {
        return Err("empty fleet trace (no fleet-config header)".to_string());
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_line() -> String {
        FleetEvent::Config {
            nodes: 4,
            apps: 8,
            capacity: 2,
            horizon: 10,
            seed: 1,
        }
        .to_json_line()
    }

    #[test]
    fn events_roundtrip_through_jsonl() {
        let events = vec![
            FleetEvent::Config {
                nodes: 4,
                apps: 8,
                capacity: 2,
                horizon: 10,
                seed: 1,
            },
            FleetEvent::Placement {
                epoch: 0,
                app: 3,
                bench: "WN".to_string(),
                node: 1,
                boot: true,
            },
            FleetEvent::Deferred { epoch: 0, app: 4 },
            FleetEvent::Migration {
                epoch: 2,
                app: 3,
                from: 1,
                to: 2,
                digest: 0xdead_beef_cafe_f00d,
            },
            FleetEvent::Departure {
                epoch: 3,
                app: 3,
                node: 2,
                teardown: true,
            },
            FleetEvent::Summary {
                epoch: 3,
                active_nodes: 0,
                running_apps: 0,
                placements: 1,
                departures: 1,
                migrations: 1,
                unfairness_p99: 0.25,
                slowdown_p99: 1.5,
            },
        ];
        // The member order the pull reader depends on, pinned: the
        // writer's bytes for each kind, both directions.
        let lines = [
            r#"{"kind":"fleet-config","nodes":4,"apps":8,"capacity":2,"horizon":10,"seed":1}"#,
            r#"{"kind":"placement","epoch":0,"app":3,"bench":"WN","node":1,"boot":true}"#,
            r#"{"kind":"deferred","epoch":0,"app":4}"#,
            r#"{"kind":"migration","epoch":2,"app":3,"from":1,"to":2,"digest":"deadbeefcafef00d"}"#,
            r#"{"kind":"departure","epoch":3,"app":3,"node":2,"teardown":true}"#,
            r#"{"kind":"summary","epoch":3,"active_nodes":0,"running_apps":0,"placements":1,"departures":1,"migrations":1,"unfairness_p99":0.25,"slowdown_p99":1.5}"#,
        ];
        for (e, line) in events.into_iter().zip(lines) {
            assert_eq!(e.to_json_line(), line);
            assert_eq!(FleetEvent::parse_json_line(line).unwrap(), e, "{line}");
        }
        // A member out of order, or one no writer emits, is refused.
        for (bad, key) in [
            (r#"{"kind":"deferred","app":4,"epoch":0}"#, "epoch"),
            (r#"{"kind":"deferred","epoch":0,"app":4,"node":1}"#, "node"),
        ] {
            let err = FleetEvent::parse_json_line(bad).unwrap_err();
            assert!(err.contains(&format!("\"{key}\"")), "{bad}: {err}");
        }

        // Integers that no encoder wrote are refused, not coerced.
        let deferred = FleetEvent::Deferred { epoch: 7, app: 4 }.to_json_line();
        assert!(deferred.contains("\"epoch\":7"), "{deferred}");
        for garbage in ["-1", "1.5", "1e300", "\"7\""] {
            let line = deferred.replace("\"epoch\":7", &format!("\"epoch\":{garbage}"));
            let err = FleetEvent::parse_json_line(&line).unwrap_err();
            assert!(err.contains("\"epoch\""), "{line}: {err}");
        }
        // A seed above 2^53 is written rounded; the decoder takes what
        // the encoder wrote but still refuses the rest.
        let config = |seed: &str| {
            format!(
            "{{\"kind\":\"fleet-config\",\"nodes\":1,\"apps\":1,\"capacity\":1,\"horizon\":1,\"seed\":{seed}}}"
        )
        };
        let big = FleetEvent::Config {
            nodes: 1,
            apps: 1,
            capacity: 1,
            horizon: 1,
            seed: (1 << 53) + 4099,
        };
        assert!(FleetEvent::parse_json_line(&big.to_json_line()).is_ok());
        assert!(FleetEvent::parse_json_line(&config("3")).is_ok());
        for garbage in ["-1", "1.5", "1e300"] {
            assert!(FleetEvent::parse_json_line(&config(garbage)).is_err());
        }
    }

    #[test]
    fn checker_accepts_a_consistent_trace() {
        let lines = [
            config_line(),
            FleetEvent::Placement {
                epoch: 0,
                app: 0,
                bench: "WN".to_string(),
                node: 0,
                boot: true,
            }
            .to_json_line(),
            FleetEvent::Placement {
                epoch: 0,
                app: 1,
                bench: "SP".to_string(),
                node: 1,
                boot: true,
            }
            .to_json_line(),
            FleetEvent::Migration {
                epoch: 1,
                app: 0,
                from: 0,
                to: 1,
                digest: 7,
            }
            .to_json_line(),
            FleetEvent::Departure {
                epoch: 2,
                app: 0,
                node: 1,
                teardown: false,
            }
            .to_json_line(),
            FleetEvent::Summary {
                epoch: 2,
                active_nodes: 1,
                running_apps: 1,
                placements: 2,
                departures: 1,
                migrations: 1,
                unfairness_p99: 0.0,
                slowdown_p99: 1.0,
            }
            .to_json_line(),
        ];
        let stats = check_fleet_trace(&lines.join("\n")).unwrap();
        assert_eq!(stats.placements, 2);
        assert_eq!(stats.migrations, 1);
        assert_eq!(stats.epochs, 1);
    }

    /// The summary's cumulative counters are the replay's tallies: a
    /// summary that claims a third placement after two placement lines
    /// (or any departure or migration that never happened) is refused.
    #[test]
    fn checker_compares_the_cumulative_counters() {
        let place = |app: u64, node: u64| {
            FleetEvent::Placement {
                epoch: 0,
                app,
                bench: "WN".to_string(),
                node,
                boot: true,
            }
            .to_json_line()
        };
        let trace = |placements: u64, departures: u64, migrations: u64| {
            let summary = FleetEvent::Summary {
                epoch: 0,
                active_nodes: 2,
                running_apps: 2,
                placements,
                departures,
                migrations,
                unfairness_p99: 0.0,
                slowdown_p99: 1.0,
            };
            [
                config_line(),
                place(0, 0),
                place(1, 1),
                summary.to_json_line(),
            ]
            .join("\n")
        };
        assert!(check_fleet_trace(&trace(2, 0, 0)).is_ok());
        for (bad, want) in [
            (trace(3, 0, 0), "summary says 3 placements, replay says 2"),
            (trace(2, 1, 0), "summary says 1 departures, replay says 0"),
            (trace(2, 0, 1), "summary says 1 migrations, replay says 0"),
        ] {
            assert_eq!(check_fleet_trace(&bad), Err(format!("line 4: {want}")));
        }
    }

    #[test]
    fn checker_rejects_lifecycle_violations() {
        let place = |app: u64, node: u64, boot: bool| {
            FleetEvent::Placement {
                epoch: 0,
                app,
                bench: "WN".to_string(),
                node,
                boot,
            }
            .to_json_line()
        };
        // Double placement.
        let t = [config_line(), place(0, 0, true), place(0, 1, true)].join("\n");
        assert!(check_fleet_trace(&t)
            .unwrap_err()
            .contains("already on node"));
        // Wrong boot flag.
        let t = [config_line(), place(0, 0, false)].join("\n");
        assert!(check_fleet_trace(&t).unwrap_err().contains("boot flag"));
        // Over capacity (capacity 2).
        let t = [
            config_line(),
            place(0, 0, true),
            place(1, 0, false),
            place(2, 0, false),
        ]
        .join("\n");
        assert!(check_fleet_trace(&t).unwrap_err().contains("over capacity"));
        // Departure of an unplaced app.
        let t = [
            config_line(),
            FleetEvent::Departure {
                epoch: 0,
                app: 9,
                node: 0,
                teardown: false,
            }
            .to_json_line(),
        ]
        .join("\n");
        assert!(check_fleet_trace(&t).unwrap_err().contains("unplaced"));
        // Missing header.
        assert!(check_fleet_trace(&place(0, 0, true))
            .unwrap_err()
            .contains("fleet-config"));
        // Epochs must not go backwards.
        let t = [
            config_line(),
            FleetEvent::Deferred { epoch: 3, app: 0 }.to_json_line(),
            FleetEvent::Deferred { epoch: 2, app: 1 }.to_json_line(),
        ]
        .join("\n");
        assert!(check_fleet_trace(&t).unwrap_err().contains("after epoch"));
    }

    /// Blank lines before the first event are skipped, and the missing
    /// header is reported on the line the first event is on.
    #[test]
    fn checker_names_the_line_of_a_headerless_first_event() {
        let placement = FleetEvent::Placement {
            epoch: 0,
            app: 0,
            bench: "WN".to_string(),
            node: 0,
            boot: true,
        };
        let t = format!("\n\n{}", placement.to_json_line());
        assert_eq!(
            check_fleet_trace(&t),
            Err("line 3: first event must be fleet-config".to_string())
        );
    }
}
