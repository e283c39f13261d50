//! Integration tests for the `copart serve` daemon: every wire endpoint,
//! the Prometheus exposition, determinism of daemon traces against
//! one-shot runs (fault-free and fault-injected, under concurrent read
//! load), wall-clock pacing, and the drain-at-epoch-boundary shutdown.

use copart_core::policies::PolicyKind;
use copart_faults::FaultPlan;
use copart_persist::{PersistedRun, Scenario};
use copart_serve::daemon::{spawn_control, Command};
use copart_serve::loadgen::{self, LoadConfig};
use copart_serve::{DaemonConfig, ServeConfig, ServerHandle};
use copart_telemetry::{Json, SeriesKind, SERIES};
use copart_workloads::MixKind;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A free-running daemon over the standard 4-app scenario.
fn boot_free(scenario: &Scenario, max_epochs: u64) -> ServerHandle {
    let cfg = ServeConfig {
        tick: Duration::ZERO,
        max_epochs: Some(max_epochs),
        ..ServeConfig::default()
    };
    copart_serve::serve_scenario(scenario, cfg).expect("daemon boots")
}

fn scenario(seed: u64) -> Scenario {
    Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, seed, None).expect("valid scenario")
}

fn get(addr: &str, path: &str) -> (u16, String) {
    loadgen::fetch(addr, "GET", path, "").expect("GET succeeds at the transport layer")
}

/// Polls `/metrics` until the epoch counter reaches `target`.
fn wait_for_epochs(addr: &str, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        let done = body
            .lines()
            .find_map(|l| l.strip_prefix("copart_epochs_total "))
            .and_then(|v| v.trim().parse::<u64>().ok())
            .is_some_and(|n| n >= target);
        if done {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon did not reach {target} epochs in time"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One exposition sample: `name{labels} value`.
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

/// A tiny Prometheus text-format (0.0.4) parser: enough to reject
/// malformed exposition and hand back the samples. Every sample must be
/// preceded by a `# TYPE` for its metric (histograms via their base
/// name), which is what real scrapers rely on.
fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let err = |msg: &str| format!("line {}: {msg}: {line:?}", i + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            match parts.next() {
                Some("HELP") => {
                    if parts.next().is_none() {
                        return Err(err("HELP without a metric name"));
                    }
                }
                Some("TYPE") => {
                    let name = parts.next().ok_or_else(|| err("TYPE without a name"))?;
                    let kind = parts.next().ok_or_else(|| err("TYPE without a kind"))?;
                    if !["counter", "gauge", "histogram"].contains(&kind) {
                        return Err(err("unknown metric kind"));
                    }
                    typed.insert(name.to_string(), kind.to_string());
                }
                _ => return Err(err("unknown comment form")),
            }
            continue;
        }
        let (name_labels, value) = line.rsplit_once(' ').ok_or_else(|| err("no value"))?;
        let value: f64 = value.parse().map_err(|_| err("unparseable value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => (
                n.to_string(),
                l.strip_suffix('}')
                    .ok_or_else(|| err("unclosed labels"))?
                    .to_string(),
            ),
            None => (name_labels.to_string(), String::new()),
        };
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(&name);
        if !typed.contains_key(&name) && !typed.contains_key(base) {
            return Err(err("sample without a preceding TYPE"));
        }
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

#[test]
fn every_endpoint_round_trips() {
    let handle = boot_free(&scenario(7), 2_000);
    let addr = handle.addr().to_string();

    // GET /status: a JSON document with the live consolidation picture.
    let (status, body) = get(&addr, "/status");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("/status is JSON");
    assert!(doc.get("epoch").is_some());
    assert!(doc
        .get("schemata")
        .and_then(Json::as_str)
        .unwrap()
        .contains("L3:"));

    // GET /healthz: the daemon just booted and is live (a liveness check:
    // one health sample can land on a descheduled stretch).
    assert_healthy(&addr);

    // GET /metrics: valid Prometheus text carrying the advertised series.
    // The epoch-derived series (epochs, unfairness, epoch_ns) appear
    // once the first epoch lands, so let a few run first.
    wait_for_epochs(&addr, 5);
    let (status, text) = get(&addr, "/metrics");
    assert_eq!(status, 200);
    let samples = parse_prometheus(&text).expect("/metrics parses as Prometheus 0.0.4");
    for required in [
        "copart_epochs_total",
        "copart_http_requests_total",
        "copart_http_responses_2xx_total",
        "copart_unfairness",
        "copart_healthy",
        "copart_epoch_ns_sum",
    ] {
        assert!(
            samples.iter().any(|s| s.name == required),
            "/metrics is missing {required}"
        );
    }
    // Histogram buckets are cumulative and end at +Inf == _count.
    let buckets: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "copart_epoch_ns_bucket")
        .collect();
    assert!(!buckets.is_empty());
    assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
    let inf = buckets.last().unwrap();
    assert!(inf.labels.contains("le=\"+Inf\""));
    let count = samples
        .iter()
        .find(|s| s.name == "copart_epoch_ns_count")
        .unwrap();
    assert_eq!(inf.value, count.value);

    // GET /trace?tail=N: at most N JSONL events, each parseable.
    let (status, tail) = get(&addr, "/trace?tail=3");
    assert_eq!(status, 200);
    let lines: Vec<&str> = tail.lines().collect();
    assert!(!lines.is_empty() && lines.len() <= 3);
    for line in &lines {
        Json::parse(line).expect("trace line is JSON");
    }

    // Mutations: remove an app, admit a replacement, switch the policy.
    let (status, body) = loadgen::fetch(&addr, "DELETE", "/apps/2", "").unwrap();
    assert_eq!(status, 200, "remove: {body}");
    let (status, body) = loadgen::fetch(&addr, "POST", "/apps", "{\"bench\":\"EP\"}").unwrap();
    assert_eq!(status, 201, "admit into the freed slot: {body}");
    assert!(body.contains("\"group\""));
    let (status, body) =
        loadgen::fetch(&addr, "POST", "/policy", "{\"policy\":\"mba-only\"}").unwrap();
    assert_eq!(status, 200, "policy switch: {body}");
    assert!(body.contains("MBA-only"));

    // Malformed and refused requests map onto the right 4xx.
    let cases: [(&str, &str, &str, u16); 8] = [
        ("POST", "/apps", "not json", 400),
        ("POST", "/apps", "{\"bench\":\"NOPE\"}", 400),
        ("POST", "/apps", "{\"wrong\":\"field\"}", 400),
        ("POST", "/policy", "{\"policy\":\"st\"}", 400),
        ("DELETE", "/apps/99", "", 404),
        ("DELETE", "/apps/abc", "", 400),
        ("GET", "/no-such-endpoint", "", 404),
        ("PUT", "/status", "", 405),
    ];
    for (method, path, body, expected) in cases {
        let (status, reply) = loadgen::fetch(&addr, method, path, body).unwrap();
        assert_eq!(status, expected, "{method} {path} with {body:?}: {reply}");
        assert!(Json::parse(&reply)
            .expect("error body is JSON")
            .get("error")
            .is_some());
    }
    let (status, _) = get(&addr, "/trace?tail=abc");
    assert_eq!(status, 400);

    // An oversize body is rejected before it is read.
    let oversize = "x".repeat(65 * 1024 + 1);
    let (status, _) = loadgen::fetch(&addr, "POST", "/apps", &oversize).unwrap();
    assert_eq!(status, 413);

    // POST /shutdown drains the daemon.
    let (status, body) = loadgen::fetch(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("draining"));
    let report = handle.join();
    assert!(report.epochs > 0);
    assert!(
        loadgen::fetch(&addr, "GET", "/status", "").is_err(),
        "the port is closed"
    );
}

/// A `/status` body that is a complete document: it parses and carries
/// the epoch, the phase and the app roster.
fn assert_complete_status(body: &str) {
    let doc = Json::parse(body).unwrap_or_else(|e| panic!("/status {body:?}: {e}"));
    assert!(
        doc.get("epoch").and_then(Json::as_u64).is_some(),
        "no epoch: {body}"
    );
    assert!(
        doc.get("phase").and_then(Json::as_str).is_some(),
        "no phase: {body}"
    );
    let apps = doc.get("apps").and_then(Json::as_arr);
    assert!(apps.is_some_and(|a| !a.is_empty()), "no apps: {body}");
}

#[test]
fn control_status_is_complete_when_spawn_returns() {
    let scenario = scenario(11);
    let env = scenario.env();
    let runtime = scenario
        .launch(&env, Box::new(copart_telemetry::NullRecorder))
        .expect("scenario launches");
    let (tx, rx) = std::sync::mpsc::channel();
    let control = spawn_control(
        PersistedRun::new(runtime, env),
        DaemonConfig {
            tick: Duration::ZERO,
            max_epochs: Some(3),
        },
        rx,
        tx.clone(),
    );
    let boot = control.status.lock().unwrap().clone();
    assert_complete_status(&boot);
    let (reply, epochs) = std::sync::mpsc::sync_channel(1);
    tx.send(Command::Shutdown { reply }).unwrap();
    epochs.recv().unwrap();
    control.join();
}

#[test]
fn status_is_never_empty_from_boot() {
    let handle = boot_free(&scenario(12), 20);
    let addr = handle.addr().to_string();
    for _ in 0..200 {
        let (status, body) = get(&addr, "/status");
        assert_eq!(status, 200);
        assert_complete_status(&body);
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn fault_free_daemon_trace_matches_oneshot_under_load() {
    const EPOCHS: u64 = 30;
    let scenario = scenario(42);
    let expected = scenario
        .reference_trace(EPOCHS)
        .expect("one-shot reference runs");

    let handle = boot_free(&scenario, EPOCHS);
    let addr = handle.addr().to_string();
    // Concurrent read load while the epochs run: GETs must not perturb
    // the control loop's decisions.
    let load_addr = addr.clone();
    let load = std::thread::spawn(move || {
        loadgen::run(
            &load_addr,
            &LoadConfig {
                requests: 400,
                concurrency: 4,
            },
        )
        .expect("load generator runs")
    });
    wait_for_epochs(&addr, EPOCHS);
    let report = load.join().expect("load thread joins");
    assert_eq!(report.failures, 0, "every request under load answered 2xx");

    let (status, trace) = get(&addr, "/trace?tail=4096");
    assert_eq!(status, 200);
    let got: Vec<&str> = trace.lines().collect();
    assert_eq!(
        got, expected,
        "daemon trace diverged from the one-shot reference"
    );

    handle.shutdown();
    let report = handle.join();
    assert_eq!(report.epochs, EPOCHS);
}

#[test]
fn fault_injected_daemon_trace_matches_oneshot() {
    const EPOCHS: u64 = 25;
    let plan = FaultPlan::parse("seed=9,write=0.08,dropout=0.06").expect("valid fault spec");
    let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, Some(plan)).unwrap();
    let expected = scenario
        .reference_trace(EPOCHS)
        .expect("faulty reference runs");

    let handle = boot_free(&scenario, EPOCHS);
    let addr = handle.addr().to_string();
    wait_for_epochs(&addr, EPOCHS);
    let (status, trace) = get(&addr, "/trace?tail=4096");
    assert_eq!(status, 200);
    let got: Vec<&str> = trace.lines().collect();
    assert_eq!(
        got, expected,
        "fault-injected daemon trace diverged from the one-shot reference"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn reference_trace_is_jobs_invariant() {
    let scenario = scenario(13);
    copart_parallel::set_jobs(Some(1));
    let jobs1 = scenario.reference_trace(12).unwrap();
    copart_parallel::set_jobs(Some(4));
    let jobs4 = scenario.reference_trace(12).unwrap();
    copart_parallel::set_jobs(None);
    assert_eq!(jobs1, jobs4, "worker count must not leak into the trace");
}

#[test]
fn wall_clock_pacing_holds_deadlines_under_load() {
    // A deliberately generous tick for CI machines: a miss means the
    // control thread lagged by more than one full tick (100 ms).
    let cfg = ServeConfig {
        tick: Duration::from_millis(100),
        max_epochs: None,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(&scenario(3), cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    let report = loadgen::run(
        &addr,
        &LoadConfig {
            requests: 2_000,
            concurrency: 8,
        },
    )
    .expect("load generator runs");
    assert_eq!(report.failures, 0);
    assert_eq!(report.ok2xx, 2_000);
    // The load can finish inside the first 100 ms tick; let the pacer
    // tick often enough that one miss is under a tenth of its ticks.
    wait_for_epochs(&addr, 12);

    handle.shutdown();
    let report = handle.join();
    let ticks = report.snapshot.counter("ticks");
    let misses = report.snapshot.counter("epoch_deadline_misses");
    // Bounded, not zero: on a shared two-vCPU CI runner the scheduler can
    // park the control thread for longer than a tick no matter what the
    // daemon does. One such stall is the host's;
    // a control loop that cannot keep its grid under load misses tick
    // after tick.
    assert!(
        misses <= 1 && misses * 10 < ticks,
        "the control loop held its epoch deadlines under load: {misses} misses in {ticks} ticks"
    );
}

/// `GET /status`, parsed; its `epoch` field.
fn status_doc(addr: &str) -> (Json, u64) {
    let (status, body) = get(addr, "/status");
    assert_eq!(status, 200);
    let doc = Json::parse(&body).expect("/status is JSON");
    let epoch = doc.get("epoch").and_then(Json::as_u64).expect("epoch");
    (doc, epoch)
}

/// Whether `/status` shows the LFOC engine with the layout it programmed:
/// members of one cluster carry the identical CAT mask.
fn shares_a_mask(doc: &Json) -> bool {
    assert_eq!(doc.get("policy").and_then(Json::as_str), Some("LFOC"));
    let masks: Vec<&str> = doc
        .get("apps")
        .and_then(Json::as_arr)
        .expect("apps array")
        .iter()
        .map(|a| a.get("mask").and_then(Json::as_str).expect("mask"))
        .collect();
    let distinct: std::collections::BTreeSet<&str> = masks.iter().copied().collect();
    distinct.len() < masks.len()
}

/// The control thread survived planning under the LFOC engine. Health
/// asks for an epoch within the last max(2 × tick, 50 ms), and a policy
/// switch re-profiles inside the loop long enough to miss that window,
/// so this is a liveness check: it waits for a healthy answer rather
/// than trusting the one the clock lands on.
fn assert_healthy(addr: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let healthy = get(addr, "/healthz").0 == 200
            && get(addr, "/metrics")
                .1
                .lines()
                .any(|l| l.trim() == "copart_healthy 1");
        if healthy {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "the control thread is no longer healthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// FNV-1a of the `/status` body at the lfoc test's epoch cap — generated
/// before `/status` moved onto the streaming writer, and unchanged by it.
/// Bless an intentional change with `UPDATE_STATUS_DIGEST=1 cargo test
/// --test serve_api lfoc_daemon -- --nocapture`.
const LFOC_STATUS_AT_CAP: u64 = 0xac63a598c13f785e;

#[test]
fn lfoc_daemon_reports_the_shared_masks_it_programmed() {
    const CAP: u64 = 40;
    // H-LLC settles on a plan with a three-member cluster (H-Both keeps
    // flipping between a plan that shares a mask and one that does not).
    let lfoc = Scenario::new(MixKind::HighLlc, 4, PolicyKind::LfocCluster, 7, None).unwrap();
    let handle = boot_free(&lfoc, CAP);
    let addr = handle.addr().to_string();
    // The first cluster plan lands within a few epochs; a control thread
    // that dies publishing it never reaches the cap. A free run from boot
    // is deterministic, so the status at the cap is a pinned sample. The
    // epoch counter ticks inside the epoch and the status is published
    // after it, so wait for the status itself to reach the cap.
    wait_for_epochs(&addr, CAP);
    let deadline = Instant::now() + Duration::from_secs(120);
    let (doc, body) = loop {
        let (status, body) = get(&addr, "/status");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("/status is JSON");
        if doc.get("epoch").and_then(Json::as_u64) == Some(CAP) {
            break (doc, body);
        }
        assert!(Instant::now() < deadline, "/status never reached the cap");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(shares_a_mask(&doc), "no two apps share a cluster mask");
    let digest = copart_telemetry::fnv1a64(body.as_bytes());
    if std::env::var("UPDATE_STATUS_DIGEST").is_ok_and(|v| !v.is_empty() && v != "0") {
        println!("const LFOC_STATUS_AT_CAP: u64 = {digest:#018x};");
    } else {
        assert_eq!(digest, LFOC_STATUS_AT_CAP, "/status at the cap: {body}");
    }
    assert_healthy(&addr);
    handle.shutdown();
    assert_eq!(handle.join().epochs, CAP);
}

#[test]
fn live_switch_to_lfoc_keeps_the_daemon_alive() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(2),
        max_epochs: None,
        ..ServeConfig::default()
    };
    let copart = Scenario::new(MixKind::HighLlc, 4, PolicyKind::CoPart, 7, None).unwrap();
    let handle = copart_serve::serve_scenario(&copart, cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    wait_for_epochs(&addr, 5);
    let (status, body) = loadgen::fetch(&addr, "POST", "/policy", "{\"policy\":\"lfoc\"}").unwrap();
    assert_eq!(status, 200, "policy switch: {body}");
    // The switch lands on whatever epoch the wall clock picked, so the
    // hard assertions are the epoch-independent ones: the control thread
    // keeps planning and publishing under the new engine.
    let target = status_doc(&addr).1 + 25;
    wait_for_epochs(&addr, target);
    assert_healthy(&addr);
    // Shared masks are the engine's steady state, not a property of any
    // one epoch (a re-exploration resets the layout for a few): poll until
    // a sample shows them rather than trusting the one the clock lands on.
    let deadline = Instant::now() + Duration::from_secs(120);
    while !shares_a_mask(&status_doc(&addr).0) {
        assert!(
            Instant::now() < deadline,
            "no two apps ever shared a cluster mask"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_healthy(&addr);
    handle.shutdown();
    assert!(handle.join().epochs >= target);
}

/// A healthy daemon on a slow grid answers `/healthz` with 200 on every
/// probe: health is judged against the tick, not a fixed timer.
#[test]
fn slow_tick_daemon_is_healthy_on_every_probe() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(200),
        max_epochs: None,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(&scenario(6), cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    let unhealthy: Vec<usize> = (0..40)
        .filter(|_| {
            std::thread::sleep(Duration::from_millis(50));
            get(&addr, "/healthz").0 != 200
        })
        .collect();
    handle.shutdown();
    let report = handle.join();
    assert!(report.epochs >= 5, "only {} epochs in 2 s", report.epochs);
    assert_eq!(
        unhealthy.len(),
        0,
        "/healthz answered 503 on {} of 40 probes",
        unhealthy.len()
    );
}

/// Every counter and gauge a daemon leaves in its registry, under each
/// dynamic policy, with faults, churn, a trace directory, persistence
/// and a restart, is in the series table with its kind, so it survives a
/// snapshot (its name interns) and has its own `# HELP` line; so is
/// every other series `/metrics` exposes.
#[test]
fn every_emitted_series_is_internable_and_documented() {
    let dir = std::env::temp_dir().join(format!("copart-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::parse("seed=3,write=0.05,dropout=0.05").expect("valid fault spec");
    let mut exposed = Vec::new();
    let mut registered = std::collections::BTreeSet::new();
    for policy in [
        PolicyKind::CatOnly,
        PolicyKind::MbaOnly,
        PolicyKind::CoPart,
        PolicyKind::LfocCluster,
    ] {
        let faults = (policy == PolicyKind::CoPart).then(|| plan.clone());
        let scenario = Scenario::new(MixKind::HighBoth, 4, policy, 5, faults).unwrap();
        let state = dir.join(format!("{policy:?}"));
        for (boot, cap) in [(0, 20), (1, 30)] {
            let cfg = ServeConfig {
                tick: Duration::ZERO,
                max_epochs: Some(cap),
                trace_dir: Some(state.join("trace")),
                trace_file_events: 8,
                state_dir: Some(state.join("state")),
                snapshot_every: 4,
                ..ServeConfig::default()
            };
            let handle = copart_serve::serve_scenario(&scenario, cfg).expect("daemon boots");
            let addr = handle.addr().to_string();
            wait_for_epochs(&addr, cap);
            if boot == 0 {
                for (method, path, body) in [
                    ("DELETE", "/apps/2", ""),
                    ("POST", "/apps", "{\"bench\":\"EP\"}"),
                    ("POST", "/apps", "not json"),
                    ("POST", "/snapshot", ""),
                ] {
                    loadgen::fetch(&addr, method, path, body).expect("request answers");
                }
            }
            let (_, text) = get(&addr, "/metrics");
            for sample in parse_prometheus(&text).expect("/metrics parses") {
                let (name, kind) = series_name(&sample.name);
                exposed.push((name.to_string(), kind));
            }
            handle.shutdown();
            let snap = handle.join().snapshot;
            registered.extend(snap.counters.iter().map(|&(n, _)| (n, true)));
            registered.extend(snap.gauges.iter().map(|&(n, _)| (n, false)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for required in [
        "cluster_replans",
        "clusters",
        "recoveries",
        "trace_rotations",
    ] {
        assert!(
            registered.iter().any(|&(n, _)| n == required),
            "no run emitted {required}"
        );
    }
    let kind_of = |name: &str| {
        SERIES
            .iter()
            .find(|&&(series, ..)| series == name)
            .map(|&(_, kind, _)| kind)
    };
    for (name, counter) in registered {
        let kind = if counter {
            SeriesKind::Counter
        } else {
            SeriesKind::Gauge
        };
        assert_eq!(kind_of(name), Some(kind), "{name} is lost on resume");
    }
    for (name, kind) in exposed {
        assert_eq!(
            kind_of(&name),
            Some(kind),
            "{name} is not in the series table"
        );
    }
}

/// The registry name and kind behind an exposed Prometheus sample.
fn series_name(exposed: &str) -> (&str, SeriesKind) {
    let name = exposed
        .strip_prefix("copart_")
        .expect("every series is prefixed");
    if let Some(counter) = name.strip_suffix("_total") {
        return (counter, SeriesKind::Counter);
    }
    ["_bucket", "_sum", "_count"]
        .iter()
        .find_map(|suffix| name.strip_suffix(suffix))
        .map_or((name, SeriesKind::Gauge), |hist| {
            (hist, SeriesKind::Histogram)
        })
}

#[test]
fn shutdown_drains_at_an_epoch_boundary() {
    let cfg = ServeConfig {
        tick: Duration::from_millis(20),
        max_epochs: None,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(&scenario(5), cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    wait_for_epochs(&addr, 3);
    // The wire-level kill: POST /shutdown, then drain.
    let (status, _) = loadgen::fetch(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let report = handle.join();
    // Every epoch the daemon *started* also finished and was recorded:
    // the attempt count equals the runtime's completed-epoch counter, so
    // the drain happened on an epoch boundary, never mid-epoch.
    assert!(report.epochs >= 3);
    assert_eq!(report.epochs, report.snapshot.counter("epochs"));
}

/// Epochs that overrun every tick still leave room for commands: a
/// 1 µs grid is late before each epoch starts, and mutations must answer
/// at once rather than wait for a tick with time to spare.
#[test]
fn commands_answer_while_every_epoch_overruns() {
    let cfg = ServeConfig {
        tick: Duration::from_micros(1),
        max_epochs: None,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(&scenario(3), cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    wait_for_epochs(&addr, 5);
    for (method, path, body, expected) in [
        ("DELETE", "/apps/2", "", 200),
        ("POST", "/policy", "{\"policy\":\"mba-only\"}", 200),
    ] {
        let started = Instant::now();
        let (status, reply) = loadgen::fetch(&addr, method, path, body).unwrap();
        let took = started.elapsed();
        assert_eq!(status, expected, "{method} {path}: {reply}");
        assert!(
            took < Duration::from_secs(1),
            "{method} {path} took {took:?} behind overrunning epochs"
        );
    }
    let misses = get(&addr, "/metrics")
        .1
        .lines()
        .find_map(|l| l.strip_prefix("copart_epoch_deadline_misses_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("the miss counter is exposed");
    assert!(misses > 0, "a 1 µs tick is overrun");
    handle.shutdown();
    handle.join();
}

/// The flight recorder serves the lines the trace files hold: after the
/// epoch cap, `GET /trace?tail=N` is byte for byte the last N lines of
/// the rotating files, and the whole ring is the whole trace.
#[test]
fn trace_tail_is_the_rotating_files_last_lines() {
    let dir = std::env::temp_dir().join(format!("copart-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig {
        tick: Duration::ZERO,
        max_epochs: Some(40),
        trace_dir: Some(dir.clone()),
        trace_file_events: 16,
        ..ServeConfig::default()
    };
    let handle = copart_serve::serve_scenario(&scenario(11), cfg).expect("daemon boots");
    let addr = handle.addr().to_string();
    wait_for_epochs(&addr, 40);
    let (status, tail) = get(&addr, "/trace?tail=20");
    assert_eq!(status, 200);
    let (status, whole) = get(&addr, "/trace?tail=4096");
    assert_eq!(status, 200);
    // Shutdown flushes the open file.
    handle.shutdown();
    handle.join();
    let files: String = (0..)
        .map_while(|i| std::fs::read_to_string(dir.join(format!("trace-{i:04}.jsonl"))).ok())
        .collect();
    let lines: Vec<&str> = files.split_inclusive('\n').collect();
    assert!(lines.len() > 32, "the trace spans three files");
    assert_eq!(tail, lines[lines.len() - 20..].concat());
    assert_eq!(whole, files);
    let _ = std::fs::remove_dir_all(&dir);
}
