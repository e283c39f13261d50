//! The traced `serve_reads` and `serve_churn`: the daemon booted in this
//! process (so its final metrics can be read directly), each route timed
//! alone over one keep-alive connection, and the admission and removal
//! the wire requests end in called directly.

use crate::cx::Cx;
use crate::persist::{build, scenario};
use crate::timing::{once_ns, per_call_ns};
use crate::trace::SpanBackend;
use bench_harness::http::Client;
use bench_harness::pacer::{open_loop, WallClock};
use bench_harness::spec::JOBS;
use bench_harness::stats::{self, percentile};
use bench_harness::surfaces::{
    admitted_group, Table2Rotation, PACE, READ_ENDPOINTS, REQUEST_TIMEOUT,
};
use copart_core::profile_with_retries;
use copart_serve::{
    prometheus, serve_scenario, PersistedRun, ServeConfig, ServeReport, ServerHandle,
};
use copart_telemetry::MetricsRegistry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Boots the daemon at the workload's shape (`--tick-ms 25 --port 0`).
fn boot(cx: &mut Cx) -> ServerHandle {
    let log = cx.log.clone();
    let cfg = ServeConfig {
        tick: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let scenario = scenario(cx.seed);
    let (boot_ns, handle) = log.time("serve.boot", || once_ns(|| serve_scenario(&scenario, cfg)));
    cx.put("serve.boot_ns", boot_ns, 1);
    handle.expect("the daemon boots on an ephemeral port")
}

/// Drains the daemon and reports what its control loop saw.
fn drain(cx: &mut Cx, handle: ServerHandle) -> ServeReport {
    handle.shutdown();
    let report = handle.join();
    let lag = report.snapshot.histogram("tick_lag_ns");
    cx.put(
        "serve.tick_lag_ms_mean",
        lag.map_or(0.0, |h| h.mean_ns() / 1e6),
        lag.map_or(0, |h| h.count() as usize),
    );
    let ticks = report.snapshot.counter("ticks");
    cx.put(
        "serve.deadline_miss_ratio",
        report.snapshot.counter("epoch_deadline_misses") as f64 / ticks.max(1) as f64,
        ticks as usize,
    );
    let spans = cx.log.take();
    cx.absorb(spans);
    report
}

/// Per-route latency, the pacer's own lateness, `/metrics` rendering and
/// the registry increment under one and two threads.
pub fn serve_reads(cx: &mut Cx) {
    let handle = boot(cx);
    let addr = handle.addr().to_string();
    let per_route = if cx.quick { 200 } else { 2000 };

    // `/healthz` touches one gauge: the bare cost of an HTTP round trip.
    let mut client = Client::new(&addr, REQUEST_TIMEOUT);
    for (path, metric) in [
        ("/healthz", "serve.healthz_ms_p50"),
        ("/status", "serve.status_ms_p50"),
        ("/metrics", "serve.metrics_ms_p50"),
        ("/trace?tail=4", "serve.trace_ms_p50"),
    ] {
        let mut failed = 0u64;
        let mut bytes = 0;
        let ms: Vec<f64> = (0..per_route)
            .map(|_| {
                let t = Instant::now();
                match client.request("GET", path, "") {
                    Ok(resp) if resp.ok() => bytes = resp.body.len(),
                    _ => failed += 1,
                }
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        cx.report.count(per_route as u64, failed, path);
        cx.put_opt(metric, percentile(&ms, 50.0), ms.len());
        if path == "/metrics" {
            cx.put("serve.metrics_bytes", bytes as f64, 1);
        }
    }

    // The open-loop generator at the end-to-end run's rate: how late it
    // sends is the harness's own health, not the daemon's.
    let paced_per_conn = if cx.quick { 300 } else { 2000 };
    let origin = Instant::now();
    let samples: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..JOBS)
            .map(|k| {
                let addr = &addr;
                s.spawn(move || {
                    let mut client = Client::new(addr, REQUEST_TIMEOUT);
                    open_loop(
                        &WallClock::starting_at(origin),
                        PACE * k as u32 / JOBS as u32,
                        PACE,
                        paced_per_conn,
                        || false,
                        |i| {
                            client
                                .request("GET", READ_ENDPOINTS[i % READ_ENDPOINTS.len()], "")
                                .is_ok_and(|r| r.ok())
                        },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pacer thread panicked"))
            .collect()
    });
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    cx.report.count(samples.len() as u64, failed, "paced reads");
    let late: Vec<f64> = samples
        .iter()
        .map(|s| s.lateness().as_secs_f64() * 1e3)
        .collect();
    cx.put_opt(
        "bench.pacer_late_ms_p99",
        percentile(&late, 99.0),
        late.len(),
    );

    let report = drain(cx, handle);

    let budget = Duration::from_millis(if cx.quick { 20 } else { 100 });
    let (ns, batches) = per_call_ns(budget, || {
        black_box(prometheus::render(black_box(&report.snapshot)));
    });
    cx.put("serve.render_metrics_ns", ns, batches);

    // The string-keyed, mutex-per-increment registry every layer counts
    // into: alone, and with a second thread counting beside it.
    let registry = MetricsRegistry::new();
    let (ns, batches) = per_call_ns(budget, || registry.inc("bench_probe"));
    cx.put("telemetry.registry_inc_ns_1t", ns, batches);
    let incs: u64 = if cx.quick { 100_000 } else { 1_000_000 };
    let (pair_ns, ()) = once_ns(|| {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| (0..incs).for_each(|_| registry.inc("bench_probe")));
            }
        })
    });
    // Per increment as one of the two threads sees it.
    cx.put(
        "telemetry.registry_inc_ns_2t",
        pair_ns / incs as f64,
        2 * incs as usize,
    );
}

/// The daemon under a few wire admissions, for its tick lag and deadline
/// misses; then `PersistedRun::admit`/`remove` called directly.
pub fn serve_churn(cx: &mut Cx) {
    // The direct drive makes the end-to-end run's 30 cycles with the same
    // picks, so the two medians differ by queue wait alone.
    let (cycles, wire_cycles): (u64, u64) = if cx.quick { (2, 2) } else { (30, 10) };
    let handle = boot(cx);
    let mut client = Client::new(&handle.addr().to_string(), REQUEST_TIMEOUT);
    let mut picks = Table2Rotation::new(cx.seed);
    let mut last = 4u64;
    let mut failed = 0u64;
    for _ in 0..wire_cycles {
        let removed = client.request("DELETE", &format!("/apps/{last}"), "");
        failed += u64::from(!removed.is_ok_and(|r| r.ok()));
        let body = format!("{{\"bench\":\"{}\"}}", picks.next_bench());
        match client.request("POST", "/apps", &body) {
            Ok(resp) if resp.ok() => {
                last = admitted_group(&resp.text()).unwrap_or(last);
            }
            _ => failed += 1,
        }
    }
    cx.report
        .count(2 * wire_cycles, failed, "wire admit/remove requests");
    drain(cx, handle);

    let log = cx.log.clone();
    let scenario = scenario(cx.seed);
    let env = scenario.env();
    let mut rt = build(&scenario, &env, |b| SpanBackend::new(b, log.clone()));
    profile_with_retries(&mut rt, 1).expect("simulator profiling cannot fail");
    let mut run = PersistedRun::new(rt, env);
    let mut picks = Table2Rotation::new(cx.seed);
    let mut last = 4u16;
    let (mut admit_ns, mut remove_ns) = (Vec::new(), Vec::new());
    for cycle in 0..cycles {
        log.set_epoch(cycle);
        // One epoch between cycles, as the daemon's loop manages.
        log.time("epoch", || run.run_epoch())
            .expect("the simulator cannot fail to advance");
        let (ns, removed) = log.time("serve.remove", || once_ns(|| run.remove(last)));
        cx.report.check(removed.is_ok(), || {
            format!("direct removal failed: {removed:?}")
        });
        remove_ns.push(ns);
        let bench = picks.next_bench();
        let (ns, admitted) = log.time("serve.admit", || once_ns(|| run.admit(bench)));
        match admitted {
            Ok(group) => last = group.0,
            Err(e) => cx.report.check(false, || {
                format!("direct admission of {bench} failed: {e:?}")
            }),
        }
        admit_ns.push(ns);
    }
    // The end-to-end admit_ms_p50 minus this is queue wait: the time a
    // wire admission spends waiting for the control thread.
    cx.put_opt("serve.admit_ns", stats::median(&admit_ns), admit_ns.len());
    cx.put_opt(
        "serve.remove_ns",
        stats::median(&remove_ns),
        remove_ns.len(),
    );
}
