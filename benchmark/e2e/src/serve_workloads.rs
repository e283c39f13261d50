//! The daemon workloads: `copart serve` booted as a subprocess and
//! driven over HTTP from this process.
//!
//! `setup_s` is spawn → the `listening on` line, the median over three
//! boots (two boot-and-shutdown probes, then the measured daemon).
//! Paced reads are an **open loop** — each connection sends 1000 req/s
//! on a fixed schedule and every request is timed from when it was due —
//! because dashboards and scrapers do not wait for each other. The
//! throughput phase (four connections) and the admit/remove cycles are
//! **closed loops**: a caller there waits for its reply before sending
//! again.

use crate::child::{Run, Spawned, Stream};
use crate::ctx::{args, timeout_for, Ctx};
use bench_harness::http::Client;
use bench_harness::pacer::{open_loop, Sample, WallClock};
use bench_harness::prom;
use bench_harness::report::Report;
use bench_harness::spec::JOBS;
use bench_harness::stats;
use bench_harness::stats::percentile;
use bench_harness::surfaces::{
    admitted_group, Table2Rotation, PACE, READ_ENDPOINTS as READS, REQUEST_TIMEOUT,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Connections of the closed-loop phase: twice `nproc`. Two ping-ponging
/// connections on two virtual cores leave each core idle between a
/// request and its reply, and whether the scheduler pairs every client
/// with its server thread decides the rate: 8 000 to 18 000 req/s from
/// run to run on the sandbox. Four keep both cores busy (15 000 to
/// 19 000).
const CLOSED_LOOP_CONNECTIONS: usize = 2 * JOBS;

/// A booted daemon.
struct Daemon {
    child: Spawned,
    addr: String,
    ready_s: f64,
}

/// Boots `copart serve` at the benchmark's fixed shape and waits for its
/// address. A daemon that never listens is a failed operation (and is
/// killed when its handle drops).
fn boot(ctx: &Ctx, r: &mut Report, label: &str) -> Option<Daemon> {
    let argv = args(&[
        "serve",
        "--mix",
        "h-both",
        "--policy",
        "copart",
        "--apps",
        "4",
        "--tick-ms",
        "25",
        "--seed",
        &ctx.seed.to_string(),
        "--port",
        "0",
    ]);
    let booted = Spawned::spawn(&ctx.copart, &argv, &ctx.dir, label)
        .map_err(|e| format!("{label}: cannot spawn: {e}"))
        .and_then(|mut child| {
            let (ready_s, line) = child
                .wait_for_line(Stream::Out, "listening on http://", timeout_for(3.0))
                .ok_or(format!("{label}: daemon never published its address"))?;
            let addr = line
                .rsplit("http://")
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            Ok(Daemon {
                child,
                addr,
                ready_s,
            })
        });
    r.check(booted.is_ok(), || {
        booted.as_ref().err().cloned().unwrap_or_default()
    });
    booted.ok()
}

/// `POST /shutdown`, then waits for the drain and the exit.
fn shutdown(daemon: Daemon, r: &mut Report) -> Run {
    let reply = Client::new(&daemon.addr, REQUEST_TIMEOUT).request("POST", "/shutdown", "");
    r.check(reply.as_ref().is_ok_and(|resp| resp.ok()), || {
        format!("POST /shutdown failed: {reply:?}")
    });
    // The timeout counts from spawn; the drain itself takes well under
    // a second.
    let limit = Duration::from_secs_f64(daemon.child.elapsed_s()) + timeout_for(1.0);
    let run = daemon.child.wait(limit);
    r.check(run.ok, || run.failure.clone().unwrap_or_default());
    run
}

/// Boot-and-shutdown probes plus the daemon to measure; `setup_s` is the
/// median boot.
fn boot_measured(ctx: &Ctx, r: &mut Report) -> Option<Daemon> {
    let mut boots = Vec::new();
    for i in 0..if ctx.quick { 0 } else { 2 } {
        if let Some(probe) = boot(ctx, r, &format!("probe{i}")) {
            boots.push(probe.ready_s);
            shutdown(probe, r);
        }
    }
    let daemon = boot(ctx, r, "serve");
    boots.extend(daemon.as_ref().map(|d| d.ready_s));
    r.put_user("setup_s", stats::median(&boots), boots.len());
    daemon
}

/// One read request; the response must be 2xx and look like what the
/// endpoint serves.
fn read_ok(client: &mut Client, path: &str) -> bool {
    let Ok(resp) = client.request("GET", path, "") else {
        return false;
    };
    let body = String::from_utf8_lossy(&resp.body);
    resp.ok()
        && match path {
            "/status" => body.contains("\"epoch\""),
            // Primed at boot, unlike the loop's own counters.
            "/metrics" => body.contains("copart_http_requests_total "),
            _ => body.lines().count() <= 4 && body.lines().all(|l| l.starts_with('{')),
        }
}

/// What a `/metrics` scrape says about the control loop.
#[derive(Debug, Clone, Copy)]
struct LoopCounters {
    at: Instant,
    epochs: f64,
    ticks: f64,
    misses: f64,
}

fn scrape(addr: &str, r: &mut Report) -> Option<LoopCounters> {
    let resp = Client::new(addr, REQUEST_TIMEOUT).request("GET", "/metrics", "");
    let at = Instant::now();
    let counters = resp.ok().filter(|resp| resp.ok()).map(|resp| {
        let text = resp.text();
        // A counter the loop has not touched yet (the first tick comes
        // 25 ms after boot) is not exposed; that reads as zero.
        let counter = |name: &str| prom::value(&text, name).unwrap_or(0.0);
        LoopCounters {
            at,
            epochs: counter("copart_epochs_total"),
            ticks: counter("copart_ticks_total"),
            misses: counter("copart_epoch_deadline_misses_total"),
        }
    });
    r.check(counters.is_some(), || "/metrics scrape failed".to_string());
    counters
}

/// Keeps the daemon's `/proc` entry polled while load threads run, then
/// joins them.
fn poll_until_joined<T>(daemon: &mut Daemon, handles: Vec<ScopedJoinHandle<'_, T>>) -> Vec<T> {
    while !handles.iter().all(|h| h.is_finished()) {
        daemon.child.poll();
        std::thread::sleep(Duration::from_millis(5));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("load thread panicked"))
        .collect()
}

/// Reports the paced reads: `req_ms_p50`, `req_ms_p99`, and how late the
/// generator itself ran.
fn put_paced(r: &mut Report, samples: &[Sample]) {
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    r.count(samples.len() as u64, failed, "paced reads");
    let ms = |of: fn(&Sample) -> Duration| -> Vec<f64> {
        samples.iter().map(|s| of(s).as_secs_f64() * 1e3).collect()
    };
    let latency = ms(Sample::latency);
    r.put_user("req_ms_p50", percentile(&latency, 50.0), latency.len());
    r.put_user("req_ms_p99", percentile(&latency, 99.0), latency.len());
    if let Some(p99) = percentile(&ms(Sample::lateness), 99.0) {
        r.note(format!("pacer sent late by p99 {p99:.3} ms"));
    }
}

/// Reports what both daemon workloads read off the control loop and the
/// daemon process.
fn put_daemon(
    r: &mut Report,
    before: Option<LoopCounters>,
    after: Option<LoopCounters>,
    run: &Run,
) {
    let rate = before.zip(after).and_then(|(a, b)| {
        let dt = b.at.duration_since(a.at).as_secs_f64();
        (dt > 0.0).then(|| (b.epochs - a.epochs) / dt)
    });
    // The loop is paced at 25 ms, so this reads ~40/s while the control
    // thread holds its grid and drops when it is blocked or late.
    r.put_user("epochs_per_s", rate, 1);
    r.put_user(
        "deadline_miss_ratio",
        after.map(|c| c.misses / c.ticks.max(1.0)),
        after.map_or(0, |c| c.ticks as usize),
    );
    r.put_user("wall_s", Some(run.wall_s), 1);
    r.put_user("cpu_s", run.proc.cpu_s, 1);
    r.put_user(
        "peak_rss_mb",
        run.proc.hwm_kb.map(|kb| kb as f64 / 1024.0),
        1,
    );
    if let Some(line) = run.stdout.lines().find(|l| l.contains("drained")) {
        r.note(line.trim().to_string());
    }
}

/// Workload 5, `serve_reads`: the read API under load.
pub fn serve_reads(ctx: &Ctx) -> Report {
    let mut r = ctx.report("serve_reads");
    let Some(mut daemon) = boot_measured(ctx, &mut r) else {
        return r;
    };
    let addr = daemon.addr.clone();
    // Both phases are sized by the measuring budget: half of it paced
    // (5 s at the default 10), a quarter of it closed loop (2.5 s, about
    // 40 000 requests). The closed loop is bounded by time, not by count,
    // so that its rate lands in `req_per_s` alone and not in `wall_s`.
    let budget_s = if ctx.quick { 0.6 } else { ctx.seconds };
    let paced_per_conn = (budget_s / 2.0 / PACE.as_secs_f64()) as usize;
    let closed_for = Duration::from_secs_f64(budget_s / 4.0);
    let before = scrape(&addr, &mut r);

    // Phase 1, open loop: JOBS connections x 1000 req/s, staggered so
    // the two schedules interleave; the seed picks where each starts in
    // the rotation.
    let origin = Instant::now();
    let paced: Vec<Sample> = std::thread::scope(|s| {
        let handles = (0..JOBS)
            .map(|k| {
                let addr = &addr;
                let rotate = (ctx.seed as usize).wrapping_add(k);
                s.spawn(move || {
                    let mut client = Client::new(addr, REQUEST_TIMEOUT);
                    open_loop(
                        &WallClock::starting_at(origin),
                        PACE * k as u32 / JOBS as u32,
                        PACE,
                        paced_per_conn,
                        || false,
                        |i| read_ok(&mut client, READS[(i.wrapping_add(rotate)) % READS.len()]),
                    )
                })
            })
            .collect();
        poll_until_joined(&mut daemon, handles).concat()
    });
    put_paced(&mut r, &paced);

    // Phase 2, closed loop: as fast as replies come.
    let started = Instant::now();
    let counts: Vec<(u64, u64)> = std::thread::scope(|s| {
        let handles = (0..CLOSED_LOOP_CONNECTIONS)
            .map(|k| {
                let addr = &addr;
                s.spawn(move || {
                    let mut client = Client::new(addr, REQUEST_TIMEOUT);
                    let (mut sent, mut failed) = (0u64, 0u64);
                    while started.elapsed() < closed_for {
                        let path = READS[(k + sent as usize) % READS.len()];
                        failed += u64::from(!read_ok(&mut client, path));
                        sent += 1;
                    }
                    (sent, failed)
                })
            })
            .collect();
        poll_until_joined(&mut daemon, handles)
    });
    let closed_s = started.elapsed().as_secs_f64();
    let sent: u64 = counts.iter().map(|c| c.0).sum();
    r.count(sent, counts.iter().map(|c| c.1).sum(), "closed-loop reads");
    r.put_user("req_per_s", Some(sent as f64 / closed_s), sent as usize);

    let after = scrape(&addr, &mut r);
    let run = shutdown(daemon, &mut r);
    put_daemon(&mut r, before, after, &run);
    r
}

/// Workload 6, `serve_churn`: writes beside reads through the same daemon.
pub fn serve_churn(ctx: &Ctx) -> Report {
    let mut r = ctx.report("serve_churn");
    let Some(mut daemon) = boot_measured(ctx, &mut r) else {
        return r;
    };
    let addr = daemon.addr.clone();
    let cycles = if ctx.quick { 2 } else { 30 };
    let before = scrape(&addr, &mut r);

    struct Writes {
        admit_ms: Vec<f64>,
        remove_ms: Vec<f64>,
        failed: u64,
    }
    let writer_done = AtomicBool::new(false);
    let origin = Instant::now();
    let (paced, writes) = std::thread::scope(|s| {
        // Connection 1: the paced reads, for as long as the writer runs.
        let reader = s.spawn(|| {
            let mut client = Client::new(&addr, REQUEST_TIMEOUT);
            open_loop(
                &WallClock::starting_at(origin),
                Duration::ZERO,
                PACE,
                usize::MAX >> 1,
                || writer_done.load(Ordering::Acquire),
                |i| read_ok(&mut client, READS[i % READS.len()]),
            )
        });
        // Connection 2: remove the newest app, then admit the next
        // Table-2 benchmark of a rotation the seed starts (remove first:
        // 4 apps x 4 cores fill the machine).
        let writer = s.spawn(|| {
            let mut client = Client::new(&addr, REQUEST_TIMEOUT);
            let mut picks = Table2Rotation::new(ctx.seed);
            let mut last = 4u64;
            let mut w = Writes {
                admit_ms: Vec::new(),
                remove_ms: Vec::new(),
                failed: 0,
            };
            for _ in 0..cycles {
                let t = Instant::now();
                let removed = client.request("DELETE", &format!("/apps/{last}"), "");
                w.remove_ms.push(t.elapsed().as_secs_f64() * 1e3);
                w.failed += u64::from(!removed.is_ok_and(|resp| resp.ok()));

                let bench = picks.next_bench();
                let t = Instant::now();
                let admitted =
                    client.request("POST", "/apps", &format!("{{\"bench\":\"{bench}\"}}"));
                w.admit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match admitted
                    .ok()
                    .filter(|resp| resp.ok())
                    .and_then(|resp| admitted_group(&resp.text()))
                {
                    Some(group) => last = group,
                    None => w.failed += 1,
                }
            }
            // Release pairs with the reader's Acquire: the flag publishes
            // nothing else, but the reader must see it promptly.
            writer_done.store(true, Ordering::Release);
            w
        });
        // The writer is not a ScopedJoinHandle<Vec<Sample>>; poll on the
        // reader (which ends when the writer does) and join both.
        let paced = poll_until_joined(&mut daemon, vec![reader]).concat();
        (paced, writer.join().expect("writer thread panicked"))
    });
    put_paced(&mut r, &paced);
    r.count(2 * cycles as u64, writes.failed, "admit/remove requests");
    let (admit, remove) = (&writes.admit_ms, &writes.remove_ms);
    r.put_user("admit_ms_p50", percentile(admit, 50.0), admit.len());
    r.put_user("remove_ms_p50", percentile(remove, 50.0), remove.len());

    let after = scrape(&addr, &mut r);
    let run = shutdown(daemon, &mut r);
    put_daemon(&mut r, before, after, &run);
    r
}
