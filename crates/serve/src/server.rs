//! The daemon's TCP front end: listener, fixed HTTP worker pool, request
//! router, and the graceful-shutdown protocol.
//!
//! Threads and ownership:
//!
//! * the **accept thread** polls a non-blocking listener and queues
//!   connections onto a bounded channel (full queue → immediate 503),
//! * a fixed pool of **HTTP workers** parses requests ([`crate::http`])
//!   and routes them — reads are answered from shared structures,
//!   mutations become [`Command`]s for the control thread,
//! * the **control thread** ([`crate::daemon`]) is the only one touching
//!   the runtime,
//! * the **background ticker** ([`crate::workers`]) runs the periodic
//!   jobs.
//!
//! Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) drains in
//! order: stop accepting, finish in-flight requests, then stop the
//! control loop at an epoch boundary and flush the trace.

use crate::daemon::{
    spawn_control, ApiResult, Command, ControlHandle, DaemonConfig, Gateway, ServeBackend,
};
use crate::http::{self, ReadOutcome, Request, Response};
use crate::persist::{recover_sim, PersistConfig, PersistedRun, Recovered};
use crate::prometheus;
use crate::scenario::{profile_with_retries, Scenario, ScenarioEnv, PROFILE_ATTEMPTS};
use crate::trace::{RotatingJsonl, SharedRing, TeeRecorder};
use crate::workers::{HealthCheckWorker, TraceReplayWorker, TraceRotateWorker, Worker, WorkerPool};
use copart_core::runtime::ConsolidationRuntime;
use copart_telemetry::{Json, MetricsRegistry, MetricsSnapshot, Recorder};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server configuration. The default binds an ephemeral localhost port,
/// paces epochs at 25 ms, and keeps a 4096-event flight recorder.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Wall-clock epoch spacing; `Duration::ZERO` selects free-run.
    pub tick: Duration,
    /// Stop running epochs (but keep serving) after this many.
    pub max_epochs: Option<u64>,
    /// HTTP worker threads (= concurrently served connections).
    pub http_threads: usize,
    /// Cap on request bodies, bytes.
    pub max_body: usize,
    /// Accepted connections queued ahead of the pool before 503.
    pub queue: usize,
    /// Flight-recorder capacity, events.
    pub ring_capacity: usize,
    /// Directory for rotating JSONL trace files (`None` disables the
    /// file sink).
    pub trace_dir: Option<PathBuf>,
    /// Events per trace file before the rotate worker switches files.
    pub trace_file_events: u64,
    /// Background-worker tick interval.
    pub worker_interval: Duration,
    /// State directory for crash-safe snapshots and event logs (`None`
    /// disables persistence). [`serve_scenario`] recovers from it when
    /// it already holds a usable snapshot.
    pub state_dir: Option<PathBuf>,
    /// Epochs between automatic snapshots (0 = only explicit
    /// `POST /snapshot` requests).
    pub snapshot_every: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            tick: Duration::from_millis(25),
            max_epochs: None,
            http_threads: 8,
            max_body: http::DEFAULT_MAX_BODY,
            queue: 128,
            ring_capacity: 4096,
            trace_dir: None,
            trace_file_events: 10_000,
            worker_interval: Duration::from_millis(50),
            state_dir: None,
            snapshot_every: 64,
        }
    }
}

/// What a finished daemon reports.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Epochs the control loop ran.
    pub epochs: u64,
    /// Final state of every metric.
    pub snapshot: MetricsSnapshot,
}

/// A running daemon: address, shutdown trigger, and join.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_join: Option<JoinHandle<()>>,
    http_joins: Vec<JoinHandle<()>>,
    control: Option<ControlHandle>,
    workers: Option<WorkerPool>,
    rotating: Option<RotatingJsonl>,
    metrics: Arc<copart_telemetry::MetricsRegistry>,
}

impl ServerHandle {
    /// The bound listen address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to drain and stop, like `POST /shutdown`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits for shutdown to be requested (over the wire or via
    /// [`ServerHandle::shutdown`]), drains, and reports.
    pub fn join(mut self) -> ServeReport {
        if let Some(accept) = self.accept_join.take() {
            let _ = accept.join();
        }
        for join in self.http_joins.drain(..) {
            let _ = join.join();
        }
        let mut epochs = 0;
        if let Some(control) = self.control.take() {
            let (tx, rx) = mpsc::sync_channel(1);
            if control
                .commands
                .send(Command::Shutdown { reply: tx })
                .is_ok()
            {
                if let Ok(n) = rx.recv_timeout(Duration::from_secs(30)) {
                    epochs = n;
                }
            }
            control.join();
        }
        if let Some(workers) = self.workers.take() {
            workers.shutdown();
        }
        if let Some(rotating) = self.rotating.take() {
            if let Err(e) = rotating.flush() {
                eprintln!("copart serve: flushing rotating trace: {e}");
            }
        }
        ServeReport {
            epochs,
            snapshot: self.metrics.snapshot(),
        }
    }
}

/// Builds the scenario's runtime and starts the daemon over it. With
/// [`ServeConfig::state_dir`] set and a usable snapshot in it, the
/// daemon recovers — restores the snapshot, replays the event-log tail —
/// and continues the dead process's run instead of starting over.
///
/// # Errors
///
/// Fails when the scenario cannot be built, the state directory holds
/// another run's state, profiling does not survive the fault plan, or
/// the listen address cannot be bound.
pub fn serve_scenario(scenario: &Scenario, cfg: ServeConfig) -> Result<ServerHandle, String> {
    if let Some(dir) = &cfg.state_dir {
        if let Some(rec) = recover_sim(scenario, dir, cfg.snapshot_every)? {
            return serve_recovered(rec, cfg);
        }
    }
    let env = scenario.env();
    serve(scenario.build(&env)?, env, cfg)
}

/// The trace sinks and background jobs a daemon boots with, fresh or
/// recovered.
struct Sinks {
    ring: SharedRing,
    rotating: Option<RotatingJsonl>,
    background: Vec<Box<dyn Worker>>,
    recorder: Box<dyn Recorder + Send>,
}

/// Builds the flight recorder, the optional file sink, and the workers
/// that watch them. `resume_below` reopens the file sink truncated to
/// trace events below the restored snapshot's epoch (replay re-emits
/// the rest); the in-memory ring always starts empty.
fn build_sinks(
    cfg: &ServeConfig,
    metrics: &Arc<MetricsRegistry>,
    resume_below: Option<u64>,
) -> Result<Sinks, String> {
    let ring = SharedRing::new(cfg.ring_capacity.max(1));
    let mut background: Vec<Box<dyn Worker>> = vec![
        Box::new(HealthCheckWorker::new(Arc::clone(metrics), cfg.max_epochs)),
        Box::new(TraceReplayWorker::new(ring.clone(), Arc::clone(metrics))),
    ];
    let mut rotating = None;
    let recorder: Box<dyn Recorder + Send> = match &cfg.trace_dir {
        None => Box::new(ring.clone()),
        Some(dir) => {
            let sink = match resume_below {
                None => RotatingJsonl::create(dir, "trace", cfg.trace_file_events),
                Some(cut) => RotatingJsonl::resume(dir, "trace", cfg.trace_file_events, cut),
            }
            .map_err(|e| format!("cannot open trace dir {}: {e}", dir.display()))?;
            background.push(Box::new(TraceRotateWorker::new(
                sink.clone(),
                Arc::clone(metrics),
            )));
            rotating = Some(sink.clone());
            Box::new(TeeRecorder::new(Box::new(ring.clone()), Box::new(sink)))
        }
    };
    Ok(Sinks {
        ring,
        rotating,
        background,
        recorder,
    })
}

fn check_pacing(cfg: &ServeConfig) -> Result<(), String> {
    if cfg.tick.is_zero() && cfg.max_epochs.is_none() {
        return Err("free-run (tick 0) needs --epochs, or the loop would spin forever".into());
    }
    Ok(())
}

/// Starts the daemon over an already-built (not yet profiled) runtime.
///
/// # Errors
///
/// Fails when profiling fails, the trace directory cannot be created,
/// or the listen address cannot be bound.
pub fn serve<B: ServeBackend>(
    mut runtime: ConsolidationRuntime<B>,
    env: ScenarioEnv,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    check_pacing(&cfg)?;
    let metrics = runtime.metrics_handle();
    let sinks = build_sinks(&cfg, &metrics, None)?;
    runtime.set_recorder(sinks.recorder);
    profile_with_retries(&mut runtime, PROFILE_ATTEMPTS)?;
    let mut run = PersistedRun::new(runtime, env);
    if let Some(dir) = cfg.state_dir.clone() {
        run.enable_persistence(PersistConfig {
            dir,
            snapshot_every: cfg.snapshot_every,
        })?;
    }
    serve_run(run, cfg, sinks.ring, sinks.rotating, sinks.background)
}

/// Starts the daemon over a restored-but-not-yet-replayed run: attaches
/// the (resume-truncated) trace sinks, replays the event-log tail
/// through them, and serves the continued run.
fn serve_recovered<B: ServeBackend>(
    mut rec: Recovered<B>,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    check_pacing(&cfg)?;
    let metrics = rec.metrics_handle();
    let sinks = build_sinks(&cfg, &metrics, Some(rec.snapshot_epoch()))?;
    rec.set_recorder(sinks.recorder);
    let run = rec.replay(true)?;
    serve_run(run, cfg, sinks.ring, sinks.rotating, sinks.background)
}

/// The shared back half of both boot paths: spawn the control thread,
/// the worker pool, and the HTTP front end over a ready [`PersistedRun`].
fn serve_run<B: ServeBackend>(
    run: PersistedRun<B>,
    cfg: ServeConfig,
    ring: SharedRing,
    rotating: Option<RotatingJsonl>,
    background: Vec<Box<dyn Worker>>,
) -> Result<ServerHandle, String> {
    let metrics = run.runtime().metrics_handle();
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let control = spawn_control(
        run,
        DaemonConfig {
            tick: cfg.tick,
            max_epochs: cfg.max_epochs,
        },
        cmd_rx,
        cmd_tx.clone(),
    );
    let workers = WorkerPool::spawn(background, cfg.worker_interval, Arc::clone(&metrics));

    let listener =
        TcpListener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("cannot configure the listener: {e}"))?;

    // Prime the HTTP counters so /metrics exposes them as 0 from boot.
    for name in [
        "http_requests",
        "http_responses_2xx",
        "http_responses_4xx",
        "http_responses_5xx",
        "http_rejected_overload",
    ] {
        metrics.add(name, 0);
    }

    let shutdown = Arc::new(AtomicBool::new(false));
    let gateway = Arc::new(Gateway {
        metrics: Arc::clone(&metrics),
        ring,
        status: Arc::clone(&control.status),
        commands: cmd_tx,
    });

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.queue.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let mut http_joins = Vec::with_capacity(cfg.http_threads.max(1));
    for i in 0..cfg.http_threads.max(1) {
        let rx = Arc::clone(&conn_rx);
        let gw = Arc::clone(&gateway);
        let stop = Arc::clone(&shutdown);
        let max_body = cfg.max_body;
        let join = std::thread::Builder::new()
            .name(format!("copart-http-{i}"))
            .spawn(move || http_worker(&rx, &gw, &stop, max_body))
            .map_err(|e| format!("spawning HTTP worker: {e}"))?;
        http_joins.push(join);
    }
    let accept_stop = Arc::clone(&shutdown);
    let accept_metrics = Arc::clone(&metrics);
    let accept_join = std::thread::Builder::new()
        .name("copart-accept".into())
        .spawn(move || accept_loop(&listener, &conn_tx, &accept_stop, &accept_metrics))
        .map_err(|e| format!("spawning the accept thread: {e}"))?;

    Ok(ServerHandle {
        addr,
        shutdown,
        accept_join: Some(accept_join),
        http_joins,
        control: Some(control),
        workers: Some(workers),
        rotating,
        metrics,
    })
}

/// Polls the non-blocking listener, queueing connections for the pool
/// and answering 503 directly when the queue is full.
fn accept_loop(
    listener: &TcpListener,
    conn_tx: &mpsc::SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    metrics: &copart_telemetry::MetricsRegistry,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                // Request/response over keep-alive: Nagle + delayed ACK
                // would add ~40 ms to every round trip.
                let _ = stream.set_nodelay(true);
                match conn_tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        metrics.inc("http_rejected_overload");
                        let mut resp = Response::error(503, "server is at connection capacity");
                        resp.close = true;
                        let _ = resp.write_to(&mut stream);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    // Dropping conn_tx disconnects the pool: workers drain the queue,
    // finish their in-flight request, and exit.
}

/// One pool thread: serves queued connections until the queue closes.
fn http_worker(
    conn_rx: &Mutex<Receiver<TcpStream>>,
    gateway: &Gateway,
    shutdown: &AtomicBool,
    max_body: usize,
) {
    loop {
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => serve_connection(stream, gateway, shutdown, max_body),
            Err(_) => return,
        }
    }
}

/// Serves one (keep-alive) connection to completion.
fn serve_connection(stream: TcpStream, gateway: &Gateway, shutdown: &AtomicBool, max_body: usize) {
    // The read timeout doubles as the keep-alive poll interval, so an
    // idle connection notices shutdown within ~250 ms.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, max_body) {
            Ok(ReadOutcome::Closed) => return,
            Ok(ReadOutcome::Idle) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(ReadOutcome::Request(req)) => {
                gateway.metrics.inc("http_requests");
                let mut resp = route(&req, gateway, shutdown);
                if !req.keep_alive || shutdown.load(Ordering::SeqCst) {
                    resp.close = true;
                }
                count_response(gateway, resp.status);
                if resp.write_to(&mut writer).is_err() || resp.close {
                    return;
                }
            }
            Err(e) => {
                let status = e.status();
                if status == 0 {
                    return;
                }
                gateway.metrics.inc("http_requests");
                count_response(gateway, status);
                let mut resp = Response::error(status, &e.to_string());
                resp.close = true;
                let _ = resp.write_to(&mut writer);
                return;
            }
        }
    }
}

fn count_response(gateway: &Gateway, status: u16) {
    match status / 100 {
        2 => gateway.metrics.inc("http_responses_2xx"),
        4 => gateway.metrics.inc("http_responses_4xx"),
        5 => gateway.metrics.inc("http_responses_5xx"),
        _ => {}
    }
}

/// Routes one request. Reads are answered in place; mutations round-trip
/// through the control thread.
fn route(req: &Request, gateway: &Gateway, shutdown: &AtomicBool) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => {
            let mut resp = Response::text(200, prometheus::render(&gateway.metrics.snapshot()));
            resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
            resp
        }
        ("GET", "/status") => {
            let status = gateway
                .status
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone();
            Response::json(200, status)
        }
        ("GET", "/healthz") => {
            // Unset means the first health check has not run yet; treat
            // a booting daemon as live.
            if gateway.metrics.gauge("healthy").unwrap_or(1.0) > 0.0 {
                Response::text(200, "ok\n")
            } else {
                Response::error(503, "control loop is stalled")
            }
        }
        ("GET", "/trace") => {
            let tail = match req.query_param("tail").map(str::parse::<usize>) {
                None => 32,
                Some(Ok(n)) => n,
                Some(Err(_)) => return Response::error(400, "tail must be a non-negative integer"),
            };
            let mut resp = Response::text(200, gateway.ring.tail_jsonl(tail));
            resp.content_type = "application/x-ndjson";
            resp
        }
        ("POST", "/apps") => match body_field(req, "bench") {
            Ok(bench) => roundtrip(gateway, 201, |reply| Command::Admit { bench, reply }),
            Err(resp) => resp,
        },
        ("DELETE", path) if path.starts_with("/apps/") => {
            match path["/apps/".len()..].parse::<u16>() {
                Ok(group) => roundtrip(gateway, 200, |reply| Command::Remove { group, reply }),
                Err(_) => Response::error(400, "the app id must be a group number"),
            }
        }
        ("POST", "/policy") => match body_field(req, "policy") {
            Ok(policy) => roundtrip(gateway, 200, |reply| Command::SetPolicy { policy, reply }),
            Err(resp) => resp,
        },
        ("POST", "/snapshot") => roundtrip(gateway, 200, |reply| Command::Snapshot { reply }),
        ("POST", "/shutdown") => {
            shutdown.store(true, Ordering::SeqCst);
            Response::json(200, "{\"draining\":true}")
        }
        (
            _,
            "/metrics" | "/status" | "/healthz" | "/trace" | "/apps" | "/policy" | "/snapshot"
            | "/shutdown",
        ) => Response::error(405, "method not allowed for this path"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Extracts a required string field from a JSON request body.
fn body_field(req: &Request, field: &str) -> Result<String, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    let doc =
        Json::parse(text).map_err(|e| Response::error(400, &format!("body is not JSON: {e}")))?;
    doc.string(field)
        .map(str::to_string)
        .map_err(|_| Response::error(400, &format!("body needs a string field {field:?}")))
}

/// Sends a command to the control thread and waits for its reply.
fn roundtrip(
    gateway: &Gateway,
    ok_status: u16,
    build: impl FnOnce(mpsc::SyncSender<ApiResult>) -> Command,
) -> Response {
    let (tx, rx) = mpsc::sync_channel(1);
    if gateway.commands.send(build(tx)).is_err() {
        return Response::error(503, "control loop is shutting down");
    }
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Ok(body)) => Response::json(ok_status, body),
        Ok(Err((status, msg))) => Response::error(status, &msg),
        Err(_) => Response::error(504, "control loop did not answer in time"),
    }
}
