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
//!   the runtime; it also rotates the trace (on write), checks the
//!   flight recorder (on record) and publishes the liveness `/healthz`
//!   reads.
//!
//! Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`]) drains in
//! order: stop accepting, finish in-flight requests, then stop the
//! control loop at an epoch boundary and flush the trace.

use crate::daemon::{spawn_control, ApiResult, Command, ControlHandle, DaemonConfig, Gateway};
use crate::http::{self, ReadOutcome, Request, Response};
use crate::prometheus;
use crate::trace::{RotatingJsonl, SharedRing, TeeRecorder};
use copart_core::runtime::ConsolidationRuntime;
use copart_core::{profile_with_retries, NodeBackend};
use copart_persist::{
    recover_sim, PersistConfig, PersistableBackend, PersistedRun, Recovered, Scenario, ScenarioEnv,
    PROFILE_ATTEMPTS,
};
use copart_telemetry::{Json, MetricsRegistry, MetricsSnapshot, Recorder};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// HTTP worker threads (= concurrently served connections).
const HTTP_THREADS: usize = 8;
/// Accepted connections queued ahead of the pool before 503.
const QUEUE: usize = 128;
/// Flight-recorder capacity, events.
const RING_CAPACITY: usize = 4096;

/// Server configuration. The default binds an ephemeral localhost port
/// and paces epochs at 25 ms.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Wall-clock epoch spacing; `Duration::ZERO` selects free-run.
    pub tick: Duration,
    /// Stop running epochs (but keep serving) after this many.
    pub max_epochs: Option<u64>,
    /// Directory for rotating JSONL trace files (`None` disables the
    /// file sink).
    pub trace_dir: Option<PathBuf>,
    /// Events per trace file: the write past a full file opens the next.
    pub trace_file_events: u64,
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
            trace_dir: None,
            trace_file_events: 10_000,
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
    metrics: Arc<MetricsRegistry>,
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

/// The daemon's recorder: the checked flight recorder, teed into the
/// rotating file sink when a trace directory is set. `resume_below`
/// reopens the file sink cut to trace events below the restored
/// snapshot's epoch (replay re-emits the rest); the in-memory ring
/// always starts empty.
fn build_sinks(
    cfg: &ServeConfig,
    metrics: &Arc<MetricsRegistry>,
    resume_below: Option<u64>,
) -> Result<(SharedRing, Box<dyn Recorder + Send>), String> {
    let ring = SharedRing::checked(RING_CAPACITY, Arc::clone(metrics));
    let Some(dir) = &cfg.trace_dir else {
        return Ok((ring.clone(), Box::new(ring)));
    };
    let (cap, metrics) = (cfg.trace_file_events, Arc::clone(metrics));
    let sink = match resume_below {
        None => RotatingJsonl::create(dir, "trace", cap, metrics),
        Some(cut) => RotatingJsonl::resume(dir, "trace", cap, cut, metrics),
    }
    .map_err(|e| format!("cannot open trace dir {}: {e}", dir.display()))?;
    let tee = TeeRecorder::new(Box::new(ring.clone()), Box::new(sink));
    Ok((ring, Box::new(tee)))
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
pub fn serve<B: NodeBackend + PersistableBackend + Send + 'static>(
    mut runtime: ConsolidationRuntime<B>,
    env: ScenarioEnv,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    check_pacing(&cfg)?;
    let (ring, recorder) = build_sinks(&cfg, &runtime.metrics_handle(), None)?;
    runtime.set_recorder(recorder);
    profile_with_retries(&mut runtime, PROFILE_ATTEMPTS)?;
    let mut run = PersistedRun::new(runtime, env);
    if let Some(dir) = cfg.state_dir.clone() {
        run.enable_persistence(PersistConfig {
            dir,
            snapshot_every: cfg.snapshot_every,
        })?;
    }
    serve_run(run, cfg, ring)
}

/// Starts the daemon over a restored-but-not-yet-replayed run: attaches
/// the (resume-truncated) trace sinks, replays the event-log tail
/// through them, and serves the continued run.
fn serve_recovered<B: NodeBackend + PersistableBackend + Send + 'static>(
    mut rec: Recovered<B>,
    cfg: ServeConfig,
) -> Result<ServerHandle, String> {
    check_pacing(&cfg)?;
    let (ring, recorder) = build_sinks(&cfg, &rec.metrics_handle(), Some(rec.snapshot_epoch()))?;
    rec.set_recorder(recorder);
    let run = rec.replay(true)?;
    serve_run(run, cfg, ring)
}

/// The shared back half of both boot paths: spawn the control thread
/// and the HTTP front end over a ready [`PersistedRun`].
fn serve_run<B: NodeBackend + PersistableBackend + Send + 'static>(
    run: PersistedRun<B>,
    cfg: ServeConfig,
    ring: SharedRing,
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
        liveness: Arc::clone(&control.liveness),
        tick: cfg.tick,
        commands: cmd_tx,
    });

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(QUEUE);
    let conn_rx = Arc::new(Mutex::new(conn_rx));
    let mut http_joins = Vec::with_capacity(HTTP_THREADS);
    for i in 0..HTTP_THREADS {
        let rx = Arc::clone(&conn_rx);
        let gw = Arc::clone(&gateway);
        let stop = Arc::clone(&shutdown);
        let join = std::thread::Builder::new()
            .name(format!("copart-http-{i}"))
            .spawn(move || http_worker(&rx, &gw, &stop))
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
        metrics,
    })
}

/// Polls the non-blocking listener, queueing connections for the pool
/// and answering 503 directly when the queue is full.
fn accept_loop(
    listener: &TcpListener,
    conn_tx: &mpsc::SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    metrics: &MetricsRegistry,
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
                        let _ = resp.write_to(&mut stream, &mut Vec::new());
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
fn http_worker(conn_rx: &Mutex<Receiver<TcpStream>>, gateway: &Gateway, shutdown: &AtomicBool) {
    loop {
        let stream = {
            let rx = conn_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        match stream {
            Ok(stream) => serve_connection(stream, gateway, shutdown),
            Err(_) => return,
        }
    }
}

/// Serves one (keep-alive) connection to completion.
fn serve_connection(stream: TcpStream, gateway: &Gateway, shutdown: &AtomicBool) {
    // The read timeout doubles as the keep-alive poll interval, so an
    // idle connection notices shutdown within ~250 ms.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    // One response buffer for the connection's lifetime.
    let mut out = Vec::new();
    loop {
        match http::read_request(&mut reader, http::DEFAULT_MAX_BODY) {
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
                if resp.write_to(&mut writer, &mut out).is_err() || resp.close {
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
                let _ = resp.write_to(&mut writer, &mut out);
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
            let mut snap = gateway.metrics.snapshot();
            let at = snap.gauges.partition_point(|&(name, _)| name < "healthy");
            let healthy = f64::from(u8::from(healthy(gateway)));
            snap.gauges.insert(at, ("healthy", healthy));
            let mut resp = Response::text(200, prometheus::render(&snap));
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
            if healthy(gateway) {
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

/// The health verdict `/healthz` and the `healthy` series share, from
/// the control thread's last published [`Liveness`](crate::daemon::Liveness).
fn healthy(gateway: &Gateway) -> bool {
    let liveness = *gateway.liveness.lock().unwrap_or_else(|e| e.into_inner());
    liveness.healthy(gateway.tick, Instant::now())
}

/// Extracts a required string field from a JSON request body. The body
/// is the client's document, not one this workspace writes, so it is
/// read as a tree: any member order, extra keys ignored.
fn body_field(req: &Request, field: &str) -> Result<String, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::error(400, "body is not UTF-8"))?;
    let doc =
        Json::parse(text).map_err(|e| Response::error(400, &format!("body is not JSON: {e}")))?;
    doc.get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| Response::error(400, &format!("body needs a string field {field:?}")))
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
