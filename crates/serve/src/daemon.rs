//! The control thread: the single owner of the
//! [`ConsolidationRuntime`](copart_core::runtime::ConsolidationRuntime),
//! driving epochs on ticks and serving mutations between them.
//!
//! Determinism is the design constraint. The runtime stays exactly as
//! single-threaded as it is in one-shot runs: every mutating request
//! (admit, remove, policy switch) travels over an mpsc channel and is
//! applied by this thread *between* epochs, and every read either comes
//! from a structure that is safe to share ([`SharedRing`], the metrics
//! registry) or from the status snapshot and [`Liveness`] this thread
//! republishes after each epoch. Concurrent HTTP load therefore cannot
//! reorder, interleave with, or otherwise perturb the epoch loop — which
//! is what keeps a daemon trace byte-identical to a one-shot trace of
//! the same scenario.
//!
//! Two pacing modes:
//!
//! * **wall-clock** (`tick > 0`) — epochs start on a fixed wall-clock
//!   grid; the thread waits out each tick in `recv_timeout`, so commands
//!   are handled the moment they arrive without moving the grid. An
//!   epoch that starts more than one tick late counts as an
//!   `epoch_deadline_misses` and the grid resynchronizes.
//! * **free-run** (`tick == 0`) — epochs run back to back on virtual
//!   time until `max_epochs`, the mode tests and the determinism suite
//!   use.

use crate::trace::SharedRing;
use copart_core::runtime::Phase;
use copart_core::NodeBackend;
use copart_persist::{PersistableBackend, PersistedRun};
use copart_telemetry::{JsonWriter, MetricsRegistry};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What an API command produced: a JSON body on success, a status code
/// plus message on failure.
pub type ApiResult = Result<String, (u16, String)>;

/// A mutation for the control thread, carrying its reply channel.
pub enum Command {
    /// `POST /apps` — admit a benchmark by Table 2 short name.
    Admit {
        /// The benchmark short name (`WN`, `SP`, ...).
        bench: String,
        /// Where the outcome goes.
        reply: SyncSender<ApiResult>,
    },
    /// `DELETE /apps/{id}` — remove a managed application.
    Remove {
        /// The application's group (CLOS) id.
        group: u16,
        /// Where the outcome goes.
        reply: SyncSender<ApiResult>,
    },
    /// `POST /policy` — switch the partitioning policy live.
    SetPolicy {
        /// The policy name (`cat-only`, `mba-only`, `copart`, `lfoc`).
        policy: String,
        /// Where the outcome goes.
        reply: SyncSender<ApiResult>,
    },
    /// `POST /snapshot` — cut a state snapshot right now.
    Snapshot {
        /// Where the outcome goes.
        reply: SyncSender<ApiResult>,
    },
    /// Stop the control loop at the next epoch boundary.
    Shutdown {
        /// Receives the number of epochs run.
        reply: SyncSender<u64>,
    },
}

/// Pacing configuration for the control loop.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Wall-clock epoch spacing; `Duration::ZERO` selects free-run.
    pub tick: Duration,
    /// Stop running epochs (but keep serving) after this many.
    pub max_epochs: Option<u64>,
}

/// What the control thread publishes for `/healthz` next to the status
/// document: when its last epoch completed and whether it is done.
#[derive(Debug, Clone, Copy, Default)]
pub struct Liveness {
    /// When this process's control loop last completed an epoch (`None`
    /// before the first).
    pub last_epoch: Option<Instant>,
    /// Whether the `--epochs` cap is reached.
    pub capped: bool,
}

impl Liveness {
    /// The one health rule behind `/healthz` and the `healthy` series:
    /// the loop is healthy while no epoch has run yet, once the cap is
    /// reached, or while its last epoch is younger than
    /// max(2 × `tick`, 50 ms).
    ///
    /// # Examples
    ///
    /// ```
    /// use copart_serve::daemon::Liveness;
    /// use std::time::{Duration, Instant};
    /// let now = Instant::now();
    /// let tick = Duration::from_millis(200);
    /// assert!(Liveness::default().healthy(tick, now), "booting");
    /// let fresh = Liveness { last_epoch: Some(now), capped: false };
    /// assert!(fresh.healthy(tick, now + Duration::from_millis(399)));
    /// assert!(!fresh.healthy(tick, now + Duration::from_millis(400)), "stalled");
    /// ```
    pub fn healthy(&self, tick: Duration, now: Instant) -> bool {
        match self.last_epoch {
            None => true,
            Some(_) if self.capped => true,
            Some(at) => {
                now.saturating_duration_since(at) < (2 * tick).max(Duration::from_millis(50))
            }
        }
    }
}

/// A handle to a spawned control thread.
pub struct ControlHandle {
    /// Command channel into the control thread.
    pub commands: Sender<Command>,
    /// The last published status document (JSON).
    pub status: Arc<Mutex<String>>,
    /// The last published [`Liveness`].
    pub liveness: Arc<Mutex<Liveness>>,
    join: JoinHandle<()>,
}

impl ControlHandle {
    /// Waits for the control thread to exit. Send [`Command::Shutdown`]
    /// first, or this blocks until every command sender is dropped.
    pub fn join(self) {
        let _ = self.join.join();
    }
}

/// Spawns the control thread over a profiled (and possibly recovered)
/// run. The boot status is published on the caller's thread first, so
/// [`ControlHandle::status`] (and `GET /status`) is a complete document
/// from the moment this returns.
pub fn spawn_control<B: NodeBackend + PersistableBackend + Send + 'static>(
    run: PersistedRun<B>,
    cfg: DaemonConfig,
    rx: Receiver<Command>,
    commands: Sender<Command>,
) -> ControlHandle {
    let status = Arc::new(Mutex::new(String::new()));
    let liveness = Arc::new(Mutex::new(Liveness::default()));
    let metrics = run.runtime().metrics_handle();
    let daemon = Daemon {
        run,
        cfg,
        metrics,
        status: Arc::clone(&status),
        liveness: Arc::clone(&liveness),
        rx,
    };
    daemon.publish_status();
    let join = std::thread::Builder::new()
        .name("copart-control".into())
        .spawn(move || daemon.run())
        .expect("spawning the control thread");
    ControlHandle {
        commands,
        status,
        liveness,
        join,
    }
}

struct Daemon<B: NodeBackend + PersistableBackend> {
    run: PersistedRun<B>,
    cfg: DaemonConfig,
    metrics: Arc<MetricsRegistry>,
    status: Arc<Mutex<String>>,
    liveness: Arc<Mutex<Liveness>>,
    rx: Receiver<Command>,
}

impl<B: NodeBackend + PersistableBackend> Daemon<B> {
    fn run(mut self) {
        if self.cfg.tick.is_zero() {
            self.run_free();
        } else {
            self.run_wall();
        }
        // A clean shutdown cuts a final snapshot, so the state
        // directory restores to exactly the drained state.
        if self.run.persisting() {
            if let Err(e) = self.run.snapshot_now() {
                eprintln!("copart serve: final snapshot on shutdown: {e}");
            }
        }
        if let Err(e) = self.run.flush_trace() {
            eprintln!("copart serve: flushing trace on shutdown: {e}");
        }
    }

    /// Free-run: epochs back to back on virtual time, commands drained
    /// between them.
    fn run_free(&mut self) {
        loop {
            loop {
                match self.rx.try_recv() {
                    Ok(cmd) => {
                        if self.handle(cmd) {
                            return;
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            if self.epochs_remaining() {
                self.epoch();
            } else {
                // Cap reached: park on the channel and keep serving.
                match self.rx.recv() {
                    Ok(cmd) => {
                        if self.handle(cmd) {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            }
        }
    }

    /// Wall-clock: epochs on a fixed grid, commands handled the moment
    /// they arrive in between.
    fn run_wall(&mut self) {
        let tick = self.cfg.tick;
        // Prime the pacing counters so /metrics exposes them as 0 from
        // boot instead of omitting them until the first miss.
        self.metrics.add("ticks", 0);
        self.metrics.add("epoch_deadline_misses", 0);
        // The first epoch runs before the grid is established: it pays
        // the process's cold-start costs (first-touch page faults, lazy
        // allocations) and would otherwise overshoot the first deadline.
        if self.epochs_remaining() {
            self.epoch();
        }
        let mut deadline = Instant::now() + tick;
        loop {
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                match self.rx.recv_timeout(deadline - now) {
                    Ok(cmd) => {
                        if self.handle(cmd) {
                            return;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            let lag = Instant::now().saturating_duration_since(deadline);
            self.metrics.inc("ticks");
            self.metrics
                .observe_ns("tick_lag_ns", lag.as_nanos() as u64);
            if lag > tick {
                // The epoch would start more than one full tick late:
                // that is a missed deadline. Resynchronize the grid so
                // one long stall counts once, not once per tick.
                self.metrics.inc("epoch_deadline_misses");
                deadline = Instant::now() + tick;
            } else {
                deadline += tick;
            }
            if self.epochs_remaining() {
                self.epoch();
            }
        }
    }

    fn epochs_remaining(&self) -> bool {
        self.cfg
            .max_epochs
            .is_none_or(|cap| self.run.epochs_done() < cap)
    }

    fn epoch(&mut self) {
        // Attempts count toward the cap whether or not the period
        // succeeds, so a failing backend cannot spin a free-run forever;
        // the run counts the failure.
        if let Err(e) = self.run.run_epoch() {
            eprintln!("copart serve: epoch failed: {e}");
        }
        *self.liveness.lock().unwrap_or_else(|e| e.into_inner()) = Liveness {
            last_epoch: Some(Instant::now()),
            capped: !self.epochs_remaining(),
        };
        self.publish_status();
    }

    /// Applies one command; returns whether the loop should stop.
    fn handle(&mut self, cmd: Command) -> bool {
        match cmd {
            Command::Admit { bench, reply } => {
                let result = self.admit(&bench);
                self.publish_status();
                let _ = reply.send(result);
            }
            Command::Remove { group, reply } => {
                let result = self.remove(group);
                self.publish_status();
                let _ = reply.send(result);
            }
            Command::SetPolicy { policy, reply } => {
                let result = self.set_policy(&policy);
                self.publish_status();
                let _ = reply.send(result);
            }
            Command::Snapshot { reply } => {
                let _ = reply.send(self.snapshot());
            }
            Command::Shutdown { reply } => {
                let _ = reply.send(self.run.epochs_done());
                return true;
            }
        }
        false
    }

    fn admit(&mut self, bench: &str) -> ApiResult {
        self.run.admit(bench).map(|group| {
            reply(|w| {
                w.key("group").num(f64::from(group.0));
            })
        })
    }

    fn remove(&mut self, id: u16) -> ApiResult {
        self.run.remove(id).map(|()| {
            reply(|w| {
                w.key("removed").num(f64::from(id));
            })
        })
    }

    fn set_policy(&mut self, policy: &str) -> ApiResult {
        self.run.set_policy(policy).map(|kind| {
            reply(|w| {
                w.key("policy").str(kind.label());
            })
        })
    }

    fn snapshot(&mut self) -> ApiResult {
        if !self.run.persisting() {
            return Err((
                409,
                "persistence is not enabled (start the daemon with --state-dir)".into(),
            ));
        }
        match self.run.snapshot_now() {
            Ok((path, bytes)) => Ok(reply(|w| {
                w.key("snapshot").str(&path.display().to_string());
                w.key("bytes").num(bytes as f64);
                w.key("epoch").num(self.run.runtime().epoch() as f64);
            })),
            Err(e) => Err((500, e)),
        }
    }

    /// Renders and publishes the `GET /status` document. Runs after
    /// every epoch and every command, so readers always see the state
    /// as of the last epoch boundary.
    fn publish_status(&self) {
        let runtime = self.run.runtime();
        let phase = match runtime.phase() {
            Phase::Profiling => "profiling",
            Phase::Exploring => "exploring",
            Phase::Idle => "idle",
        };
        let state = runtime.state();
        // The layout actually programmed: members of one cluster share a
        // mask, which only the runtime's own accessor knows how to derive.
        let masks = runtime.masks();
        let mut rendered = String::new();
        let mut w = JsonWriter::new(&mut rendered);
        w.begin_obj();
        w.key("epoch").num(self.run.epochs_done() as f64);
        w.key("ticks").num(self.metrics.counter("ticks") as f64);
        w.key("deadline_misses")
            .num(self.metrics.counter("epoch_deadline_misses") as f64);
        w.key("phase").str(phase);
        w.key("policy").str(self.run.env().policy.label());
        w.key("unfairness")
            .num(self.metrics.gauge("unfairness").unwrap_or(0.0));
        w.key("apps").begin_arr();
        let mut schemata_l3 = String::from("L3:");
        let mut schemata_mb = String::from("MB:");
        for (i, app) in runtime.apps().iter().enumerate() {
            let (llc, mba) = app.classifier_states();
            let alloc = state.allocs[i];
            let mask = masks[i];
            if i > 0 {
                schemata_l3.push(';');
                schemata_mb.push(';');
            }
            schemata_l3.push_str(&format!("{}={mask}", app.group.0));
            schemata_mb.push_str(&format!("{}={}", app.group.0, alloc.mba.percent()));
            w.begin_obj();
            w.key("group").num(f64::from(app.group.0));
            w.key("name").str(&app.name);
            w.key("llc").str(&llc.to_string());
            w.key("mba").str(&mba.to_string());
            w.key("ways").num(f64::from(alloc.ways));
            w.key("mba_percent").num(f64::from(alloc.mba.percent()));
            w.key("mask").str(&mask.to_string());
            w.key("slowdown").num(app.slowdown());
            w.end_obj();
        }
        w.end_arr();
        w.key("schemata")
            .str(&format!("{schemata_l3} {schemata_mb}"));
        w.end_obj();
        *self.status.lock().unwrap_or_else(|e| e.into_inner()) = rendered;
    }
}

/// A reply body: one object whose members `fill` writes.
fn reply(fill: impl FnOnce(&mut JsonWriter<'_>)) -> String {
    let mut body = String::new();
    let mut w = JsonWriter::new(&mut body);
    w.begin_obj();
    fill(&mut w);
    w.end_obj();
    body
}

/// Everything HTTP workers share: read-side structures plus the command
/// channel into the control thread.
pub struct Gateway {
    /// The runtime's metrics registry (shared handle).
    pub metrics: Arc<MetricsRegistry>,
    /// The flight recorder behind `GET /trace`.
    pub ring: SharedRing,
    /// The published `GET /status` document.
    pub status: Arc<Mutex<String>>,
    /// The published liveness behind `GET /healthz`.
    pub liveness: Arc<Mutex<Liveness>>,
    /// The control loop's epoch spacing, which the health rule scales.
    pub tick: Duration,
    /// Commands into the control thread.
    pub commands: Sender<Command>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_rule_covers_booting_capped_and_stalled() {
        let at = Instant::now();
        let ms = Duration::from_millis;
        let ran = Liveness {
            last_epoch: Some(at),
            capped: false,
        };
        let capped = Liveness {
            capped: true,
            ..ran
        };
        for tick in [Duration::ZERO, ms(25), ms(200)] {
            // Booting: no epoch yet is healthy however long it takes.
            assert!(Liveness::default().healthy(tick, at + ms(60_000)));
            // Capped: a loop that stopped at its cap is done, not stalled.
            assert!(capped.healthy(tick, at + ms(60_000)));
            // Running: live until max(2 × tick, 50 ms) passes, then stalled.
            let window = (2 * tick).max(ms(50));
            assert!(ran.healthy(tick, at));
            assert!(ran.healthy(tick, at + window - ms(1)));
            assert!(!ran.healthy(tick, at + window), "tick {tick:?}");
        }
        // A clock read before the epoch landed is not a stall.
        let later = Liveness {
            last_epoch: Some(at + ms(5)),
            capped: false,
        };
        assert!(later.healthy(ms(25), at));
    }
}
