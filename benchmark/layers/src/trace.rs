//! Tracing from outside: the span log and the decorators that time every
//! call the controller makes *out of* `copart-core`.
//!
//! Nothing in the repository's crates is instrumented. [`SpanBackend`]
//! wraps the backend the runtime drives (it delegates [`RdtBackend`],
//! [`NodeBackend`] and [`PersistableBackend`], so it fits everywhere a
//! `SimBackend` does, the persisted run included) and [`SpanRecorder`]
//! wraps the trace sink; the caller opens an `epoch` span around each
//! period, and a span opened while another is open becomes its child.
//! Controller self time is then the epoch span minus its children.
//!
//! Spans stay in memory and are dumped when the run ends. The untraced
//! comparison loop uses no decorator at all.

use bench_harness::spans::Span;
use copart_core::NodeBackend;
use copart_persist::{BackendSnapshot, PersistError, PersistableBackend};
use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, RdtCapabilities, RdtError};
use copart_sim::AppSpec;
use copart_telemetry::{CounterSnapshot, Recorder, TraceEvent};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct LogState {
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    open: Vec<u32>,
    epoch: u64,
}

/// The in-memory span log one traced run shares between its decorators.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    state: Mutex<LogState>,
}

impl SpanLog {
    /// An empty log with its clock at zero.
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            origin: Instant::now(),
            state: Mutex::new(LogState::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, LogState> {
        // Every update leaves the state valid, so a panic elsewhere must
        // not also lose the spans taken so far.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the epoch number stamped on spans opened from now on.
    pub fn set_epoch(&self, epoch: u64) {
        self.state().epoch = epoch;
    }

    /// Times `f` as a span called `name`, child of whichever span is
    /// open.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut s = self.state();
            let id = s.spans.len() as u32;
            let span = Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: s.open.last().copied(),
                epoch: s.epoch,
            };
            s.spans.push(span);
            s.open.push(id);
            id
        };
        let out = f();
        let mut s = self.state();
        s.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        s.open.retain(|&open| open != id);
        out
    }

    /// Takes every finished span out of the log.
    pub fn take(&self) -> Vec<Span> {
        let mut s = self.state();
        s.open.clear();
        std::mem::take(&mut s.spans)
    }
}

/// A backend decorator that records a span per out-of-core call.
pub struct SpanBackend<B> {
    inner: B,
    log: Arc<SpanLog>,
}

impl<B> SpanBackend<B> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: B, log: Arc<SpanLog>) -> SpanBackend<B> {
        SpanBackend { inner, log }
    }

    /// The wrapped backend (ground-truth reads go around the spans).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }
}

impl<B: RdtBackend> RdtBackend for SpanBackend<B> {
    fn capabilities(&self) -> RdtCapabilities {
        self.inner.capabilities()
    }

    fn groups(&self) -> Vec<ClosId> {
        self.inner.groups()
    }

    fn set_cbm(&mut self, group: ClosId, mask: CbmMask) -> Result<(), RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("rdt.write", || inner.set_cbm(group, mask))
    }

    fn set_mba(&mut self, group: ClosId, level: MbaLevel) -> Result<(), RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("rdt.write", || inner.set_mba(group, level))
    }

    fn clos_config(&self, group: ClosId) -> Result<(CbmMask, MbaLevel), RdtError> {
        self.inner.clos_config(group)
    }

    fn read_counters(&mut self, group: ClosId) -> Result<CounterSnapshot, RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("rdt.read_counters", || inner.read_counters(group))
    }

    fn advance(&mut self, period: Duration) -> Result<(), RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("sim.advance", || inner.advance(period))
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn read_mbm_total_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("rdt.read_counters", || inner.read_mbm_total_bytes(group))
    }

    fn read_llc_occupancy_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("rdt.read_counters", || {
            inner.read_llc_occupancy_bytes(group)
        })
    }
}

impl<B: NodeBackend> NodeBackend for SpanBackend<B> {
    fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("sim.admit", || inner.admit(spec))
    }

    fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("sim.evict", || inner.evict(group))
    }
}

impl<B: PersistableBackend> PersistableBackend for SpanBackend<B> {
    fn capture(&self) -> BackendSnapshot {
        self.log.time("sim.capture", || self.inner.capture())
    }

    fn restore_from(&mut self, snap: &BackendSnapshot) -> Result<(), PersistError> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("sim.restore", || inner.restore_from(snap))
    }
}

/// A trace-sink decorator: a span per recorded event and per flush.
pub struct SpanRecorder<R> {
    inner: R,
    log: Arc<SpanLog>,
}

impl<R> SpanRecorder<R> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: R, log: Arc<SpanLog>) -> SpanRecorder<R> {
        SpanRecorder { inner, log }
    }
}

impl<R: Recorder> Recorder for SpanRecorder<R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("telemetry.record", || inner.record(event));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let (inner, log) = (&mut self.inner, &self.log);
        log.time("telemetry.flush", || inner.flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench_harness::spans::self_times;
    use copart_rdt::SimBackend;
    use copart_sim::{Machine, MachineConfig};
    use copart_telemetry::NullRecorder;

    #[test]
    fn nested_calls_become_children() {
        let log = SpanLog::new();
        log.set_epoch(7);
        log.time("epoch", || {
            log.time("sim.advance", || {
                std::thread::sleep(Duration::from_millis(2))
            });
            log.time("rdt.read_counters", || ());
        });
        let spans = log.take();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["epoch", "sim.advance", "rdt.read_counters"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!((spans[1].parent, spans[2].parent), (Some(0), Some(0)));
        assert!(spans.iter().all(|s| s.epoch == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(&spans);
        assert!(spans[1].duration_ns() >= 2_000_000);
        assert_eq!(
            selfs[0],
            spans[0].duration_ns() - spans[1].duration_ns() - spans[2].duration_ns()
        );
        assert!(log.take().is_empty());
    }

    #[test]
    fn the_backend_decorator_delegates_and_times_out_of_core_calls() {
        let log = SpanLog::new();
        let machine = MachineConfig::tiny_test();
        let ways = machine.llc_ways;
        let mut backend = SpanBackend::new(SimBackend::new(Machine::new(machine)), log.clone());
        let spec = copart_workloads::Benchmark::Swaptions.spec_with_cores(1);
        let group = backend.admit(spec).unwrap();
        backend
            .set_cbm(group, CbmMask::contiguous(0, 2, ways).unwrap())
            .unwrap();
        backend.set_mba(group, MbaLevel::new(50)).unwrap();
        backend.advance(Duration::from_millis(10)).unwrap();
        let counters = backend.read_counters(group).unwrap();
        assert!(counters.instructions > 0, "the inner simulator really ran");
        assert_eq!(backend.clos_config(group).unwrap().1, MbaLevel::new(50));
        let snap = backend.capture();
        backend.restore_from(&snap).unwrap();
        backend.evict(group).unwrap();
        let names: Vec<&str> = log.take().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "sim.admit",
                "rdt.write",
                "rdt.write",
                "sim.advance",
                "rdt.read_counters",
                "sim.capture",
                "sim.restore",
                "sim.evict"
            ]
        );
    }

    #[test]
    fn the_recorder_decorator_keeps_a_null_sink_disabled() {
        let log = SpanLog::new();
        let rec = SpanRecorder::new(NullRecorder, log);
        assert!(!rec.enabled(), "a null recorder must stay on the fast path");
    }
}
