//! Pluggable sinks for [`TraceEvent`]s.
//!
//! The consolidation runtime emits one event per control epoch through a
//! [`Recorder`]. Three sinks cover the deployment spectrum:
//!
//! * [`NullRecorder`] — the default; reports itself disabled so the
//!   runtime skips event construction entirely (the production
//!   fast path costs one virtual call per epoch),
//! * [`RingRecorder`] — a bounded in-memory buffer for tests and
//!   flight-recorder style "last N epochs" debugging,
//! * [`SharedRecorder`] — an unbounded buffer behind a shared handle, so
//!   the events outlive the boxed recorder a runtime hands back or drops,
//! * [`JsonlRecorder`] — streams each event as one JSON line to any
//!   `io::Write` (a `BufWriter<File>` via [`JsonlRecorder::create`]),
//!   the format the `trace_inspection` example and the experiment
//!   harness consume.

use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// A sink for per-epoch trace events.
pub trait Recorder {
    /// Whether the sink wants events at all. The runtime checks this
    /// before building a [`TraceEvent`], so a disabled sink costs one
    /// virtual call per epoch and nothing else.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one event. Implementations must not panic on I/O
    /// problems; they report them through [`Recorder::flush`].
    fn record(&mut self, event: &TraceEvent);

    /// Flushes buffered output, surfacing any deferred I/O error.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Discards everything and disables event construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Keeps the most recent `capacity` events in memory, evicting the
/// oldest on overflow.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
}

impl RingRecorder {
    /// Creates a ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> RingRecorder {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Consumes the ring, yielding retained events oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.buf.into()
    }

    /// Drops all retained events.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl Recorder for RingRecorder {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(event.clone());
    }
}

/// Keeps every event in a buffer that all clones share: box one clone
/// as a runtime's recorder and read the events through another.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Arc<Mutex<Vec<TraceEvent>>>);

impl SharedRecorder {
    fn buf(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        // Every update is one push, which leaves the buffer valid even if
        // its thread panicked mid-call, so a poisoned lock is still read.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The events recorded so far, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf().clone()
    }

    /// Takes the events recorded so far, oldest first, leaving the
    /// buffer empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.buf())
    }
}

impl Recorder for SharedRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.buf().push(event.clone());
    }
}

/// Streams events as JSON lines to a writer.
///
/// `record` cannot return errors, so write failures are counted and the
/// first one is re-surfaced from [`Recorder::flush`].
#[derive(Debug)]
pub struct JsonlRecorder<W: Write> {
    out: W,
    /// The line being rendered, kept so a recorded event allocates
    /// nothing once the buffer has grown to a line's size.
    line: String,
    written: u64,
    deferred_error: Option<io::Error>,
}

impl JsonlRecorder<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlRecorder<BufWriter<File>>> {
        Ok(JsonlRecorder::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlRecorder<W> {
    /// Wraps an arbitrary writer (buffer it yourself if it is raw).
    pub fn new(out: W) -> JsonlRecorder<W> {
        JsonlRecorder {
            out,
            line: String::new(),
            written: 0,
            deferred_error: None,
        }
    }

    /// Number of events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.deferred_error.is_some() {
            return;
        }
        self.line.clear();
        event.write_json_line(&mut self.line);
        self.line.push('\n');
        if let Err(e) = self.out.write_all(self.line.as_bytes()) {
            self.deferred_error = Some(e);
        } else {
            self.written += 1;
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        self.out.flush()
    }
}

/// Parses a whole JSONL trace from a reader, one event per non-empty
/// line.
///
/// # Errors
///
/// The reader's I/O error, or [`io::ErrorKind::InvalidData`] naming the
/// first malformed line.
pub fn parse_trace(reader: impl BufRead) -> io::Result<Vec<TraceEvent>> {
    let mut events = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let event = TraceEvent::from_json_line(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        events.push(event);
    }
    Ok(events)
}

/// Reads a JSONL trace file written by [`JsonlRecorder`].
///
/// # Errors
///
/// As [`parse_trace`], or the error opening the file.
pub fn read_trace_file(path: impl AsRef<Path>) -> io::Result<Vec<TraceEvent>> {
    parse_trace(io::BufReader::new(File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceDecision, TracePhase};

    fn event(epoch: u64) -> TraceEvent {
        TraceEvent {
            epoch,
            time_ns: epoch * 1000,
            phase: TracePhase::Exploring,
            decision: TraceDecision::Transfer,
            retry_count: 0,
            matching_rounds: 1,
            unfairness: 0.1,
            apps: Vec::new(),
            proposed: Vec::new(),
            applied: Vec::new(),
            fault: None,
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(&event(0));
        r.flush().unwrap();
    }

    #[test]
    fn ring_keeps_order_below_capacity() {
        let mut ring = RingRecorder::new(8);
        for epoch in 0..5 {
            ring.record(&event(epoch));
        }
        assert_eq!(ring.len(), 5);
        let epochs: Vec<u64> = ring.events().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let mut ring = RingRecorder::new(3);
        for epoch in 0..10 {
            ring.record(&event(epoch));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.capacity(), 3);
        let epochs: Vec<u64> = ring.events().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![7, 8, 9], "oldest evicted first");
        assert_eq!(
            ring.into_events()
                .iter()
                .map(|e| e.epoch)
                .collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn ring_clear_empties() {
        let mut ring = RingRecorder::new(2);
        ring.record(&event(1));
        assert!(!ring.is_empty());
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_ring_panics() {
        let _ = RingRecorder::new(0);
    }

    #[test]
    fn shared_recorder_clones_share_one_buffer() {
        let shared = SharedRecorder::default();
        let mut boxed: Box<dyn Recorder> = Box::new(shared.clone());
        for epoch in 0..3 {
            boxed.record(&event(epoch));
        }
        drop(boxed);
        let epochs = |events: Vec<TraceEvent>| events.iter().map(|e| e.epoch).collect::<Vec<_>>();
        assert_eq!(epochs(shared.events()), vec![0, 1, 2]);
        assert_eq!(epochs(shared.take()), vec![0, 1, 2]);
        assert!(shared.events().is_empty(), "take empties the buffer");
    }

    #[test]
    fn jsonl_writes_parseable_lines() {
        let mut sink = JsonlRecorder::new(Vec::new());
        for epoch in 0..4 {
            sink.record(&event(epoch));
        }
        sink.flush().unwrap();
        assert_eq!(sink.events_written(), 4);
        let bytes = sink.into_inner();
        let parsed = parse_trace(&bytes[..]).unwrap();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[3], event(3));
    }

    #[test]
    fn parse_trace_skips_blank_lines_and_reports_bad_ones() {
        let good = event(0).to_json_line();
        let text = format!("{good}\n\n{good}\n");
        assert_eq!(parse_trace(text.as_bytes()).unwrap().len(), 2);
        let bad = format!("{good}\nnot json\n");
        let err = parse_trace(bad.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 2: "), "{err}");
    }

    #[test]
    fn jsonl_write_errors_surface_in_flush() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlRecorder::new(Broken);
        sink.record(&event(0));
        sink.record(&event(1));
        assert_eq!(sink.events_written(), 0);
        assert!(sink.flush().is_err());
        // The error is consumed; a second flush succeeds.
        assert!(sink.flush().is_ok());
    }
}
