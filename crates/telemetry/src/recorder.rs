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
//!   harness consume; [`cut_trace_file`] reopens such a file for a
//!   resumed run.

use crate::event::{TraceDecision, TraceEvent};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufWriter, Seek, SeekFrom, Write};
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

/// The invariants every decision trace holds, whoever wrote it: epoch
/// numbers are gapless from 0 and time never rewinds. `copart
/// trace-check` and the tests hold traces to this one rule. Returns the
/// trace's `(events, profiling probes)`.
///
/// # Errors
///
/// Names the first event that breaks a rule.
pub fn check_trace(events: &[TraceEvent]) -> Result<(usize, usize), String> {
    if let Some((i, e)) = (0u64..).zip(events).find(|(i, e)| e.epoch != *i) {
        let epoch = e.epoch;
        return Err(format!(
            "event {i} has epoch {epoch} — epoch numbers must be gapless from 0"
        ));
    }
    if let Some(i) = events.windows(2).position(|w| w[1].time_ns < w[0].time_ns) {
        let (from, to) = (events[i].time_ns, events[i + 1].time_ns);
        return Err(format!(
            "time rewinds at event {} ({from} -> {to} ns)",
            i + 1
        ));
    }
    let profiled = events
        .iter()
        .filter(|e| e.decision == TraceDecision::Profiled);
    Ok((events.len(), profiled.count()))
}

/// The durable prefix of a trace file: the leading lines that parse as
/// events below `below_epoch`, as `(bytes, events, terminated)`, where
/// `terminated` says whether the prefix ends in a newline (an empty one
/// does). A line that does not parse is the torn tail of a kill; a
/// parsed event at or above the boundary is regenerated by replay.
/// Either way, the prefix ends there.
///
/// Lines stream through one reused buffer, so a resumed run never holds
/// the whole file (up to ~9.5 MB for a daemon's 10 000-event file).
///
/// # Errors
///
/// The reader's I/O error.
pub fn durable_prefix(mut file: impl BufRead, below_epoch: u64) -> io::Result<(u64, u64, bool)> {
    let (mut kept, mut events, mut terminated) = (0, 0, true);
    let mut line = Vec::new();
    loop {
        line.clear();
        if file.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let event = std::str::from_utf8(&line)
            .ok()
            .and_then(|l| TraceEvent::from_json_line(l.trim_end_matches('\n')).ok());
        match event {
            Some(e) if e.epoch < below_epoch => {
                kept += line.len() as u64;
                events += 1;
                terminated = line.ends_with(b"\n");
            }
            _ => break,
        }
    }
    Ok((kept, events, terminated))
}

/// Cuts the trace file at `path` back to its [`durable_prefix`] *in
/// place* and reopens it for appending; returns the sink and the events
/// kept. A missing file is created empty. Every resumed trace file — a
/// one-shot run's and each rotated daemon file — goes through this cut.
///
/// The cut only ever `set_len`s the file down to the prefix and never
/// rewrites it, so a kill inside a resume cannot lose the events below
/// the boundary, and a resume over an already-cut file leaves its bytes
/// alone.
///
/// # Errors
///
/// Fails when the file cannot be opened, read or cut.
pub fn cut_trace_file(
    path: &Path,
    below_epoch: u64,
) -> io::Result<(JsonlRecorder<BufWriter<File>>, u64)> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)?;
    let (kept, events, terminated) = durable_prefix(io::BufReader::new(&file), below_epoch)?;
    file.set_len(kept)?;
    file.seek(SeekFrom::End(0))?;
    // A kept last line whose newline the kill swallowed gets it back.
    if !terminated {
        file.write_all(b"\n")?;
    }
    Ok((JsonlRecorder::new(BufWriter::new(file)), events))
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

    /// The streamed cut lands on the byte the whole-file cut it replaced
    /// chose — `reference` is that cut, over the file read at once — for
    /// a file long enough to span many read buffers.
    #[test]
    fn cut_trace_file_cuts_where_the_whole_file_cut_did() {
        fn reference(bytes: &[u8], below_epoch: u64) -> (usize, u64) {
            let (mut kept, mut events) = (0, 0);
            for line in bytes.split_inclusive(|&b| b == b'\n') {
                let event = std::str::from_utf8(line)
                    .ok()
                    .and_then(|l| TraceEvent::from_json_line(l.trim_end_matches('\n')).ok());
                match event {
                    Some(e) if e.epoch < below_epoch => {
                        kept += line.len();
                        events += 1;
                    }
                    _ => break,
                }
            }
            (kept, events)
        }
        let line = |epoch: u64| format!("{}\n", event(epoch).to_json_line());
        let long: String = (0..200).map(line).collect();
        let cases: [(&str, String, u64); 7] = [
            ("clean", long.clone(), 200),
            ("empty", String::new(), 5),
            ("torn-last-line", format!("{long}{}", &line(200)[..40]), 201),
            ("line-at-boundary", long.clone(), 150),
            ("boundary-is-the-last-line", long.clone(), 199),
            ("unterminated-kept-last", long.trim_end().to_string(), 200),
            ("garbage-first-line", format!("not json\n{long}"), 200),
        ];
        let dir = std::env::temp_dir().join(format!("copart-cut-bytes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (tag, text, below) in cases {
            let path = dir.join(format!("{tag}.jsonl"));
            std::fs::write(&path, &text).unwrap();
            let (kept, events) = reference(text.as_bytes(), below);
            let (sink, got_events) = cut_trace_file(&path, below).unwrap();
            drop(sink);
            let mut want = text[..kept].to_string();
            if kept > 0 && !want.ends_with('\n') {
                want.push('\n');
            }
            assert_eq!(got_events, events, "{tag}: events kept");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                want,
                "{tag}: cut bytes"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_trace_names_the_first_broken_rule() {
        let mut events: Vec<TraceEvent> = (0..4).map(event).collect();
        events[0].decision = TraceDecision::Profiled;
        assert_eq!(check_trace(&events), Ok((4, 1)));
        assert_eq!(check_trace(&[]), Ok((0, 0)));

        let mut gapped = events.clone();
        gapped[2].epoch = 3;
        assert_eq!(
            check_trace(&gapped),
            Err("event 2 has epoch 3 — epoch numbers must be gapless from 0".to_string())
        );
        let mut rewound = events;
        rewound[3].time_ns = 1500;
        assert_eq!(
            check_trace(&rewound),
            Err("time rewinds at event 3 (2000 -> 1500 ns)".to_string())
        );
    }
}
