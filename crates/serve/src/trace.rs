//! Trace plumbing for the daemon: a thread-shared flight recorder, a
//! JSONL file sink that rotates on write (resumed through telemetry's
//! in-place [`cut_trace_file`]), and a tee that feeds both.
//!
//! The control thread owns the runtime and therefore the recorder; the
//! HTTP workers only ever *read* the ring (for `GET /trace?tail=N`). The
//! ring is the one cross-thread structure, a small `Arc<Mutex<_>>` of
//! rendered JSONL lines whose lock is held to render one line or to copy
//! one tail; the file sink belongs to the recorder alone.

use copart_telemetry::{
    cut_trace_file, durable_prefix, JsonlRecorder, MetricsRegistry, Recorder, TraceEvent,
};
use std::collections::VecDeque;
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Locks a mutex, recovering from poisoning: trace sinks hold no
/// mid-update invariants worth abandoning the daemon over.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The flight recorder: the last `capacity` events as their JSONL wire
/// lines, behind an `Arc<Mutex<_>>`. The control thread renders each
/// line once, as it records the event; HTTP workers serve tail reads by
/// copying lines, with no event cloned or float formatted per request.
///
/// # Examples
///
/// ```
/// use copart_serve::trace::SharedRing;
/// let ring = SharedRing::new(128);
/// let reader = ring.clone();
/// assert_eq!(reader.tail_jsonl(10), "");
/// ```
#[derive(Debug, Clone)]
pub struct SharedRing {
    inner: Arc<Mutex<Lines>>,
    /// Where trace-invariant violations are counted, if anywhere.
    checked: Option<Arc<MetricsRegistry>>,
}

#[derive(Debug)]
struct Lines {
    capacity: usize,
    /// Each retained event's line, `\n` included, oldest first.
    lines: VecDeque<String>,
    /// The last recorded event's `(epoch, time_ns)`.
    last: Option<(u64, u64)>,
}

impl SharedRing {
    /// A shared ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn new(capacity: usize) -> SharedRing {
        assert!(capacity > 0, "ring capacity must be positive");
        SharedRing {
            inner: Arc::new(Mutex::new(Lines {
                capacity,
                lines: VecDeque::with_capacity(capacity),
                last: None,
            })),
            checked: None,
        }
    }

    /// A shared ring that checks every recorded event against the one
    /// before it, with the invariants `copart trace-check` enforces
    /// offline: the epoch strictly increases and time never rewinds.
    /// Each violation counts `trace_verify_failures` in `metrics`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is 0.
    pub fn checked(capacity: usize, metrics: Arc<MetricsRegistry>) -> SharedRing {
        SharedRing {
            checked: Some(metrics),
            ..SharedRing::new(capacity)
        }
    }

    /// Number of currently retained events.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.inner).lines.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.inner).lines.is_empty()
    }

    /// The most recent `n` events as JSONL (one event per line, oldest
    /// first), the `GET /trace` wire format.
    pub fn tail_jsonl(&self, n: usize) -> String {
        let ring = lock_unpoisoned(&self.inner);
        let tail = ring.lines.range(ring.lines.len().saturating_sub(n)..);
        let mut out = String::with_capacity(tail.clone().map(String::len).sum());
        tail.for_each(|line| out.push_str(line));
        out
    }
}

impl Recorder for SharedRing {
    fn record(&mut self, event: &TraceEvent) {
        let mut ring = lock_unpoisoned(&self.inner);
        if let (Some(metrics), Some((epoch, time_ns))) = (&self.checked, ring.last) {
            if event.epoch <= epoch || event.time_ns < time_ns {
                metrics.inc("trace_verify_failures");
                eprintln!(
                    "copart serve: trace invariant violated: epoch {} at {} ns after epoch {epoch} at {time_ns} ns",
                    event.epoch, event.time_ns
                );
            }
        }
        ring.last = Some((event.epoch, event.time_ns));
        // A full ring hands its oldest line's buffer to the newest.
        let mut line = if ring.lines.len() == ring.capacity {
            ring.lines.pop_front().unwrap_or_default()
        } else {
            String::new()
        };
        line.clear();
        event.write_json_line(&mut line);
        line.push('\n');
        ring.lines.push_back(line);
    }
}

/// A JSONL trace sink that writes `prefix-0000.jsonl`,
/// `prefix-0001.jsonl`, ... in a directory. A record that finds the
/// open file holding the cap opens the next file first, so every full
/// file holds exactly the cap; each switch counts `trace_rotations`.
#[derive(Debug)]
pub struct RotatingJsonl {
    dir: PathBuf,
    prefix: String,
    max_events_per_file: u64,
    index: u32,
    /// Events the open file held before `sink` opened it (a resume
    /// keeps them); `sink` counts the rest.
    held: u64,
    sink: JsonlRecorder<BufWriter<File>>,
    metrics: Arc<MetricsRegistry>,
    /// A failed switch, surfaced by the next flush; the sink keeps
    /// writing to the open file and retries on the next record.
    rotate_error: Option<io::Error>,
}

impl RotatingJsonl {
    fn path(dir: &Path, prefix: &str, index: u32) -> PathBuf {
        dir.join(format!("{prefix}-{index:04}.jsonl"))
    }

    fn open(
        dir: PathBuf,
        prefix: &str,
        max_events_per_file: u64,
        index: u32,
        (sink, held): (JsonlRecorder<BufWriter<File>>, u64),
        metrics: Arc<MetricsRegistry>,
    ) -> RotatingJsonl {
        RotatingJsonl {
            dir,
            prefix: prefix.to_string(),
            max_events_per_file: max_events_per_file.max(1),
            index,
            held,
            sink,
            metrics,
            rotate_error: None,
        }
    }

    /// Opens the first trace file (`prefix-0000.jsonl`) in `dir`,
    /// creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Fails when the directory or the first file cannot be created.
    pub fn create(
        dir: impl Into<PathBuf>,
        prefix: &str,
        max_events_per_file: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> io::Result<RotatingJsonl> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let sink = JsonlRecorder::create(Self::path(&dir, prefix, 0))?;
        Ok(Self::open(
            dir,
            prefix,
            max_events_per_file,
            0,
            (sink, 0),
            metrics,
        ))
    }

    /// Reopens a rotated trace directory for a recovered daemon, keeping
    /// the events below `below_epoch` (replay re-emits the rest). Files
    /// wholly below the boundary are left untouched; every file after
    /// the one holding the boundary (else the last file) is deleted,
    /// then that file is cut in place by [`cut_trace_file`] and stays
    /// open. A kill anywhere in between leaves the same boundary file for
    /// the next resume to find. A file over the cap, as a build that
    /// rotated on a timer could leave, is kept as it is: the next record
    /// opens the following file.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be scanned, a file cannot be read
    /// or deleted, or the boundary file cannot be cut.
    pub fn resume(
        dir: impl Into<PathBuf>,
        prefix: &str,
        max_events_per_file: u64,
        below_epoch: u64,
        metrics: Arc<MetricsRegistry>,
    ) -> io::Result<RotatingJsonl> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut open = 0;
        while Self::path(&dir, prefix, open + 1).exists() {
            let file = File::open(Self::path(&dir, prefix, open))?;
            let len = file.metadata()?.len();
            if durable_prefix(BufReader::new(file), below_epoch)?.0 < len {
                break;
            }
            open += 1;
        }
        let mut later = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let index = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix(prefix)?.strip_prefix('-'))
                .and_then(|n| n.strip_suffix(".jsonl")?.parse::<u32>().ok());
            if index.is_some_and(|i| i > open) {
                later.push(path);
            }
        }
        for path in later {
            fs::remove_file(path)?;
        }
        let cut = cut_trace_file(&Self::path(&dir, prefix, open), below_epoch)?;
        Ok(Self::open(
            dir,
            prefix,
            max_events_per_file,
            open,
            cut,
            metrics,
        ))
    }

    /// Flushes the open file and opens the next one.
    fn rotate(&mut self) -> io::Result<()> {
        self.sink.flush()?;
        let next = self.index + 1;
        self.sink = JsonlRecorder::create(Self::path(&self.dir, &self.prefix, next))?;
        self.index = next;
        self.held = 0;
        self.metrics.inc("trace_rotations");
        Ok(())
    }
}

impl Recorder for RotatingJsonl {
    fn record(&mut self, event: &TraceEvent) {
        if self.held + self.sink.events_written() >= self.max_events_per_file {
            if let Err(e) = self.rotate() {
                self.rotate_error.get_or_insert(e);
            }
        }
        self.sink.record(event);
    }

    fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.rotate_error.take() {
            return Err(e);
        }
        self.sink.flush()
    }
}

/// Feeds every event to two sinks: the daemon tees the flight-recorder
/// ring and the rotating file sink.
pub struct TeeRecorder {
    first: Box<dyn Recorder + Send>,
    second: Box<dyn Recorder + Send>,
}

impl TeeRecorder {
    /// A tee over two sinks.
    pub fn new(first: Box<dyn Recorder + Send>, second: Box<dyn Recorder + Send>) -> TeeRecorder {
        TeeRecorder { first, second }
    }
}

impl Recorder for TeeRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.first.record(event);
        self.second.record(event);
    }

    fn flush(&mut self) -> io::Result<()> {
        let first = self.first.flush();
        self.second.flush()?;
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_telemetry::{TraceDecision, TracePhase};

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

    fn line(epoch: u64) -> String {
        format!("{}\n", event(epoch).to_json_line())
    }

    fn lines(epochs: std::ops::Range<u64>) -> String {
        epochs.map(line).collect()
    }

    /// A fresh scratch directory unique to this process and `tag`.
    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("copart-trace-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The directory's files, `trace-0000.jsonl` first, as text.
    fn files(dir: &Path) -> Vec<String> {
        (0..)
            .map_while(|i| fs::read_to_string(RotatingJsonl::path(dir, "trace", i)).ok())
            .collect()
    }

    fn write_files(dir: &Path, texts: &[&str]) {
        for (i, text) in texts.iter().enumerate() {
            fs::write(RotatingJsonl::path(dir, "trace", i as u32), text).unwrap();
        }
    }

    /// Resumes `dir` below `below` at a cap of 3 and records
    /// `below..end` through the reopened sink.
    fn resume_and_finish(dir: &Path, below: u64, end: u64) -> Arc<MetricsRegistry> {
        let metrics = Arc::new(MetricsRegistry::new());
        let mut sink = RotatingJsonl::resume(dir, "trace", 3, below, Arc::clone(&metrics)).unwrap();
        for epoch in below..end {
            sink.record(&event(epoch));
        }
        sink.flush().unwrap();
        metrics
    }

    #[test]
    fn shared_ring_tail_is_most_recent_oldest_first() {
        let mut ring = SharedRing::new(4);
        for epoch in 0..10 {
            ring.record(&event(epoch));
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.tail_jsonl(2), lines(8..10));
        // Asking for more than retained yields everything retained.
        assert_eq!(ring.tail_jsonl(100), lines(6..10));
        assert_eq!(ring.tail_jsonl(0), "");
    }

    #[test]
    fn shared_ring_reads_from_a_clone() {
        let mut ring = SharedRing::new(8);
        let reader = ring.clone();
        assert!(reader.is_empty());
        ring.record(&event(0));
        assert_eq!(reader.len(), 1);
        assert!(!reader.is_empty());
        assert_eq!(reader.tail_jsonl(1), line(0));
    }

    #[test]
    fn checked_ring_counts_rewound_epochs_and_time() {
        let metrics = Arc::new(MetricsRegistry::new());
        let mut ring = SharedRing::checked(8, Arc::clone(&metrics));
        for epoch in 0..5 {
            ring.record(&event(epoch));
        }
        assert_eq!(metrics.counter("trace_verify_failures"), 0);
        // A rewound epoch, then a repeated one: each counts once.
        ring.record(&event(2));
        ring.record(&event(2));
        assert_eq!(metrics.counter("trace_verify_failures"), 2);
        // Time going backwards under an advancing epoch counts too.
        ring.record(&TraceEvent {
            time_ns: 0,
            ..event(9)
        });
        assert_eq!(metrics.counter("trace_verify_failures"), 3);
        // The ring still retains what it was given.
        assert_eq!(ring.len(), 8);
    }

    #[test]
    fn rotating_sink_switches_files_on_the_write_past_the_cap() {
        let dir = scratch("rotate");
        let metrics = Arc::new(MetricsRegistry::new());
        let mut sink = RotatingJsonl::create(&dir, "trace", 3, Arc::clone(&metrics)).unwrap();
        for epoch in 0..3 {
            sink.record(&event(epoch));
        }
        sink.flush().unwrap();
        assert_eq!(files(&dir), [lines(0..3)], "a full file opens no successor");
        for epoch in 3..7 {
            sink.record(&event(epoch));
        }
        sink.flush().unwrap();
        assert_eq!(files(&dir), [lines(0..3), lines(3..6), lines(6..7)]);
        assert_eq!(metrics.counter("trace_rotations"), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Every way a kill can leave a directory resumes to the files an
    /// uninterrupted sink writes, and a second resume over the first
    /// one's output changes no byte.
    #[test]
    fn resume_cuts_in_place_and_matches_an_uninterrupted_sink() {
        let whole = [lines(0..3), lines(3..6), lines(6..8)];
        let torn = format!("{}{}", lines(6..7), &line(7)[..17]);
        let cases: [(&str, Vec<&str>, u64); 5] = [
            ("clean", vec![&whole[0], &whole[1], &whole[2]], 8),
            // A torn tail: the kill interrupted the write of epoch 7.
            ("torn", vec![&whole[0], &whole[1], &torn], 7),
            // The boundary inside a file: 5 is regenerated by replay.
            ("inside", vec![&whole[0], &whole[1], &whole[2]], 5),
            // The boundary on a file edge, the next file already opened.
            ("edge-opened", vec![&whole[0], &whole[1], &whole[2]], 3),
            // The boundary on a file edge, the next file not yet opened.
            ("edge-unopened", vec![&whole[0]], 3),
        ];
        for (tag, before, below) in cases {
            let dir = scratch(tag);
            write_files(&dir, &before);
            let metrics = Arc::new(MetricsRegistry::new());
            drop(RotatingJsonl::resume(&dir, "trace", 3, below, Arc::clone(&metrics)).unwrap());
            let cut = files(&dir);
            for (i, file) in before.iter().enumerate() {
                if durable_prefix(file.as_bytes(), below).unwrap().0 == file.len() as u64 {
                    assert_eq!(cut[i], *file, "{tag}: file {i} is below the cut");
                }
            }
            // A kill right after the cut: resuming again is a no-op.
            drop(RotatingJsonl::resume(&dir, "trace", 3, below, Arc::clone(&metrics)).unwrap());
            assert_eq!(files(&dir), cut, "{tag}: resume is idempotent");
            resume_and_finish(&dir, below, 8);
            assert_eq!(files(&dir), whole, "{tag}: file for file");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A directory whose files ran over the cap (rotation used to wait
    /// for a timer) resumes without rewriting the kept files.
    #[test]
    fn resume_accepts_over_cap_files() {
        let dir = scratch("over-cap");
        write_files(&dir, &[&lines(0..5), &lines(5..9)]);
        let metrics = resume_and_finish(&dir, 7, 10);
        assert_eq!(files(&dir), [lines(0..5), lines(5..8), lines(8..10)]);
        assert_eq!(metrics.counter("trace_rotations"), 1);
        // A boundary inside the over-cap file keeps it at its cut and
        // rotates on the next record.
        write_files(&dir, &[&lines(0..5), &lines(5..9)]);
        resume_and_finish(&dir, 4, 6);
        assert_eq!(files(&dir), [lines(0..4), lines(4..6)]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let ring_a = SharedRing::new(8);
        let ring_b = SharedRing::new(8);
        let mut tee = TeeRecorder::new(Box::new(ring_a.clone()), Box::new(ring_b.clone()));
        tee.record(&event(1));
        tee.flush().unwrap();
        assert_eq!(ring_a.len(), 1);
        assert_eq!(ring_b.len(), 1);
    }
}
