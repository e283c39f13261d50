//! The append-only event log between snapshots.
//!
//! A snapshot freezes the state *at* an epoch boundary; everything that
//! steers the run afterwards — epoch ticks, admissions, removals,
//! policy switches — is appended here, one JSON line per event. Each
//! entry records `pre`: the runtime's epoch counter at the moment the
//! event executed. That single number is the whole consistency story:
//!
//! * the **first** entry of a log must carry `pre == snapshot.epoch`,
//!   otherwise the log belongs to a different (older or newer) snapshot
//!   and replaying it would fork history ([`verify_chain`], the
//!   stale-log guard);
//! * during replay (`copart_serve::Recovered::replay`), *every* entry
//!   must match the runtime's live counter, so a divergence is caught
//!   at the exact entry where it happens, not as downstream garbage.
//!
//! The log is named after the snapshot it extends (`log-<epoch>.jsonl`)
//! and is opened when that snapshot is cut, before it lands: a crash in
//! between leaves a log that chains the previous snapshot forward, and
//! pruning drops every log below the oldest kept snapshot. A torn final
//! line (the write the crash interrupted) is dropped on load; a mangled
//! line *before* the end is corruption and refuses to load.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use copart_telemetry::{JsonReader, JsonWriter};

use crate::error::PersistError;

/// One input that steered the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// One control period ran.
    Epoch,
    /// An application was admitted.
    Admit {
        /// Benchmark short name (resolved through the scenario's table).
        bench: String,
        /// Raw CLOS id the backend assigned — replay must reproduce it.
        group: u16,
    },
    /// An application was removed.
    Remove {
        /// Raw CLOS id of the removed group.
        group: u16,
    },
    /// The partitioning policy was switched.
    Policy {
        /// The new policy's label.
        name: String,
    },
}

/// One event-log entry: what happened, and at which epoch counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The runtime's epoch counter when the event executed.
    pub pre: u64,
    /// The event itself.
    pub kind: EventKind,
}

impl LogEntry {
    /// Serialises the entry to one JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line);
        line
    }

    /// Appends the entry's JSON line (no trailing newline) to `out`.
    fn write_line(&self, out: &mut String) {
        let mut w = JsonWriter::new(out);
        w.begin_obj().key("pre").num(self.pre as f64);
        match &self.kind {
            EventKind::Epoch => w.key("op").str("epoch"),
            EventKind::Admit { bench, group } => {
                w.key("op").str("admit").key("bench").str(bench);
                w.key("group").num(f64::from(*group))
            }
            EventKind::Remove { group } => {
                w.key("op").str("remove");
                w.key("group").num(f64::from(*group))
            }
            EventKind::Policy { name } => w.key("op").str("policy").key("policy").str(name),
        };
        w.end_obj();
    }

    /// Parses one JSON line, pulling its members in the order
    /// [`LogEntry::to_line`] writes them.
    ///
    /// # Errors
    ///
    /// [`PersistError::Json`] / [`PersistError::Schema`] for a line that
    /// is not a well-formed entry.
    pub fn from_line(line: &str) -> Result<LogEntry, PersistError> {
        JsonReader::record(line, |r| {
            let pre = r.key("pre")?.uint()?;
            let kind = match &*r.key("op")?.string()? {
                "epoch" => EventKind::Epoch,
                "admit" => EventKind::Admit {
                    bench: r.key("bench")?.string()?.into_owned(),
                    group: r.key("group")?.uint()?,
                },
                "remove" => EventKind::Remove {
                    group: r.key("group")?.uint()?,
                },
                "policy" => EventKind::Policy {
                    name: r.key("policy")?.string()?.into_owned(),
                },
                other => {
                    return Err(PersistError::Schema(format!("unknown log op `{other}`")));
                }
            };
            Ok(LogEntry { pre, kind })
        })
    }
}

/// The event-log file extending the snapshot taken at `snapshot_epoch`.
pub fn log_path(dir: &Path, snapshot_epoch: u64) -> PathBuf {
    dir.join(format!("log-{snapshot_epoch:020}.jsonl"))
}

/// An open, append-only event log.
#[derive(Debug)]
pub struct EventLog {
    file: fs::File,
    path: PathBuf,
    entries: u64,
    /// The line being appended, kept across calls.
    line: String,
}

impl EventLog {
    /// Creates (truncating) the log that extends the snapshot taken at
    /// `snapshot_epoch`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file cannot be created.
    pub fn create(dir: &Path, snapshot_epoch: u64) -> Result<EventLog, PersistError> {
        fs::create_dir_all(dir)?;
        let path = log_path(dir, snapshot_epoch);
        let file = fs::File::create(&path)?;
        Ok(EventLog {
            file,
            path,
            entries: 0,
            line: String::new(),
        })
    }

    /// Reopens the log for appending after recovery. The file is
    /// rewritten with exactly `entries` (the validated prefix that
    /// replay executed), which discards any torn tail so subsequent
    /// appends extend a clean file.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the file cannot be rewritten.
    pub fn resume(
        dir: &Path,
        snapshot_epoch: u64,
        entries: &[LogEntry],
    ) -> Result<EventLog, PersistError> {
        let mut log = EventLog::create(dir, snapshot_epoch)?;
        for entry in entries {
            log.append(entry)?;
        }
        Ok(log)
    }

    /// Appends one entry and flushes it to the OS, so the entry survives
    /// a process kill (a torn write is tolerated by [`load_log`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the write fails.
    pub fn append(&mut self, entry: &LogEntry) -> Result<(), PersistError> {
        self.line.clear();
        entry.write_line(&mut self.line);
        self.line.push('\n');
        self.file.write_all(self.line.as_bytes())?;
        self.file.flush()?;
        self.entries += 1;
        Ok(())
    }

    /// Entries appended through this handle.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Loads the log extending `snapshot_epoch`. A missing file is an empty
/// log (crash before the first append); a torn final line is dropped.
///
/// # Errors
///
/// [`PersistError::Corrupt`] when a line *before* the tail fails to
/// parse — that is not a torn write, it is corruption.
pub fn load_log(dir: &Path, snapshot_epoch: u64) -> Result<Vec<LogEntry>, PersistError> {
    let path = log_path(dir, snapshot_epoch);
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    // Anything after the final newline is a torn tail: drop it. (This
    // also handles invalid UTF-8 from a torn multi-byte write.)
    let upto = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let text = std::str::from_utf8(&bytes[..upto])
        .map_err(|_| PersistError::Corrupt("event log is not UTF-8".to_string()))?;

    let lines: Vec<&str> = text.lines().collect();
    let mut entries = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match LogEntry::from_line(line) {
            Ok(e) => entries.push(e),
            // The final newline-terminated line may still be a torn
            // page from the crash; everything earlier must parse.
            Err(_) if i + 1 == lines.len() => break,
            Err(e) => {
                return Err(PersistError::Corrupt(format!(
                    "event log line {}: {e}",
                    i + 1
                )));
            }
        }
    }
    Ok(entries)
}

/// The stale-log guard: a log may only be replayed over the snapshot it
/// chains onto. The first entry must have executed exactly at the
/// snapshot's epoch, and entries may never step backwards.
///
/// # Errors
///
/// [`PersistError::Chain`] when the first entry does not chain;
/// [`PersistError::Corrupt`] when entries are out of order.
pub fn verify_chain(snapshot_epoch: u64, entries: &[LogEntry]) -> Result<(), PersistError> {
    if let Some(first) = entries.first() {
        if first.pre != snapshot_epoch {
            return Err(PersistError::Chain {
                expected: snapshot_epoch,
                found: first.pre,
            });
        }
    }
    for pair in entries.windows(2) {
        if pair[1].pre < pair[0].pre {
            return Err(PersistError::Corrupt(format!(
                "event log steps backwards: {} after {}",
                pair[1].pre, pair[0].pre
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copart-persist-log-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_entries() -> Vec<LogEntry> {
        vec![
            LogEntry {
                pre: 37,
                kind: EventKind::Epoch,
            },
            LogEntry {
                pre: 38,
                kind: EventKind::Admit {
                    bench: "mg".to_string(),
                    group: 4,
                },
            },
            LogEntry {
                pre: 42,
                kind: EventKind::Remove { group: 2 },
            },
            LogEntry {
                pre: 42,
                kind: EventKind::Policy {
                    name: "CAT-only".to_string(),
                },
            },
        ]
    }

    /// The member order the pull reader depends on, pinned: one line of
    /// each op, the writer's bytes, both directions. A member out of
    /// order or one no writer emits is a schema error.
    #[test]
    fn entries_are_pinned_in_writer_order() {
        let lines = [
            r#"{"pre":37,"op":"epoch"}"#,
            r#"{"pre":38,"op":"admit","bench":"mg","group":4}"#,
            r#"{"pre":42,"op":"remove","group":2}"#,
            r#"{"pre":42,"op":"policy","policy":"CAT-only"}"#,
        ];
        for (e, line) in sample_entries().into_iter().zip(lines) {
            assert_eq!(e.to_line(), line);
            assert_eq!(LogEntry::from_line(line).unwrap(), e);
        }
        for bad in [
            r#"{"op":"epoch","pre":37}"#,
            r#"{"pre":38,"op":"admit","group":4,"bench":"mg"}"#,
            r#"{"pre":37,"op":"epoch","group":1}"#,
        ] {
            assert!(
                matches!(LogEntry::from_line(bad), Err(PersistError::Schema(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn append_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let mut log = EventLog::create(&dir, 37).unwrap();
        for e in &sample_entries() {
            log.append(e).unwrap();
        }
        assert_eq!(log.entries(), 4);
        assert_eq!(load_log(&dir, 37).unwrap(), sample_entries());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_log_is_empty() {
        let dir = tmpdir("missing");
        assert!(load_log(&dir, 99).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_mid_file_corruption_is_not() {
        let dir = tmpdir("torn");
        let mut log = EventLog::create(&dir, 5).unwrap();
        let entries = sample_entries();
        for e in &entries {
            log.append(e).unwrap();
        }
        let path = log_path(&dir, 5);
        let full = fs::read(&path).unwrap();

        // Torn, unterminated tail: half of the last line.
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        assert_eq!(load_log(&dir, 5).unwrap(), entries[..3].to_vec());

        // Mangled line in the middle: refuse.
        let mut mangled = full.clone();
        mangled[10] = b'#';
        fs::write(&path, &mangled).unwrap();
        assert!(matches!(load_log(&dir, 5), Err(PersistError::Corrupt(_))));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite 2: the off-by-one at the snapshot boundary. A snapshot
    /// taken at epoch 37 accepts only a log whose first entry executed
    /// at exactly 37 — 36 (log predates the snapshot) and 38 (log lost
    /// its first entry) are both stale and must be rejected.
    #[test]
    fn chain_guard_rejects_off_by_one_both_ways() {
        let entry = |pre| LogEntry {
            pre,
            kind: EventKind::Epoch,
        };
        assert!(verify_chain(37, &[entry(37), entry(38)]).is_ok());
        assert!(verify_chain(37, &[]).is_ok());
        for stale in [36, 38] {
            match verify_chain(37, &[entry(stale)]) {
                Err(PersistError::Chain { expected, found }) => {
                    assert_eq!((expected, found), (37, stale));
                }
                other => panic!("stale log accepted: {other:?}"),
            }
        }
    }

    #[test]
    fn chain_guard_rejects_backwards_steps() {
        let entry = |pre| LogEntry {
            pre,
            kind: EventKind::Epoch,
        };
        assert!(matches!(
            verify_chain(10, &[entry(10), entry(12), entry(11)]),
            Err(PersistError::Corrupt(_))
        ));
    }
}
