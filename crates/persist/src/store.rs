//! The on-disk snapshot store: atomic writes, digest-checked reads,
//! torn-file fallback, and pruning.
//!
//! A snapshot file is two lines:
//!
//! ```text
//! {"magic":"copart-snap","version":3,"epoch":42,"digest":"<fnv1a64 hex>","len":12345}
//! {...payload: the SnapshotDoc, single line...}
//! ```
//!
//! The header carries an FNV-1a digest and byte length of the payload,
//! so *any* truncation or corruption — a crash mid-`write(2)`, a torn
//! page, a disk filling up — is detected on read and the file is
//! skipped in favour of the previous good snapshot. Writes go through a
//! temp file + `rename(2)`, so a reader never observes a half-written
//! file under the final name; the digest covers the residual cases
//! (torn temp data surviving the rename on power loss).

use std::borrow::Cow;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use copart_telemetry::{fnv1a64, FieldError, JsonReader, JsonWriter, ReadError};

use crate::codec::SnapshotDoc;
use crate::error::PersistError;

/// First header field; anything else is not a snapshot.
pub const SNAP_MAGIC: &str = "copart-snap";

/// Current snapshot format version. Version 3 writes the cache's lines
/// as one packed hex run (`codec::emit_cache_lines`); version 2 wrote
/// them as an array of objects, and is otherwise the same format.
pub const SNAP_VERSION: u64 = 3;

/// Oldest format version `read_snapshot` still accepts: a version-2
/// file's `lines` read through the codec's legacy arm. Version 1 (a
/// plain-number `seed`, no `clusters`) is refused.
pub const SNAP_VERSION_MIN: u64 = 2;

/// The snapshot file for `epoch` inside `dir`. Zero-padded so
/// lexicographic and numeric order agree.
pub fn snapshot_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("snap-{epoch:020}.json"))
}

/// The temp file a snapshot for `epoch` is written to before the rename.
fn temp_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!(".snap-{epoch:020}.tmp"))
}

/// Payload size of the last snapshot this process wrote: the next
/// payload buffer is allocated at that size up front, so streaming a
/// same-shaped document never regrows it. A sizing hint only.
static LAST_PAYLOAD_LEN: AtomicUsize = AtomicUsize::new(0);

/// The header line for a payload: magic, version, epoch, digest, length.
fn header_line(epoch: u64, version: u64, payload: &str) -> String {
    let mut header = String::with_capacity(128);
    let mut w = JsonWriter::new(&mut header);
    w.begin_obj();
    w.key("magic").str(SNAP_MAGIC);
    w.key("version").num(version as f64);
    w.key("epoch").num(epoch as f64);
    w.key("digest").hex16(fnv1a64(payload.as_bytes()));
    w.key("len").num(payload.len() as f64);
    w.end_obj();
    header
}

/// The header's five members — magic, version, epoch, digest, payload
/// length — pulled in the order [`header_line`] writes them.
fn read_header(text: &str) -> Result<(Cow<'_, str>, u64, u64, u64, usize), ReadError> {
    JsonReader::record(text, |r| {
        Ok((
            r.key("magic")?.string()?,
            r.key("version")?.uint()?,
            r.key("epoch")?.uint()?,
            r.key("digest")?.hex_u64()?,
            r.key("len")?.uint()?,
        ))
    })
}

/// Serialises `doc` and writes it atomically into `dir`. Returns the
/// final path and the total bytes written.
///
/// The payload is streamed from the document into one buffer — no
/// `Json` tree, no second copy — digested there, and handed to the temp
/// file after the header; `sync_all` and the rename follow as ever.
///
/// # Errors
///
/// [`PersistError::Io`] when the directory cannot be written.
pub fn write_snapshot(dir: &Path, doc: &SnapshotDoc) -> Result<(PathBuf, u64), PersistError> {
    fs::create_dir_all(dir)?;
    let mut payload = String::with_capacity(LAST_PAYLOAD_LEN.load(Ordering::Relaxed) + 1);
    doc.emit(&mut JsonWriter::new(&mut payload));
    LAST_PAYLOAD_LEN.store(payload.len(), Ordering::Relaxed);
    let mut header = header_line(doc.epoch(), SNAP_VERSION, &payload);
    header.push('\n');
    payload.push('\n');

    let path = snapshot_path(dir, doc.epoch());
    let tmp = temp_path(dir, doc.epoch());
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(header.as_bytes())?;
        f.write_all(payload.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    Ok((path, (header.len() + payload.len()) as u64))
}

/// Reads and fully validates one snapshot file.
///
/// # Errors
///
/// [`PersistError::Corrupt`] for a torn, truncated, or digest-mismatched
/// file; [`PersistError::Schema`] for a well-formed file of the wrong
/// shape; [`PersistError::Io`] when the file cannot be read at all.
pub fn read_snapshot(path: &Path) -> Result<SnapshotDoc, PersistError> {
    parse_snapshot_file(&fs::read(path)?)
}

/// [`read_snapshot`] on a snapshot file's bytes already in memory: the
/// header's members are pulled first, then checked (magic, version,
/// payload length, the payload's digest), and only then is the payload
/// decoded, straight from its text.
///
/// # Errors
///
/// As [`read_snapshot`], less the I/O.
pub fn parse_snapshot_file(bytes: &[u8]) -> Result<SnapshotDoc, PersistError> {
    fn corrupt(what: impl Into<String>) -> PersistError {
        PersistError::Corrupt(what.into())
    }
    let (header_line, rest) = bytes
        .iter()
        .position(|&b| b == b'\n')
        .map(|at| (&bytes[..at], &bytes[at + 1..]))
        .ok_or_else(|| corrupt("no header line"))?;
    let (magic, version, epoch, digest, len) = std::str::from_utf8(header_line)
        .map_err(|e| corrupt(format!("header is not UTF-8: {e}")))
        .and_then(|h| {
            read_header(h).map_err(|e| match e {
                ReadError::Syntax(e) => corrupt(format!("header is not JSON: {e}")),
                // The header is not digested: a digest the writer could
                // not have spelled is damage, like one that does not match.
                ReadError::Field(e) if e == FieldError::new("digest", "hex u64") => {
                    corrupt("digest mismatch")
                }
                other => other.into(),
            })
        })?;
    if magic != SNAP_MAGIC {
        return Err(corrupt("bad magic"));
    }
    if !(SNAP_VERSION_MIN..=SNAP_VERSION).contains(&version) {
        return Err(corrupt(format!(
            "unsupported version {version} (this build reads {SNAP_VERSION_MIN} to {SNAP_VERSION})"
        )));
    }
    let payload = rest.strip_suffix(b"\n").unwrap_or(rest);
    if payload.len() != len {
        return Err(corrupt(format!(
            "payload is {} bytes, header says {len}",
            payload.len()
        )));
    }
    if digest != fnv1a64(payload) {
        return Err(corrupt("digest mismatch"));
    }
    let payload =
        std::str::from_utf8(payload).map_err(|e| corrupt(format!("payload is not UTF-8: {e}")))?;
    let doc = SnapshotDoc::parse_version(payload, version).map_err(|e| match e {
        PersistError::Json(e) => corrupt(format!("payload: {e}")),
        other => other,
    })?;
    if doc.epoch() != epoch {
        return Err(corrupt("header/payload epoch mismatch"));
    }
    Ok(doc)
}

/// One walk of a state directory.
struct DirScan {
    /// Snapshot files as `(epoch, path)`, ascending by epoch.
    snaps: Vec<(u64, PathBuf)>,
    /// `.snap-*.tmp` files a killed writer left behind.
    temps: Vec<PathBuf>,
    /// Event-log files as `(epoch, path)`, in directory order.
    logs: Vec<(u64, PathBuf)>,
}

fn scan(dir: &Path) -> Result<DirScan, PersistError> {
    let mut found = DirScan {
        snaps: Vec::new(),
        temps: Vec::new(),
        logs: Vec::new(),
    };
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(found),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(digits) = name
            .strip_prefix("snap-")
            .and_then(|r| r.strip_suffix(".json"))
        {
            if let Ok(epoch) = digits.parse::<u64>() {
                found.snaps.push((epoch, path));
            }
        } else if name.starts_with(".snap-") && name.ends_with(".tmp") {
            found.temps.push(path);
        } else if let Some(epoch) = name
            .strip_prefix("log-")
            .and_then(|r| r.strip_suffix(".jsonl"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            found.logs.push((epoch, path));
        }
    }
    found.snaps.sort();
    Ok(found)
}

/// Every snapshot file in `dir`, as `(epoch, path)`, ascending by epoch.
/// Files that merely *look* like snapshots are listed; validation
/// happens on read.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, PersistError> {
    Ok(scan(dir)?.snaps)
}

/// The newest snapshot in `dir` that passes full validation, or `None`
/// when the directory holds no usable snapshot. Torn or corrupt files
/// are skipped — this is the crash-recovery entry point, and a crash
/// mid-write must cost at most one snapshot interval, never the run.
pub fn latest_good(dir: &Path) -> Result<Option<(SnapshotDoc, PathBuf)>, PersistError> {
    for (_, path) in list_snapshots(dir)?.into_iter().rev() {
        if let Ok(doc) = read_snapshot(&path) {
            return Ok(Some((doc, path)));
        }
    }
    Ok(None)
}

/// Snapshots (and their logs) a persisted run keeps on disk: the
/// `keep` it passes to [`prune`]. Two, so a snapshot torn by a crash
/// mid-write still leaves a good predecessor whose log chains forward
/// through the torn one's epoch range.
pub const KEEP_SNAPSHOTS: usize = 2;

/// Deletes all but the newest `keep` snapshots, and every event log
/// below the oldest kept one. Keeping two means one whole corrupt
/// snapshot still leaves a recovery point.
///
/// The logs that go are the pruned snapshots' own and the orphans a kill
/// between rotating the log and landing its snapshot leaves (a log with
/// no snapshot file): recovery never starts below the oldest kept
/// snapshot, so nothing reads them. Logs at or above it stay, since a
/// torn newer snapshot still chains through them.
///
/// Also sweeps `.snap-*.tmp` files: a kill between creating the temp
/// file and renaming it leaves one behind that no reader ever looks at.
/// Pruning runs only after a newer snapshot has landed under its final
/// name, so no temp file can still be in flight.
pub fn prune(dir: &Path, keep: usize) -> Result<(), PersistError> {
    let DirScan { snaps, temps, logs } = scan(dir)?;
    for orphan in temps {
        fs::remove_file(&orphan)?;
    }
    let excess = snaps.len().saturating_sub(keep);
    // With nothing kept, every log up to the newest pruned snapshot goes.
    let below = match snaps.get(excess) {
        Some(&(oldest_kept, _)) => oldest_kept,
        None => snaps.last().map_or(0, |&(newest, _)| newest + 1),
    };
    for (_, path) in &snaps[..excess] {
        fs::remove_file(path)?;
    }
    for (epoch, path) in logs {
        if epoch < below {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tiny_doc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("copart-persist-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_round_trips_exactly() {
        let dir = tmpdir("roundtrip");
        let doc = tiny_doc(42);
        let (path, bytes) = write_snapshot(&dir, &doc).unwrap();
        assert!(bytes > 0);
        assert_eq!(read_snapshot(&path).unwrap(), doc);
        let (best, best_path) = latest_good(&dir).unwrap().unwrap();
        assert_eq!(best, doc);
        assert_eq!(best_path, path);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Outside `SNAP_VERSION_MIN..=SNAP_VERSION` a file is refused, with
    /// an error naming its version: version 1 (a plain-number seed, no
    /// `clusters`) and a version from the future alike.
    #[test]
    fn versions_outside_the_read_range_are_refused_by_number() {
        let dir = tmpdir("versions");
        let doc = tiny_doc(9);
        let payload = doc
            .encode()
            .to_string()
            .replace("\"seed\":\"000000000000002a\"", "\"seed\":42");
        let path = snapshot_path(&dir, doc.epoch());
        for version in [1, 99] {
            let header = header_line(doc.epoch(), version, &payload);
            fs::write(&path, format!("{header}\n{payload}\n")).unwrap();
            match read_snapshot(&path) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains(&format!("version {version} ")), "{msg}")
                }
                other => panic!("version {version} accepted: {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A version-2 file, written by the encoder of the last version-2
    /// build from `tiny_doc(9)`: its array of line objects still reads,
    /// and the document re-writes as the current version.
    const V2_FILE: &[u8] = include_bytes!("../tests/fixtures/snap-v2-tiny-doc-9.json");

    #[test]
    fn version_2_files_read_and_rewrite_as_the_current_version() {
        let doc = parse_snapshot_file(V2_FILE).unwrap();
        assert_eq!(doc, tiny_doc(9));
        let dir = tmpdir("v2");
        let (path, _) = write_snapshot(&dir, &doc).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let (header, payload) = text.split_once('\n').unwrap();
        assert_eq!(read_header(header).unwrap().1, SNAP_VERSION);
        assert_eq!(payload, format!("{}\n", doc.encode()));
        assert_eq!(read_snapshot(&path).unwrap(), doc);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The header's version picks the `lines` reader: a version-3 header
    /// over version-2 line objects is a schema error, not a document.
    #[test]
    fn a_current_header_over_version_2_lines_is_a_schema_error() {
        let text = std::str::from_utf8(V2_FILE).unwrap();
        let relabelled = text.replacen("\"version\":2,", "\"version\":3,", 1);
        assert_ne!(relabelled, text, "the fixture's header names version 2");
        match parse_snapshot_file(relabelled.as_bytes()) {
            Err(PersistError::Schema(msg)) => assert!(msg.contains("lines"), "{msg}"),
            other => panic!("version-2 lines read under a version-3 header: {other:?}"),
        }
    }

    /// The header's member order, pinned: a version-3 header line is
    /// the writer's bytes and reads back member for member. A member out
    /// of order or one no writer emits is a schema error.
    #[test]
    fn header_line_is_pinned_in_writer_order() {
        let line =
            r#"{"magic":"copart-snap","version":3,"epoch":42,"digest":"08f44b07b5901a25","len":2}"#;
        assert_eq!(header_line(42, SNAP_VERSION, "{}"), line);
        let (magic, version, epoch, digest, len) = read_header(line).unwrap();
        assert_eq!(
            (&*magic, version, epoch, digest, len),
            (SNAP_MAGIC, 3, 42, fnv1a64(b"{}"), 2)
        );
        let reordered = line.replacen(r#""version":3,"epoch":42"#, r#""epoch":42,"version":3"#, 1);
        let extra = line.replacen(r#","len":2}"#, r#","len":2,"kind":"sim"}"#, 1);
        for bad in [reordered, extra] {
            let file = format!("{bad}\n{{}}\n");
            match parse_snapshot_file(file.as_bytes()) {
                Err(PersistError::Schema(_)) => {}
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn latest_good_prefers_the_newest() {
        let dir = tmpdir("newest");
        write_snapshot(&dir, &tiny_doc(10)).unwrap();
        write_snapshot(&dir, &tiny_doc(20)).unwrap();
        let (best, _) = latest_good(&dir).unwrap().unwrap();
        assert_eq!(best.epoch(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite 1: truncate the newest snapshot at *every* byte offset;
    /// recovery must fall back to the previous good snapshot (or accept
    /// the file only once every payload byte survived).
    #[test]
    fn truncation_at_every_byte_offset_falls_back() {
        let dir = tmpdir("truncate");
        let old = tiny_doc(10);
        write_snapshot(&dir, &old).unwrap();
        let new = tiny_doc(20);
        let (new_path, _) = write_snapshot(&dir, &new).unwrap();
        let full = fs::read(&new_path).unwrap();
        // Everything before the trailing newline is load-bearing.
        let min_valid = full.len() - 1;

        for cut in 0..=full.len() {
            fs::write(&new_path, &full[..cut]).unwrap();
            let (best, _) = latest_good(&dir)
                .unwrap()
                .unwrap_or_else(|| panic!("no snapshot recovered at cut {cut}"));
            if cut < min_valid {
                assert_eq!(best, old, "cut {cut} must fall back to epoch 10");
            } else {
                assert_eq!(best, new, "cut {cut} keeps the full payload");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_corruption_is_detected_by_the_digest() {
        let dir = tmpdir("bitflip");
        let doc = tiny_doc(7);
        let (path, _) = write_snapshot(&dir, &doc).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the middle of the payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match read_snapshot(&path) {
            Err(PersistError::Corrupt(_)) | Err(PersistError::Schema(_)) => {}
            other => panic!("corruption not detected: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The header is outside the digest, so its digest field must be
    /// the writer's spelling: the same value in upper case is a damaged
    /// header, not an intact file.
    #[test]
    fn a_header_digest_in_another_spelling_is_corrupt() {
        let dir = tmpdir("digest-case");
        let (path, _) = write_snapshot(&dir, &tiny_doc(7)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let (header, _) = text.split_once('\n').unwrap();
        let digest = format!("{:016x}", read_header(header).unwrap().3);
        let upper = digest.to_uppercase();
        assert_ne!(upper, digest, "the digest holds a hex letter");
        fs::write(&path, text.replacen(&digest, &upper, 1)).unwrap();
        match read_snapshot(&path) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("digest"), "{msg}"),
            other => panic!("a re-spelled digest read: {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_the_newest_and_drops_old_logs() {
        let dir = tmpdir("prune");
        for epoch in [10, 20, 30] {
            write_snapshot(&dir, &tiny_doc(epoch)).unwrap();
            fs::write(crate::log::log_path(&dir, epoch), "").unwrap();
        }
        prune(&dir, 2).unwrap();
        let left: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(left, vec![20, 30]);
        assert!(!crate::log::log_path(&dir, 10).exists());
        assert!(crate::log::log_path(&dir, 20).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill between rotating the log and landing its snapshot leaves a
    /// log with no snapshot. Below the oldest kept snapshot such a log
    /// goes; at or above it, it stays, because recovery from that
    /// snapshot chains through it.
    #[test]
    fn prune_drops_orphan_logs_below_the_oldest_kept_snapshot() {
        let dir = tmpdir("orphan-logs");
        for epoch in [10, 30, 40] {
            write_snapshot(&dir, &tiny_doc(epoch)).unwrap();
        }
        for epoch in [10, 20, 30, 35, 40, 50] {
            fs::write(crate::log::log_path(&dir, epoch), "").unwrap();
        }
        prune(&dir, 2).unwrap();
        let left: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(left, vec![30, 40]);
        let log_left = |epoch| crate::log::log_path(&dir, epoch).exists();
        assert!(!log_left(10) && !log_left(20), "logs below epoch 30 go");
        assert!([30, 35, 40, 50].into_iter().all(log_left), "the rest stay");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A kill between `File::create(tmp)` and `rename` strands the temp
    /// file; nothing lists it, so only `prune` can reclaim it.
    #[test]
    fn prune_sweeps_orphaned_temp_files() {
        let dir = tmpdir("orphan");
        write_snapshot(&dir, &tiny_doc(10)).unwrap();
        write_snapshot(&dir, &tiny_doc(20)).unwrap();
        // A third snapshot torn mid-write under its final name, and the
        // temp file of a fourth that never got renamed.
        let (torn, _) = write_snapshot(&dir, &tiny_doc(30)).unwrap();
        let full = fs::read(&torn).unwrap();
        fs::write(&torn, &full[..full.len() / 2]).unwrap();
        let orphan = temp_path(&dir, 40);
        fs::write(&orphan, &full[..full.len() / 3]).unwrap();

        prune(&dir, 2).unwrap();
        assert!(!orphan.exists(), "the orphaned temp file is swept");
        let left: Vec<u64> = list_snapshots(&dir)
            .unwrap()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        assert_eq!(left, vec![20, 30], "the newest two names are kept");
        let (best, _) = latest_good(&dir).unwrap().unwrap();
        assert_eq!(best.epoch(), 20, "recovery falls back past the torn one");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_or_missing_dir_recovers_nothing() {
        let dir = tmpdir("empty");
        assert!(latest_good(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
        assert!(latest_good(&dir).unwrap().is_none());
    }
}
