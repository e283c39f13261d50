//! `decoder-rejects-corruption`: damaged text of every format the
//! workspace writes and reads back is an error, never a panic and never
//! a silently different value.
//!
//! Recovery decodes whatever a killed writer or a failing disk left
//! behind — the snapshot, the event log, the trace file it cuts back —
//! and the fleet decodes tickets and its decision trace, so the
//! decoders face hostile bytes. Each case takes the final snapshot of a
//! short persisted H-Both run (computed once per process, with the
//! run's trace and event-log lines), cuts its cache-line list to a drawn
//! length and optionally swaps in a faulted backend (so `fault_state` is
//! on the wire), then checks:
//!
//! * the pull decoder ([`SnapshotDoc::parse`]) on the payload: every
//!   truncation in a drawn 256-byte window is `Err`, and `K` seeded
//!   byte flips anywhere return `Err` or a document — never a panic;
//! * the snapshot file ([`parse_snapshot_file`], the body of
//!   [`read_snapshot`]): every truncation that loses a payload byte, and
//!   a one-bit flip (drawn bit) of every header byte, of the trailing
//!   newline and of a drawn window of payload bytes, is `Err`; one drawn
//!   truncation and one drawn flip also go through [`read_snapshot`] on
//!   a real file;
//! * a migration ticket carrying one of the document's applications:
//!   the whole line reads back equal, every truncation is `Err`;
//! * the line formats ([`TraceEvent`], [`LogEntry`], [`FleetEvent`]): a
//!   drawn trace line of the run (carrying a `fault` record when the
//!   case is faulted), an event-log line of each op and a fleet-trace
//!   line of each kind each read back to the bytes they were written
//!   as, every strict prefix is `Err`, and the same `K` seeded flips
//!   return `Err` or a value — never a panic.
//!
//! A truncated payload or line is never a complete JSON value, so `Err`
//! is the only right answer there; a flipped payload byte always moves
//! the FNV-1a digest (each step of FNV-1a is a bijection of its state),
//! so the file check must catch every payload flip before decoding. The
//! header is not digested: it must be rejected by its own checks, which
//! is why its digest field reads only in the writer's spelling (sixteen
//! lowercase hex digits, like every hex field) rather than as any hex
//! spelling of the same value.

use std::collections::HashSet;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_core::policies::PolicyKind;
use copart_faults::{FaultStateSnapshot, InjectionStats, SiteSnapshot};
use copart_fleet::{run_fleet, FleetConfig, FleetEvent, MigrationTicket};
use copart_persist::log::log_path;
use copart_persist::store::list_snapshots;
use copart_persist::{
    harness_run, latest_good, parse_snapshot_file, read_snapshot, write_snapshot, BackendSnapshot,
    EventKind, LogEntry, Scenario, SnapshotDoc,
};
use copart_telemetry::{FaultSample, JsonWriter, TraceEvent};
use copart_workloads::MixKind;

/// Consecutive payload truncations checked per case.
const TRUNCATION_WINDOW: usize = 256;
/// Seeded payload flips fed to the pull decoder per case.
const DECODER_FLIPS: usize = 16;
/// Consecutive payload bytes flipped in the file per case (each costs a
/// full digest, so the window is short).
const FILE_FLIP_WINDOW: usize = 64;

/// A scratch directory no other case (in this process or another) uses.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "copart-check-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// What the base runs leave behind, run once per process: the final
/// snapshot of `sim-run --mix h-both --apps 2 --epochs 4
/// --snapshot-every 2` with its decision trace, and as `(format, line)`
/// its first event-log line and the first line of each kind in a small
/// fleet run's trace.
struct Base {
    doc: SnapshotDoc,
    trace: Vec<String>,
    lines: Vec<(&'static str, String)>,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let dir = scratch_dir("corruption-base");
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 42, None)
            .expect("a 2-app H-Both scenario is valid");
        std::fs::create_dir_all(&dir).expect("scratch directory is writable");
        harness_run(
            &scenario,
            4,
            None,
            &dir,
            2,
            &dir.join("trace.jsonl"),
            false,
            &[],
        )
        .expect("the persisted run completes");
        let (doc, _) = latest_good(&dir)
            .expect("the state directory lists")
            .expect("the run leaves a snapshot");
        let read = |path: PathBuf| std::fs::read_to_string(path).expect("the run's file reads");
        let trace = read(dir.join("trace.jsonl"));
        let oldest = list_snapshots(&dir).expect("the state directory lists")[0].0;
        let log = read(log_path(&dir, oldest));
        let _ = std::fs::remove_dir_all(&dir);

        // Two nodes of capacity 2 for ten tenants, rebalancing on any
        // unfairness: placements, deferrals, departures and a migration.
        let mut cfg = FleetConfig::new(2, 10, 3);
        (cfg.horizon, cfg.capacity) = (16, 2);
        (cfg.rebalance.threshold, cfg.rebalance.patience) = (0.0, 1);
        let fleet = run_fleet(&cfg).expect("the fleet run completes").trace;
        let mut kinds = HashSet::new();
        let fleet = fleet.lines().filter(|l| kinds.insert(l.split(',').next()));
        let lines = log.lines().take(1).map(|l| ("log", l.to_string()));
        let lines = lines
            .chain(fleet.map(|l| ("fleet", l.to_string())))
            .collect();
        assert_eq!(kinds.len(), 6, "the fleet run writes every kind");
        let trace = trace.lines().map(String::from).collect();
        Base { doc, trace, lines }
    })
}

/// A faulted backend over the same machine, with every fault counter
/// and stream position set.
fn faulted(backend: BackendSnapshot) -> BackendSnapshot {
    let (BackendSnapshot::Sim {
        machine,
        groups,
        next_clos,
    }
    | BackendSnapshot::Faulty {
        machine,
        groups,
        next_clos,
        ..
    }) = backend;
    let site = |k: u64| SiteSnapshot {
        rng_state: u64::MAX - k,
        calls: k,
    };
    BackendSnapshot::Faulty {
        machine,
        groups,
        next_clos,
        fault_state: FaultStateSnapshot {
            sites: [site(0), site(1), site(2), site(3), site(4)],
            stats: InjectionStats {
                dropouts: 1,
                cbm_write_faults: 2,
                mba_write_faults: 3,
                vanishes: 4,
                clock_stalls: 1 << 60,
            },
        },
    }
}

fn corruption_case(src: &mut Source) -> CaseOutcome {
    // Positions are drawn as raw values and reduced modulo the text's
    // length, so the witness is a function of the draws alone (a
    // simulator change that resizes the snapshot re-decodes no tape).
    let lines = src.size(0, 3);
    let faulty = src.chance(0.5);
    let window = src.below(1 << 20);
    let flips: Vec<(u64, u8)> = (0..DECODER_FLIPS)
        // XOR below 0x80 keeps the ASCII payload valid UTF-8.
        .map(|_| (src.below(1 << 20), 1 + src.below(0x7f) as u8))
        .collect();
    let bit = src.below(8) as u8;
    let app = src.below(4);
    let witness = format!(
        "lines={lines} faulty={faulty} window={window} bit={bit} app={app} flips={flips:?}"
    );

    let base = base();
    let mut doc = base.doc.clone();
    let (BackendSnapshot::Sim { machine, .. } | BackendSnapshot::Faulty { machine, .. }) =
        &mut doc.backend;
    machine.cache.lines.truncate(lines);
    if faulty {
        doc.backend = faulted(doc.backend);
    }
    let mut payload = String::new();
    doc.emit(&mut JsonWriter::new(&mut payload));
    let window = (window % payload.len() as u64) as usize;
    let cuts = window..(window + TRUNCATION_WINDOW).min(payload.len());
    let app = (app % doc.runtime.apps.len() as u64) as usize;
    let verdict = check_text("payload", &payload, cuts, &flips)
        .and_then(|()| check_file(&doc, window, bit))
        .and_then(|()| check_lines(base, &doc, app, faulty, window as u64, &flips));
    CaseOutcome { witness, verdict }
}

fn check_file(doc: &SnapshotDoc, window: usize, bit: u8) -> Result<(), String> {
    let dir = scratch_dir("corruption-file");
    let result = (|| {
        let (path, _) = write_snapshot(&dir, doc).map_err(|e| format!("write: {e}"))?;
        let file = std::fs::read(&path).map_err(|e| format!("read back: {e}"))?;
        match parse_snapshot_file(&file) {
            Ok(back) if back == *doc => {}
            other => return Err(format!("the intact file does not read back: {other:?}")),
        }
        // Dropping only the trailing newline keeps every payload byte,
        // and the store accepts that file by design.
        let whole_payload = file.len() - 1;
        for cut in (0..whole_payload).rev() {
            if parse_snapshot_file(&file[..cut]).is_ok() {
                return Err(format!("the file cut to {cut} bytes reads"));
            }
        }
        let header = file
            .iter()
            .position(|&b| b == b'\n')
            .expect("a header line");
        let payload_flips =
            header + 1 + window..(header + 1 + window + FILE_FLIP_WINDOW).min(file.len());
        let mut bytes = file.clone();
        let mask = 1 << bit;
        for at in (0..=header).chain(payload_flips).chain([file.len() - 1]) {
            bytes[at] ^= mask;
            if parse_snapshot_file(&bytes).is_ok() {
                return Err(format!("the file with byte {at} XOR {mask:#04x} reads"));
            }
            bytes[at] ^= mask;
        }
        // The same bytes through the path-taking entry point.
        let at = window.min(file.len() - 1);
        bytes[at] ^= mask;
        for (what, damaged) in [("truncated", &file[..at]), ("flipped", &bytes[..])] {
            std::fs::write(&path, damaged).map_err(|e| format!("rewrite: {e}"))?;
            if read_snapshot(&path).is_ok() {
                return Err(format!(
                    "read_snapshot accepts the {what} file (at byte {at})"
                ));
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The line formats: a migration ticket carrying the document's
/// application `app`, a drawn trace line of the base run (given a
/// `fault` record when the case is faulted), an event-log line of each
/// op (the run logs epochs; the others carry the document's facts) and
/// the fleet run's line of each kind.
fn check_lines(
    base: &Base,
    doc: &SnapshotDoc,
    app: usize,
    faulty: bool,
    window: u64,
    flips: &[(u64, u8)],
) -> Result<(), String> {
    let state = &doc.runtime.apps[app];
    let ticket = MigrationTicket {
        app: app as u64,
        epoch: doc.epoch(),
        from: 0,
        to: 1,
        state: state.clone(),
    };
    let mut trace = base.trace[(window % base.trace.len() as u64) as usize].clone();
    if faulty {
        let mut event = TraceEvent::from_json_line(&trace)
            .map_err(|e| format!("the run's trace line does not read: {e}"))?;
        event.fault = Some(FaultSample {
            degraded: event.apps.iter().map(|a| a.name.clone()).collect(),
            write_retries: 2,
            rolled_back: true,
        });
        trace = event.to_json_line();
    }
    let (pre, group) = (doc.epoch(), state.group);
    let (bench, name) = (state.name.clone(), doc.meta.policy.clone());
    let ops = [
        EventKind::Admit { bench, group },
        EventKind::Remove { group },
        EventKind::Policy { name },
    ];
    let log = ops.map(|kind| ("log", LogEntry { pre, kind }.to_line()));
    let lines = [("ticket", ticket.to_json_line()), ("trace", trace)]
        .into_iter()
        .chain(log)
        .chain(base.lines.iter().cloned());
    for (what, line) in lines {
        check_text(what, &line, 0..line.len(), flips)?;
    }
    Ok(())
}

/// What `what` text decodes to, written back; `None` when it does not
/// decode.
fn reread(what: &str, text: &str) -> Option<String> {
    Some(match what {
        "payload" => SnapshotDoc::parse(text).ok()?.encode().to_string(),
        "ticket" => MigrationTicket::parse_json_line(text).ok()?.to_json_line(),
        "trace" => TraceEvent::from_json_line(text).ok()?.to_json_line(),
        "log" => LogEntry::from_line(text).ok()?.to_line(),
        _ => FleetEvent::parse_json_line(text).ok()?.to_json_line(),
    })
}

/// Text one writer wrote reads back to its own bytes, a cut at each of
/// `cuts` (a window of a payload, every strict prefix of a line) is
/// `Err`, and the seeded byte flips return `Err` or a value — never a
/// panic.
fn check_text(
    what: &str,
    text: &str,
    cuts: Range<usize>,
    flips: &[(u64, u8)],
) -> Result<(), String> {
    if reread(what, text).as_deref() != Some(text) {
        return Err(format!("the intact {what} does not read back to itself"));
    }
    if let Some(cut) = cuts
        .into_iter()
        .find(|&cut| reread(what, &text[..cut]).is_some())
    {
        return Err(format!("the {what} cut to {cut} bytes reads"));
    }
    let mut bytes = text.as_bytes().to_vec();
    for &(draw, mask) in flips {
        let at = (draw % bytes.len() as u64) as usize;
        bytes[at] ^= mask;
        let damaged = std::str::from_utf8(&bytes).expect("ASCII stays ASCII");
        // Either outcome is fine; a panic is the failure.
        let _ = reread(what, damaged);
        bytes[at] ^= mask;
    }
    Ok(())
}

/// The corruption oracle.
pub fn properties() -> Vec<Property> {
    vec![Property::new("decoder-rejects-corruption", corruption_case)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..4 {
            let mut src = Source::from_seed(seed);
            let out = corruption_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }
}
