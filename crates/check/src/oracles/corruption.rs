//! `decoder-rejects-corruption`: damaged snapshot and ticket text is an
//! error, never a panic and never a silently different document.
//!
//! Recovery decodes whatever a killed writer or a failing disk left
//! behind, and the fleet decodes tickets from its audit trail, so the
//! decoders face hostile bytes. Each case takes the final snapshot of a
//! short persisted H-Both run (computed once per process), cuts its
//! cache-line list to a drawn length and optionally swaps in a faulted
//! backend (so `fault_state` is on the wire), then checks:
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
//!   the whole line reads back equal, every truncation is `Err`.
//!
//! A truncated payload is never a complete JSON value, so `Err` is the
//! only right answer there; a flipped payload byte always moves the
//! FNV-1a digest (each step of FNV-1a is a bijection of its state), so
//! the file check must catch every payload flip before decoding. The
//! header is not digested: it must be rejected by its own checks, which
//! is why the digest field is compared as the exact text the writer
//! renders rather than as any hex spelling of the same value.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_core::policies::PolicyKind;
use copart_faults::{FaultStateSnapshot, InjectionStats, SiteSnapshot};
use copart_fleet::MigrationTicket;
use copart_persist::{
    latest_good, parse_snapshot_file, read_snapshot, write_snapshot, BackendSnapshot, SnapshotDoc,
};
use copart_serve::{harness_run, Scenario};
use copart_telemetry::JsonWriter;
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

/// The final snapshot of `sim-run --mix h-both --apps 2 --epochs 4
/// --snapshot-every 2`, run once per process.
fn base_doc() -> &'static SnapshotDoc {
    static DOC: OnceLock<SnapshotDoc> = OnceLock::new();
    DOC.get_or_init(|| {
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
        let _ = std::fs::remove_dir_all(&dir);
        doc
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

    let mut doc = base_doc().clone();
    let (BackendSnapshot::Sim { machine, .. } | BackendSnapshot::Faulty { machine, .. }) =
        &mut doc.backend;
    machine.cache.lines.truncate(lines);
    if faulty {
        doc.backend = faulted(doc.backend);
    }
    let mut payload = String::new();
    doc.emit(&mut JsonWriter::new(&mut payload));
    let at = |draw: u64| (draw % payload.len() as u64) as usize;
    let flips: Vec<(usize, u8)> = flips.iter().map(|&(draw, mask)| (at(draw), mask)).collect();
    let app = (app % doc.runtime.apps.len() as u64) as usize;
    let verdict = check_payload(&doc, &payload, at(window), &flips)
        .and_then(|()| check_file(&doc, at(window), bit))
        .and_then(|()| check_ticket(&doc, app));
    CaseOutcome { witness, verdict }
}

fn check_payload(
    doc: &SnapshotDoc,
    payload: &str,
    window: usize,
    flips: &[(usize, u8)],
) -> Result<(), String> {
    match SnapshotDoc::parse(payload) {
        Ok(back) if back == *doc => {}
        other => {
            return Err(format!(
                "the intact payload does not decode to itself: {other:?}"
            ))
        }
    }
    for cut in window..(window + TRUNCATION_WINDOW).min(payload.len()) {
        if let Ok(back) = SnapshotDoc::parse(&payload[..cut]) {
            return Err(format!(
                "the payload cut to {cut} bytes decodes (epoch {})",
                back.epoch()
            ));
        }
    }
    let mut bytes = payload.as_bytes().to_vec();
    for &(at, mask) in flips {
        bytes[at] ^= mask;
        let text = std::str::from_utf8(&bytes).expect("ASCII stays ASCII");
        // Either outcome is fine; a panic is the failure.
        let _ = SnapshotDoc::parse(text);
        bytes[at] ^= mask;
    }
    Ok(())
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

fn check_ticket(doc: &SnapshotDoc, app: usize) -> Result<(), String> {
    let ticket = MigrationTicket {
        app: app as u64,
        epoch: doc.epoch(),
        from: 0,
        to: 1,
        state: doc.runtime.apps[app].clone(),
    };
    let line = ticket.to_json_line();
    match MigrationTicket::parse_json_line(&line) {
        Ok(back) if back == ticket => {}
        other => return Err(format!("the intact ticket does not read back: {other:?}")),
    }
    match (0..line.len()).find(|&cut| MigrationTicket::parse_json_line(&line[..cut]).is_ok()) {
        Some(cut) => Err(format!("the ticket line cut to {cut} bytes reads")),
        None => Ok(()),
    }
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
