//! Crash-safe state for the CoPart resource manager (DESIGN.md §16).
//!
//! A control loop that partitions a shared machine cannot afford to lose
//! its head over a daemon restart: the partition it had converged on is
//! still programmed into the hardware, and re-profiling from scratch
//! would churn every tenant through another exploration phase. This
//! crate makes the whole pipeline *resumable* instead, with two
//! complementary pieces:
//!
//! * **Epoch snapshots** — [`SnapshotDoc`] freezes the complete dynamic
//!   state at an epoch boundary: the controller
//!   ([`copart_core::RuntimeSnapshot`]: classifier FSMs, sensor
//!   windows/EWMAs, explorer RNG position, system state), the backend
//!   ([`BackendSnapshot`]: simulated machine, group table, fault-stream
//!   positions), and the cumulative metrics. [`store`] writes it
//!   atomically (temp file + rename) under a digest-bearing header, so a
//!   torn write is *detected and skipped*, never half-loaded.
//! * **An event-sourced log** — between snapshots, every input that
//!   steers the run (epoch ticks, admissions, removals, policy switches)
//!   is appended to a [`log::EventLog`] as a [`LogEntry`]. Recovery
//!   restores the latest good snapshot and replays the log tail
//!   (`copart_serve::Recovered::replay`, which owns the scenario context
//!   an admission or a policy switch needs);
//!   because every entry records the epoch counter it executed at
//!   (`pre`), a log that does not chain onto the snapshot — or a replay
//!   that diverges mid-tail — is rejected instead of silently forking
//!   history.
//!
//! The result is the crate's headline invariant, enforced end-to-end by
//! `tests/crash_recovery.rs`: kill the daemon at *any* epoch K, resume
//! from the state directory, and the continuation is **byte-identical**
//! to a run that was never interrupted — same trace lines, same RNG
//! draws, same counters.
//!
//! Everything is serialised through the in-workspace
//! [`copart_telemetry::Json`] layer; `f64`s and wide `u64`s travel as
//! hex strings ([`codec`]) because bit-exactness, not readability, is
//! the contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
pub mod error;
pub mod log;
pub mod metrics;
pub mod store;

#[cfg(test)]
pub(crate) mod testutil;

pub use backend::{BackendSnapshot, PersistableBackend};
pub use codec::{SnapshotDoc, SnapshotMeta};
pub use error::PersistError;
pub use log::{EventKind, EventLog, LogEntry};
pub use metrics::MetricsFrozen;
pub use store::{
    latest_good, parse_snapshot_file, prune, read_snapshot, write_snapshot, SNAP_MAGIC,
    SNAP_VERSION, SNAP_VERSION_MIN,
};
