//! The persistence layer's error type.

use std::fmt;

/// Anything that can go wrong while saving or recovering state.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A stored document is not well-formed JSON.
    Json(copart_telemetry::JsonError),
    /// A stored document failed an integrity check (bad magic, version,
    /// length, or digest) — the file is torn or tampered with.
    Corrupt(String),
    /// A well-formed document is missing a field or holds one of the
    /// wrong shape.
    Schema(String),
    /// An event log does not chain onto the state it would replay over:
    /// the entry was recorded at epoch `found`, but the restored runtime
    /// sits at epoch `expected`.
    Chain {
        /// The epoch the runtime is at.
        expected: u64,
        /// The epoch the log entry was recorded at.
        found: u64,
    },
    /// Replaying an entry against the backend failed.
    Backend(copart_rdt::RdtError),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o: {e}"),
            PersistError::Json(e) => write!(f, "json: {e}"),
            PersistError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            PersistError::Schema(what) => write!(f, "schema: {what}"),
            PersistError::Chain { expected, found } => write!(
                f,
                "event log does not chain: runtime at epoch {expected}, entry recorded at {found}"
            ),
            PersistError::Backend(e) => write!(f, "replay backend: {e}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Json(e) => Some(e),
            PersistError::Backend(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

impl From<copart_telemetry::JsonError> for PersistError {
    fn from(e: copart_telemetry::JsonError) -> PersistError {
        PersistError::Json(e)
    }
}

impl From<copart_telemetry::ReadError> for PersistError {
    fn from(e: copart_telemetry::ReadError) -> PersistError {
        match e {
            copart_telemetry::ReadError::Syntax(e) => e.into(),
            copart_telemetry::ReadError::Field(e) => PersistError::Schema(e.to_string()),
        }
    }
}

impl From<copart_rdt::RdtError> for PersistError {
    fn from(e: copart_rdt::RdtError) -> PersistError {
        PersistError::Backend(e)
    }
}
