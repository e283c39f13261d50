//! The migration wire format: one tenant's frozen controller state in
//! flight between nodes.
//!
//! Rebalancing hands a tenant from a hot node to a cooler one. The
//! ticket that travels is the snapshot codec's per-application record
//! ([`copart_persist::codec::emit_app_runtime`], streamed into the line
//! by the one `JsonWriter`) wrapped in routing metadata — the same
//! bit-exact hex-float encoding the crash snapshots use, so the state
//! that leaves the source is provably the state that arrives (the digest
//! in the fleet trace's migration event is the FNV-1a of this very
//! encoding). Decoding pulls every member from the line through the
//! typed reads of `JsonReader`, so a routing id that is not an exact
//! unsigned integer is an error, never a coerced value. The destination
//! re-admits the tenant through the ordinary §5.4.3 launch path —
//! profiling restarts because `IPS_full` is a per-machine quantity — and
//! the ticket stays in the audit trail as the proof of what was carried.

use copart_core::runtime::AppRuntimeSnapshot;
use copart_persist::codec::{emit_app_runtime, read_app_runtime};
use copart_persist::PersistError;
use copart_telemetry::{fnv1a64, JsonReader, JsonWriter};

/// One tenant's state in flight from `from` to `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationTicket {
    /// Fleet-unique application id.
    pub app: u64,
    /// Fleet epoch the migration was decided.
    pub epoch: u64,
    /// Source node id.
    pub from: u64,
    /// Destination node id.
    pub to: u64,
    /// The tenant's frozen controller state as captured on the source.
    pub state: AppRuntimeSnapshot,
}

impl MigrationTicket {
    /// One JSONL audit line; floats travel as bit-exact hex strings.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        let mut w = JsonWriter::new(&mut line);
        w.begin_obj();
        w.key("app").num(self.app as f64);
        w.key("epoch").num(self.epoch as f64);
        w.key("from").num(self.from as f64);
        w.key("to").num(self.to as f64);
        w.key("state");
        emit_app_runtime(&mut w, &self.state);
        w.end_obj();
        line
    }

    /// Parses a JSONL audit line.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a malformed ticket.
    pub fn parse_json_line(line: &str) -> Result<MigrationTicket, PersistError> {
        MigrationTicket::read_line(line).map_err(|e| match e {
            PersistError::Json(e) => PersistError::Corrupt(format!("ticket is not JSON: {e}")),
            other => other,
        })
    }

    /// Pulls the members [`MigrationTicket::to_json_line`] writes, in its
    /// order, straight from the line.
    fn read_line(line: &str) -> Result<MigrationTicket, PersistError> {
        JsonReader::record(line, |r| {
            Ok(MigrationTicket {
                app: r.key("app")?.uint()?,
                epoch: r.key("epoch")?.uint()?,
                from: r.key("from")?.uint()?,
                to: r.key("to")?.uint()?,
                state: read_app_runtime(r.key("state")?)?,
            })
        })
    }

    /// FNV-1a digest of the encoded ticket — the value the fleet
    /// trace's migration event carries, binding the trace to the exact
    /// bytes that moved.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_json_line().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_core::fsm::AppState;

    fn ticket() -> MigrationTicket {
        MigrationTicket {
            app: 17,
            epoch: 9,
            from: 3,
            to: 5,
            state: AppRuntimeSnapshot {
                group: 2,
                name: "a17-WN".to_string(),
                // Deliberately awkward floats: bit-exactness is the test.
                ips_full: 1.0e9 + 1.0 / 3.0,
                weight: 1.0,
                sensor: copart_core::SensorSnapshot {
                    capacity: 8,
                    samples: Vec::new(),
                    ewma: [Some(1.5), None, None, Some(0.01)],
                },
                llc_state: AppState::Demand,
                mba_state: AppState::Supply,
                prev_ips: f64::MIN_POSITIVE,
                last_ips: 0.1 + 0.2,
                last_events: Default::default(),
            },
        }
    }

    #[test]
    fn ticket_roundtrips_bit_exactly() {
        let t = ticket();
        let line = t.to_json_line();
        let back = MigrationTicket::parse_json_line(&line).unwrap();
        assert_eq!(t, back);
        assert_eq!(
            t.state.last_ips.to_bits(),
            back.state.last_ips.to_bits(),
            "floats must survive bit-exactly"
        );
        assert_eq!(t.digest(), back.digest());
    }

    #[test]
    fn digest_tracks_state_changes() {
        let t = ticket();
        let mut u = ticket();
        u.state.last_ips = u.state.last_ips.next_up();
        assert_ne!(t.digest(), u.digest(), "one ULP must change the digest");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MigrationTicket::parse_json_line("{}").is_err());
        assert!(MigrationTicket::parse_json_line("not json").is_err());
        // Routing ids no encoder wrote are refused, not coerced (the
        // fleet trace's garbage table).
        let line = ticket().to_json_line();
        for (key, value) in [("app", 17), ("epoch", 9), ("from", 3), ("to", 5)] {
            let field = format!("\"{key}\":{value},");
            assert!(line.contains(&field), "{line}");
            for garbage in ["-1", "1.5", "1e300", "\"7\""] {
                let bad = line.replace(&field, &format!("\"{key}\":{garbage},"));
                let err = MigrationTicket::parse_json_line(&bad).unwrap_err();
                assert!(
                    err.to_string().contains(&format!("\"{key}\"")),
                    "{bad}: {err}"
                );
            }
        }
    }
}
