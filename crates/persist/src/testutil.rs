//! Hand-built snapshot documents for unit tests. Every field is set to
//! an awkward value (top-bit u64s, non-representable decimals) so the
//! codec's bit-exactness is actually exercised.

use copart_core::next_state::AppliedEvents;
use copart_core::{
    AllocationState, AppRuntimeSnapshot, AppState, ExplorerSnapshot, Phase, RuntimeSnapshot,
    SensorSnapshot, SystemState,
};
use copart_faults::{FaultStateSnapshot, InjectionStats, SiteSnapshot};
use copart_rdt::MbaLevel;
use copart_sim::cache::{CacheLineSnapshot, CacheSnapshot};
use copart_sim::trace::{AccessPattern, TraceGenSnapshot};
use copart_sim::{AppSpec, MachineSnapshot, SimAppSnapshot};
use copart_telemetry::CounterSnapshot;

use crate::backend::BackendSnapshot;
use crate::codec::{SnapshotDoc, SnapshotMeta};
use crate::metrics::MetricsFrozen;

fn tiny_state() -> SystemState {
    SystemState {
        allocs: vec![
            AllocationState {
                ways: 13,
                mba: MbaLevel::new(70),
            },
            AllocationState {
                ways: 7,
                mba: MbaLevel::new(100),
            },
        ],
    }
}

fn tiny_machine() -> MachineSnapshot {
    let spec = AppSpec {
        name: "mg".to_string(),
        cores: 4,
        ipc_peak: 1.7,
        apki: 25.3,
        write_fraction: 0.31,
        mlp: 5.5,
        phases: vec![
            (
                0.8,
                AccessPattern::Zipf {
                    bytes: 64 << 20,
                    exponent: 0.99,
                },
            ),
            (0.2, AccessPattern::Stream { bytes: 512 << 20 }),
        ],
    };
    MachineSnapshot {
        time_ns: u64::MAX - 5,
        clos_table: vec![(0, 0xf_ffff, 100), (1, 0b1111, 50)],
        apps: vec![
            Some(SimAppSnapshot {
                spec,
                clos: 1,
                gen: TraceGenSnapshot {
                    cursors: vec![u64::MAX / 3, 17],
                    rng_state: 0x9e37_79b9_7f4a_7c15,
                    active: 1,
                    burst_left: 17,
                },
                ips_estimate: 2.5e9,
                miss_ratio: 0.1 + 0.2, // 0.30000000000000004: must survive
                wb_per_access: 0.25,
                instructions: 1e15 + 1.0,
                cycles: 3e15,
                accesses: 4.2e13,
                misses: 3.3e12,
                mem_traffic_bytes: 9.9e14,
            }),
            None,
        ],
        cache: CacheSnapshot {
            clock: 123_456_789_012_345,
            lines: vec![CacheLineSnapshot {
                index: 42,
                tag: u64::MAX >> 1,
                lru: 1 << 62,
                owner: 1,
                dirty: true,
            }],
        },
    }
}

/// A small but fully-populated snapshot document at `epoch`.
pub(crate) fn tiny_doc(epoch: u64) -> SnapshotDoc {
    let state = tiny_state();
    SnapshotDoc {
        meta: SnapshotMeta {
            mix: "M-Both".to_string(),
            n_apps: 2,
            policy: "CoPart".to_string(),
            seed: 42,
            faults: String::new(),
            daemon_epochs: epoch / 2,
        },
        runtime: RuntimeSnapshot {
            epoch,
            phase: Phase::Exploring,
            state: state.clone(),
            clusters: vec![0, 1],
            explorer: ExplorerSnapshot {
                rng_state: 0xdead_beef_cafe_f00d,
                retry_count: 2,
                unfairness_at_idle: 0.0625,
                best_seen: Some((1.0 / 3.0, state)),
            },
            apps: vec![AppRuntimeSnapshot {
                group: 1,
                name: "mg".to_string(),
                ips_full: 2.6e9,
                weight: 1.5,
                sensor: SensorSnapshot {
                    capacity: 8,
                    samples: vec![CounterSnapshot {
                        timestamp_ns: u64::MAX - 1,
                        instructions: 1 << 60,
                        cycles: (1 << 60) + 3,
                        llc_accesses: 77,
                        llc_misses: 7,
                    }],
                    ewma: [Some(2.5e9), None, Some(1e7), Some(0.1 + 0.2)],
                },
                llc_state: AppState::Demand,
                mba_state: AppState::Supply,
                prev_ips: 2.4e9,
                last_ips: 2.45e9,
                last_events: AppliedEvents {
                    granted_llc: true,
                    granted_mba: false,
                    reclaimed_llc: false,
                    reclaimed_mba: true,
                },
            }],
        },
        backend: BackendSnapshot::Faulty {
            machine: tiny_machine(),
            groups: vec![(1, 0)],
            next_clos: 2,
            fault_state: FaultStateSnapshot {
                sites: [
                    SiteSnapshot {
                        rng_state: 1,
                        calls: u64::MAX,
                    },
                    SiteSnapshot {
                        rng_state: 2,
                        calls: 0,
                    },
                    SiteSnapshot {
                        rng_state: u64::MAX,
                        calls: 3,
                    },
                    SiteSnapshot {
                        rng_state: 4,
                        calls: 4,
                    },
                    SiteSnapshot {
                        rng_state: 5,
                        calls: 5,
                    },
                ],
                stats: InjectionStats {
                    dropouts: 9,
                    cbm_write_faults: 1,
                    mba_write_faults: 0,
                    vanishes: 2,
                    clock_stalls: 1 << 54,
                },
            },
        },
        metrics: MetricsFrozen {
            counters: vec![("epochs".to_string(), epoch), ("transfers".to_string(), 9)],
            gauges: vec![("unfairness".to_string(), 0.1 + 0.2)],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::PersistError;
    use copart_telemetry::Json;

    #[test]
    fn snapshot_doc_round_trips_bit_exactly() {
        let doc = tiny_doc(41);
        let text = doc.encode().to_string();
        assert!(!text.contains('\n'), "payload must be a single line");
        let back = SnapshotDoc::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
        // And the re-encoding is byte-stable.
        assert_eq!(back.encode().to_string(), text);
    }

    #[test]
    fn sim_backend_snapshots_round_trip_too() {
        let mut doc = tiny_doc(7);
        doc.backend = BackendSnapshot::Sim {
            machine: tiny_machine(),
            groups: vec![(0, 0), (1, 1)],
            next_clos: 2,
        };
        let text = doc.encode().to_string();
        let back = SnapshotDoc::decode(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn non_finite_floats_survive_the_hex_path() {
        // `Json::Num` would flatten these to null; the hex-bits codec
        // must not. NaN breaks PartialEq, so compare bit patterns via
        // double encode instead.
        let mut doc = tiny_doc(3);
        if let Some(app) = doc.runtime.apps.first_mut() {
            app.prev_ips = f64::NAN;
            app.last_ips = f64::INFINITY;
            app.weight = -0.0;
        }
        let text = doc.encode().to_string();
        let back = SnapshotDoc::decode(&Json::parse(&text).unwrap()).unwrap();
        let app = &back.runtime.apps[0];
        assert_eq!(app.prev_ips.to_bits(), f64::NAN.to_bits());
        assert_eq!(app.last_ips, f64::INFINITY);
        assert_eq!(app.weight.to_bits(), (-0.0f64).to_bits());
    }

    /// Satellite bugfix (PR 10): the scenario seed must survive the wire
    /// format for the *full* `u64` range. `Json::Num` is exact only
    /// below 2⁵³, which is exactly where these seeds live.
    #[test]
    fn seeds_at_and_beyond_2_pow_53_round_trip_exactly() {
        for seed in [1u64 << 53, (1u64 << 53) + 1, u64::MAX] {
            let mut doc = tiny_doc(5);
            doc.meta.seed = seed;
            let text = doc.encode().to_string();
            let back = SnapshotDoc::decode(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.meta.seed, seed, "seed {seed} must be lossless");
            assert_eq!(back, doc);
            assert_eq!(
                back.encode().to_string(),
                text,
                "re-encoding is byte-stable"
            );
        }
    }

    /// Version-1 documents stored the seed as a plain JSON number; that
    /// read path is gone, so such a seed is a schema error naming it.
    #[test]
    fn a_number_seed_is_a_schema_error() {
        let doc = tiny_doc(5);
        let text = doc
            .encode()
            .to_string()
            .replace("\"seed\":\"000000000000002a\"", "\"seed\":42");
        assert_ne!(text, doc.encode().to_string(), "replacement must fire");
        match SnapshotDoc::parse(&text) {
            Err(PersistError::Schema(msg)) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("a number seed read: {other:?}"),
        }
    }

    /// No strict prefix of a payload is a document: the pull decoder
    /// rejects every truncation.
    #[test]
    fn every_truncated_payload_is_rejected() {
        let text = tiny_doc(3).encode().to_string();
        for cut in 0..text.len() {
            assert!(SnapshotDoc::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
        assert_eq!(SnapshotDoc::parse(&text).unwrap(), tiny_doc(3));
    }

    #[test]
    fn decode_rejects_missing_fields_with_the_key_name() {
        let doc = tiny_doc(1);
        let text = doc
            .encode()
            .to_string()
            .replace("\"runtime\"", "\"runtme\"");
        let err = SnapshotDoc::decode(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.to_string().contains("runtime"), "got: {err}");
    }
}
