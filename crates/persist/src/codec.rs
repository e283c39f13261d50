//! Bit-exact JSON encoding of every snapshot type.
//!
//! The recovery contract is *byte-identical resumption*, so the codec
//! cannot tolerate the usual JSON number laundering: an `f64` that loses
//! one ulp on the way through a decimal representation changes an EWMA,
//! which changes a classifier verdict three epochs later. Every `f64`
//! therefore travels as the hex of its IEEE-754 bit pattern, and every
//! `u64` that may exceed 2⁵³ (timestamps, cumulative counters, RNG
//! words, cache tags) as a hex string. Small structural integers (way
//! counts, CLOS ids, epoch counters) stay plain JSON numbers for
//! readability — they are exact well below 2⁵³.
//!
//! Each struct's field list is written once, straight into a
//! [`copart_telemetry::JsonWriter`]: the snapshot store streams it as
//! text into the file's buffer ([`SnapshotDoc::emit`], no tree in
//! between), the migration ticket streams [`emit_app_runtime`] into its
//! line the same way, and [`SnapshotDoc::encode`] parses the streamed
//! text for the callers that inspect a tree.
//!
//! Each struct also has exactly one decoder, its `read_*` twin, which
//! pulls the members from the text through a
//! [`copart_telemetry::JsonReader`] in the order the `emit_*` side
//! writes them — no `Json` tree in between ([`SnapshotDoc::parse`]).
//! Typed reads (`uint`, `hex_u64`, `hex_f64`, `string`, …) keep the
//! tree reader's strictness; a missing, out-of-order or ill-typed member
//! becomes [`PersistError::Schema`] naming its key, malformed text
//! [`PersistError::Json`]. Two members read more than one shape: a
//! version-1 file has no `clusters` (read with `opt_key`) and a numeric
//! `seed` (told from the hex string by `peek`).

use copart_core::next_state::AppliedEvents;
use copart_core::runtime::ConsolidationRuntime;
use copart_core::AllocationState;
use copart_core::{
    AppRuntimeSnapshot, AppState, ExplorerSnapshot, Phase, RuntimeSnapshot, SensorSnapshot,
    SystemState,
};
use copart_faults::{FaultStateSnapshot, InjectionStats, SiteSnapshot};
use copart_rdt::MbaLevel;
use copart_sim::trace::TraceGenSnapshot;
use copart_sim::{AppSpec, MachineSnapshot, SimAppSnapshot};
use copart_telemetry::{CounterSnapshot, Json, JsonReader, JsonWriter, ReadError};

use crate::backend::{BackendSnapshot, PersistableBackend};
use crate::error::PersistError;
use crate::metrics::MetricsFrozen;

use copart_sim::cache::{CacheLineSnapshot, CacheSnapshot};
use copart_sim::trace::{zipf_exponent_is_valid, AccessPattern};

/// An `f64` member as the hex of its bit pattern — bit-exact, NaN-safe.
pub(crate) fn hex_f64(s: &mut JsonWriter<'_>, key: &str, v: f64) {
    s.key(key).hex16(v.to_bits());
}

/// An array member with one element per item.
pub(crate) fn arr<'w, T>(
    s: &mut JsonWriter<'w>,
    key: &str,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut JsonWriter<'w>, T),
) {
    s.key(key).begin_arr();
    for item in items {
        each(s, item);
    }
    s.end_arr();
}

fn schema(what: impl Into<String>) -> PersistError {
    PersistError::Schema(what.into())
}

/// A `u64` that is a hex string in the current format but was a plain
/// JSON number in format version 1. The legacy number path is exact
/// only below 2⁵³ — which is precisely why the field moved to hex — but
/// every version-1 snapshot in the wild was written through `as f64`,
/// so reading it back the same way reproduces the stored value.
fn read_u64_compat(r: &mut JsonReader<'_>) -> Result<u64, ReadError> {
    if r.peek() == Some(b'"') {
        r.hex_u64()
    } else {
        r.uint()
    }
}

/// [`JsonReader::object`] with the codec's error type fixed, so the
/// closures that read members need no annotation.
pub(crate) fn obj<'a, T>(
    r: &mut JsonReader<'a>,
    read: impl FnOnce(&mut JsonReader<'a>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    r.object(read)
}

// ---------------------------------------------------------------------
// telemetry
// ---------------------------------------------------------------------

fn enc_counter_snapshot(s: &mut JsonWriter<'_>, c: &CounterSnapshot) {
    s.begin_obj();
    s.key("t").hex16(c.timestamp_ns);
    s.key("i").hex16(c.instructions);
    s.key("c").hex16(c.cycles);
    s.key("a").hex16(c.llc_accesses);
    s.key("m").hex16(c.llc_misses);
    s.end_obj();
}

fn read_counter_snapshot(r: &mut JsonReader<'_>) -> Result<CounterSnapshot, PersistError> {
    obj(r, |r| {
        Ok(CounterSnapshot {
            timestamp_ns: r.key("t")?.hex_u64()?,
            instructions: r.key("i")?.hex_u64()?,
            cycles: r.key("c")?.hex_u64()?,
            llc_accesses: r.key("a")?.hex_u64()?,
            llc_misses: r.key("m")?.hex_u64()?,
        })
    })
}

// ---------------------------------------------------------------------
// core: sensor / classifier / explorer / runtime
// ---------------------------------------------------------------------

fn enc_opt_f64(s: &mut JsonWriter<'_>, v: Option<f64>) {
    match v {
        Some(x) => s.hex16(x.to_bits()),
        None => s.null(),
    };
}

fn enc_sensor(s: &mut JsonWriter<'_>, sensor: &SensorSnapshot) {
    s.begin_obj();
    s.key("capacity").num(sensor.capacity as f64);
    arr(s, "samples", &sensor.samples, enc_counter_snapshot);
    arr(s, "ewma", sensor.ewma, enc_opt_f64);
    s.end_obj();
}

fn read_sensor(r: &mut JsonReader<'_>) -> Result<SensorSnapshot, PersistError> {
    obj(r, |r| {
        Ok(SensorSnapshot {
            capacity: r.key("capacity")?.uint()?,
            samples: r.key("samples")?.items(read_counter_snapshot)?,
            ewma: r
                .key("ewma")?
                .items(|r| r.nullable(JsonReader::hex_f64))?
                .try_into()
                .map_err(|_| schema("`ewma` must have 4 entries"))?,
        })
    })
}

fn app_state_name(s: AppState) -> &'static str {
    match s {
        AppState::Supply => "supply",
        AppState::Maintain => "maintain",
        AppState::Demand => "demand",
    }
}

fn read_app_state(r: &mut JsonReader<'_>) -> Result<AppState, PersistError> {
    match &*r.string()? {
        "supply" => Ok(AppState::Supply),
        "maintain" => Ok(AppState::Maintain),
        "demand" => Ok(AppState::Demand),
        other => Err(schema(format!("unknown app state `{other}`"))),
    }
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::Profiling => "profiling",
        Phase::Exploring => "exploring",
        Phase::Idle => "idle",
    }
}

fn read_phase(r: &mut JsonReader<'_>) -> Result<Phase, PersistError> {
    match &*r.string()? {
        "profiling" => Ok(Phase::Profiling),
        "exploring" => Ok(Phase::Exploring),
        "idle" => Ok(Phase::Idle),
        other => Err(schema(format!("unknown phase `{other}`"))),
    }
}

fn enc_events(s: &mut JsonWriter<'_>, e: &AppliedEvents) {
    s.begin_obj();
    s.key("granted_llc").bool(e.granted_llc);
    s.key("granted_mba").bool(e.granted_mba);
    s.key("reclaimed_llc").bool(e.reclaimed_llc);
    s.key("reclaimed_mba").bool(e.reclaimed_mba);
    s.end_obj();
}

fn read_events(r: &mut JsonReader<'_>) -> Result<AppliedEvents, PersistError> {
    obj(r, |r| {
        Ok(AppliedEvents {
            granted_llc: r.key("granted_llc")?.boolean()?,
            granted_mba: r.key("granted_mba")?.boolean()?,
            reclaimed_llc: r.key("reclaimed_llc")?.boolean()?,
            reclaimed_mba: r.key("reclaimed_mba")?.boolean()?,
        })
    })
}

fn enc_system_state(s: &mut JsonWriter<'_>, key: &str, state: &SystemState) {
    arr(s, key, &state.allocs, |s, a| {
        s.begin_obj();
        s.key("ways").num(f64::from(a.ways));
        s.key("mba").num(f64::from(a.mba.percent()));
        s.end_obj();
    });
}

fn read_system_state(r: &mut JsonReader<'_>) -> Result<SystemState, PersistError> {
    let allocs = r.items(|r| {
        obj(r, |r| {
            Ok(AllocationState {
                ways: r.key("ways")?.uint()?,
                mba: MbaLevel::new(r.key("mba")?.uint()?),
            })
        })
    })?;
    Ok(SystemState { allocs })
}

fn enc_explorer(s: &mut JsonWriter<'_>, e: &ExplorerSnapshot) {
    s.begin_obj();
    s.key("rng_state").hex16(e.rng_state);
    s.key("retry_count").num(f64::from(e.retry_count));
    hex_f64(s, "unfairness_at_idle", e.unfairness_at_idle);
    s.key("best_seen");
    match &e.best_seen {
        None => {
            s.null();
        }
        Some((unfairness, state)) => {
            s.begin_obj();
            hex_f64(s, "unfairness", *unfairness);
            enc_system_state(s, "state", state);
            s.end_obj();
        }
    }
    s.end_obj();
}

fn read_explorer(r: &mut JsonReader<'_>) -> Result<ExplorerSnapshot, PersistError> {
    obj(r, |r| {
        Ok(ExplorerSnapshot {
            rng_state: r.key("rng_state")?.hex_u64()?,
            retry_count: r.key("retry_count")?.uint()?,
            unfairness_at_idle: r.key("unfairness_at_idle")?.hex_f64()?,
            best_seen: r.key("best_seen")?.nullable(|r| {
                obj(r, |r| {
                    Ok((
                        r.key("unfairness")?.hex_f64()?,
                        read_system_state(r.key("state")?)?,
                    ))
                })
            })?,
        })
    })
}

/// Emits one application's frozen controller state — the bit-exact
/// payload the fleet's migration tickets carry between nodes.
pub fn emit_app_runtime(s: &mut JsonWriter<'_>, a: &AppRuntimeSnapshot) {
    s.begin_obj();
    s.key("group").num(f64::from(a.group));
    s.key("name").str(&a.name);
    hex_f64(s, "ips_full", a.ips_full);
    hex_f64(s, "weight", a.weight);
    s.key("sensor");
    enc_sensor(s, &a.sensor);
    s.key("llc_state").str(app_state_name(a.llc_state));
    s.key("mba_state").str(app_state_name(a.mba_state));
    hex_f64(s, "prev_ips", a.prev_ips);
    hex_f64(s, "last_ips", a.last_ips);
    s.key("last_events");
    enc_events(s, &a.last_events);
    s.end_obj();
}

/// Reads one application's frozen controller state (inverse of
/// [`emit_app_runtime`]), the object the reader is at.
///
/// # Errors
///
/// Fails on malformed text, missing or out-of-order members, or
/// malformed hex-float encodings.
pub fn read_app_runtime(r: &mut JsonReader<'_>) -> Result<AppRuntimeSnapshot, PersistError> {
    obj(r, |r| {
        Ok(AppRuntimeSnapshot {
            group: r.key("group")?.uint()?,
            name: r.key("name")?.string()?.into_owned(),
            ips_full: r.key("ips_full")?.hex_f64()?,
            weight: r.key("weight")?.hex_f64()?,
            sensor: read_sensor(r.key("sensor")?)?,
            llc_state: read_app_state(r.key("llc_state")?)?,
            mba_state: read_app_state(r.key("mba_state")?)?,
            prev_ips: r.key("prev_ips")?.hex_f64()?,
            last_ips: r.key("last_ips")?.hex_f64()?,
            last_events: read_events(r.key("last_events")?)?,
        })
    })
}

fn emit_runtime(s: &mut JsonWriter<'_>, r: &RuntimeSnapshot) {
    s.begin_obj();
    s.key("epoch").num(r.epoch as f64);
    s.key("phase").str(phase_name(r.phase));
    enc_system_state(s, "state", &r.state);
    arr(s, "clusters", &r.clusters, |s, &c| {
        s.num(f64::from(c));
    });
    s.key("explorer");
    enc_explorer(s, &r.explorer);
    arr(s, "apps", &r.apps, emit_app_runtime);
    s.end_obj();
}

fn read_runtime(r: &mut JsonReader<'_>) -> Result<RuntimeSnapshot, PersistError> {
    obj(r, |r| {
        Ok(RuntimeSnapshot {
            epoch: r.key("epoch")?.uint()?,
            phase: read_phase(r.key("phase")?)?,
            state: read_system_state(r.key("state")?)?,
            // Absent in snapshots written before clustering existed; an
            // empty vector is also the live "no clustering" value, so no
            // version bump is needed for this field.
            clusters: if r.opt_key("clusters")? {
                r.items(JsonReader::uint)?
            } else {
                Vec::new()
            },
            explorer: read_explorer(r.key("explorer")?)?,
            apps: r.key("apps")?.items(read_app_runtime)?,
        })
    })
}

// ---------------------------------------------------------------------
// sim: trace generator / app spec / cache / machine
// ---------------------------------------------------------------------

fn enc_pattern(s: &mut JsonWriter<'_>, p: &AccessPattern) {
    let (kind, bytes) = match p {
        AccessPattern::WorkingSetLoop { bytes, .. } => ("wsl", bytes),
        AccessPattern::Stream { bytes } => ("stream", bytes),
        AccessPattern::UniformRandom { bytes } => ("rand", bytes),
        AccessPattern::Zipf { bytes, .. } => ("zipf", bytes),
        AccessPattern::PointerChase { bytes } => ("chase", bytes),
    };
    s.begin_obj();
    s.key("kind").str(kind);
    s.key("bytes").hex16(*bytes);
    match p {
        AccessPattern::WorkingSetLoop { stride, .. } => {
            s.key("stride").hex16(*stride);
        }
        AccessPattern::Zipf { exponent, .. } => hex_f64(s, "exponent", *exponent),
        _ => {}
    }
    s.end_obj();
}

fn read_pattern(r: &mut JsonReader<'_>) -> Result<AccessPattern, PersistError> {
    obj(r, |r| {
        let kind = r.key("kind")?.string()?;
        let bytes = r.key("bytes")?.hex_u64()?;
        match &*kind {
            "wsl" => Ok(AccessPattern::WorkingSetLoop {
                bytes,
                stride: r.key("stride")?.hex_u64()?,
            }),
            "stream" => Ok(AccessPattern::Stream { bytes }),
            "rand" => Ok(AccessPattern::UniformRandom { bytes }),
            "zipf" => {
                let exponent = r.key("exponent")?.hex_f64()?;
                if !zipf_exponent_is_valid(exponent) {
                    return Err(schema(format!(
                        "Zipf exponent {exponent} is not finite, positive and other than 1"
                    )));
                }
                Ok(AccessPattern::Zipf { bytes, exponent })
            }
            "chase" => Ok(AccessPattern::PointerChase { bytes }),
            other => Err(schema(format!("unknown access pattern `{other}`"))),
        }
    })
}

fn enc_spec(s: &mut JsonWriter<'_>, spec: &AppSpec) {
    s.begin_obj();
    s.key("name").str(&spec.name);
    s.key("cores").num(f64::from(spec.cores));
    hex_f64(s, "ipc_peak", spec.ipc_peak);
    hex_f64(s, "apki", spec.apki);
    hex_f64(s, "write_fraction", spec.write_fraction);
    hex_f64(s, "mlp", spec.mlp);
    arr(s, "phases", &spec.phases, |s, (weight, pattern)| {
        s.begin_obj();
        hex_f64(s, "weight", *weight);
        s.key("pattern");
        enc_pattern(s, pattern);
        s.end_obj();
    });
    s.end_obj();
}

fn read_spec(r: &mut JsonReader<'_>) -> Result<AppSpec, PersistError> {
    obj(r, |r| {
        Ok(AppSpec {
            name: r.key("name")?.string()?.into_owned(),
            cores: r.key("cores")?.uint()?,
            ipc_peak: r.key("ipc_peak")?.hex_f64()?,
            apki: r.key("apki")?.hex_f64()?,
            write_fraction: r.key("write_fraction")?.hex_f64()?,
            mlp: r.key("mlp")?.hex_f64()?,
            phases: r.key("phases")?.items(|r| {
                obj(r, |r| {
                    Ok((
                        r.key("weight")?.hex_f64()?,
                        read_pattern(r.key("pattern")?)?,
                    ))
                })
            })?,
        })
    })
}

fn enc_trace_gen(s: &mut JsonWriter<'_>, g: &TraceGenSnapshot) {
    s.begin_obj();
    arr(s, "cursors", &g.cursors, |s, &c| {
        s.hex16(c);
    });
    s.key("rng_state").hex16(g.rng_state);
    s.key("active").num(g.active as f64);
    s.key("burst_left").num(f64::from(g.burst_left));
    s.end_obj();
}

fn read_trace_gen(r: &mut JsonReader<'_>) -> Result<TraceGenSnapshot, PersistError> {
    obj(r, |r| {
        Ok(TraceGenSnapshot {
            cursors: r.key("cursors")?.items(JsonReader::hex_u64)?,
            rng_state: r.key("rng_state")?.hex_u64()?,
            active: r.key("active")?.uint()?,
            burst_left: r.key("burst_left")?.uint()?,
        })
    })
}

fn enc_sim_app(s: &mut JsonWriter<'_>, a: &SimAppSnapshot) {
    s.begin_obj();
    s.key("spec");
    enc_spec(s, &a.spec);
    s.key("clos").num(f64::from(a.clos));
    s.key("gen");
    enc_trace_gen(s, &a.gen);
    hex_f64(s, "ips_estimate", a.ips_estimate);
    hex_f64(s, "miss_ratio", a.miss_ratio);
    hex_f64(s, "wb_per_access", a.wb_per_access);
    hex_f64(s, "instructions", a.instructions);
    hex_f64(s, "cycles", a.cycles);
    hex_f64(s, "accesses", a.accesses);
    hex_f64(s, "misses", a.misses);
    hex_f64(s, "mem_traffic_bytes", a.mem_traffic_bytes);
    s.end_obj();
}

fn read_sim_app(r: &mut JsonReader<'_>) -> Result<SimAppSnapshot, PersistError> {
    obj(r, |r| {
        Ok(SimAppSnapshot {
            spec: read_spec(r.key("spec")?)?,
            clos: r.key("clos")?.uint()?,
            gen: read_trace_gen(r.key("gen")?)?,
            ips_estimate: r.key("ips_estimate")?.hex_f64()?,
            miss_ratio: r.key("miss_ratio")?.hex_f64()?,
            wb_per_access: r.key("wb_per_access")?.hex_f64()?,
            instructions: r.key("instructions")?.hex_f64()?,
            cycles: r.key("cycles")?.hex_f64()?,
            accesses: r.key("accesses")?.hex_f64()?,
            misses: r.key("misses")?.hex_f64()?,
            mem_traffic_bytes: r.key("mem_traffic_bytes")?.hex_f64()?,
        })
    })
}

fn enc_cache(s: &mut JsonWriter<'_>, c: &CacheSnapshot) {
    s.begin_obj();
    s.key("clock").hex16(c.clock);
    // ~5 600 lines on the paper's machine: nearly all of a snapshot's
    // bytes pass through this loop.
    arr(s, "lines", &c.lines, |s, l| {
        s.begin_obj();
        s.key("index").hex16(l.index);
        s.key("tag").hex16(l.tag);
        s.key("lru").hex16(l.lru);
        s.key("owner").num(f64::from(l.owner));
        s.key("dirty").bool(l.dirty);
        s.end_obj();
    });
    s.end_obj();
}

fn read_cache(r: &mut JsonReader<'_>) -> Result<CacheSnapshot, PersistError> {
    obj(r, |r| {
        Ok(CacheSnapshot {
            clock: r.key("clock")?.hex_u64()?,
            lines: r.key("lines")?.items(|r| {
                obj(r, |r| {
                    Ok(CacheLineSnapshot {
                        index: r.key("index")?.hex_u64()?,
                        tag: r.key("tag")?.hex_u64()?,
                        lru: r.key("lru")?.hex_u64()?,
                        owner: r.key("owner")?.uint()?,
                        dirty: r.key("dirty")?.boolean()?,
                    })
                })
            })?,
        })
    })
}

fn emit_machine(s: &mut JsonWriter<'_>, m: &MachineSnapshot) {
    s.begin_obj();
    s.key("time_ns").hex16(m.time_ns);
    arr(s, "clos", &m.clos_table, |s, &(id, cbm, mba)| {
        s.begin_obj();
        s.key("id").num(f64::from(id));
        s.key("cbm").num(f64::from(cbm));
        s.key("mba").num(f64::from(mba));
        s.end_obj();
    });
    arr(s, "apps", &m.apps, |s, slot| match slot {
        Some(a) => enc_sim_app(s, a),
        None => {
            s.null();
        }
    });
    s.key("cache");
    enc_cache(s, &m.cache);
    s.end_obj();
}

fn read_machine(r: &mut JsonReader<'_>) -> Result<MachineSnapshot, PersistError> {
    obj(r, |r| {
        Ok(MachineSnapshot {
            time_ns: r.key("time_ns")?.hex_u64()?,
            clos_table: r.key("clos")?.items(|r| {
                obj(r, |r| {
                    Ok((
                        r.key("id")?.uint()?,
                        r.key("cbm")?.uint()?,
                        r.key("mba")?.uint()?,
                    ))
                })
            })?,
            apps: r.key("apps")?.items(|r| r.nullable(read_sim_app))?,
            cache: read_cache(r.key("cache")?)?,
        })
    })
}

// ---------------------------------------------------------------------
// faults
// ---------------------------------------------------------------------

fn emit_fault_state(s: &mut JsonWriter<'_>, f: &FaultStateSnapshot) {
    s.begin_obj();
    arr(s, "sites", &f.sites, |s, site| {
        s.begin_obj();
        s.key("rng_state").hex16(site.rng_state);
        s.key("calls").hex16(site.calls);
        s.end_obj();
    });
    s.key("stats").begin_obj();
    s.key("dropouts").hex16(f.stats.dropouts);
    s.key("cbm_write_faults").hex16(f.stats.cbm_write_faults);
    s.key("mba_write_faults").hex16(f.stats.mba_write_faults);
    s.key("vanishes").hex16(f.stats.vanishes);
    s.key("clock_stalls").hex16(f.stats.clock_stalls);
    s.end_obj();
    s.end_obj();
}

fn read_fault_state(r: &mut JsonReader<'_>) -> Result<FaultStateSnapshot, PersistError> {
    obj(r, |r| {
        Ok(FaultStateSnapshot {
            sites: r
                .key("sites")?
                .items(|r| {
                    obj(r, |r| {
                        Ok(SiteSnapshot {
                            rng_state: r.key("rng_state")?.hex_u64()?,
                            calls: r.key("calls")?.hex_u64()?,
                        })
                    })
                })?
                .try_into()
                .map_err(|_| schema("`sites` must have 5 entries"))?,
            stats: obj(r.key("stats")?, |r| {
                Ok(InjectionStats {
                    dropouts: r.key("dropouts")?.hex_u64()?,
                    cbm_write_faults: r.key("cbm_write_faults")?.hex_u64()?,
                    mba_write_faults: r.key("mba_write_faults")?.hex_u64()?,
                    vanishes: r.key("vanishes")?.hex_u64()?,
                    clock_stalls: r.key("clock_stalls")?.hex_u64()?,
                })
            })?,
        })
    })
}

// ---------------------------------------------------------------------
// backend
// ---------------------------------------------------------------------

fn enc_groups(s: &mut JsonWriter<'_>, groups: &[(u16, u32)]) {
    arr(s, "groups", groups, |s, &(clos, app)| {
        s.begin_obj();
        s.key("clos").num(f64::from(clos));
        s.key("app").num(f64::from(app));
        s.end_obj();
    });
}

fn read_groups(r: &mut JsonReader<'_>) -> Result<Vec<(u16, u32)>, PersistError> {
    r.items(|r| obj(r, |r| Ok((r.key("clos")?.uint()?, r.key("app")?.uint()?))))
}

fn emit_backend(s: &mut JsonWriter<'_>, b: &BackendSnapshot) {
    let (kind, machine, groups, next_clos, fault_state) = match b {
        BackendSnapshot::Sim {
            machine,
            groups,
            next_clos,
        } => ("sim", machine, groups, next_clos, None),
        BackendSnapshot::Faulty {
            machine,
            groups,
            next_clos,
            fault_state,
        } => ("faulty", machine, groups, next_clos, Some(fault_state)),
    };
    s.begin_obj();
    s.key("kind").str(kind);
    s.key("machine");
    emit_machine(s, machine);
    enc_groups(s, groups);
    s.key("next_clos").num(f64::from(*next_clos));
    if let Some(fault_state) = fault_state {
        s.key("fault_state");
        emit_fault_state(s, fault_state);
    }
    s.end_obj();
}

fn read_backend(r: &mut JsonReader<'_>) -> Result<BackendSnapshot, PersistError> {
    obj(r, |r| {
        let kind = r.key("kind")?.string()?;
        let faulty = match &*kind {
            "sim" => false,
            "faulty" => true,
            other => return Err(schema(format!("unknown backend kind `{other}`"))),
        };
        let machine = read_machine(r.key("machine")?)?;
        let groups = read_groups(r.key("groups")?)?;
        let next_clos = r.key("next_clos")?.uint()?;
        Ok(if faulty {
            BackendSnapshot::Faulty {
                machine,
                groups,
                next_clos,
                fault_state: read_fault_state(r.key("fault_state")?)?,
            }
        } else {
            BackendSnapshot::Sim {
                machine,
                groups,
                next_clos,
            }
        })
    })
}

// ---------------------------------------------------------------------
// the document
// ---------------------------------------------------------------------

/// Identity of the run a snapshot belongs to. Recovery refuses to resume
/// a state directory under a different scenario — restoring an H-LLC
/// controller over an M-Both machine would not crash, it would silently
/// produce garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Workload mix label (e.g. `"M-Both"`).
    pub mix: String,
    /// The app count the live runtime configuration was built for (the
    /// boot count, updated by policy switches; admissions and removals
    /// keep the standing configuration).
    pub n_apps: u64,
    /// Partitioning policy label (e.g. `"CoPart"`).
    pub policy: String,
    /// Scenario seed.
    pub seed: u64,
    /// Fault plan spec string (empty = no faults).
    pub faults: String,
    /// Control epochs the daemon had completed (excludes profiling).
    pub daemon_epochs: u64,
}

/// One complete, self-contained snapshot of a running consolidation: the
/// scenario identity, the controller, the backend, and the metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotDoc {
    /// Which run this is.
    pub meta: SnapshotMeta,
    /// The controller's state.
    pub runtime: RuntimeSnapshot,
    /// The backend's state.
    pub backend: BackendSnapshot,
    /// Cumulative counters and gauges (histograms are a documented
    /// recovery invariant: they measure wall-clock latency and are not
    /// restored).
    pub metrics: MetricsFrozen,
}

impl SnapshotDoc {
    /// Captures a live runtime at an epoch boundary: its controller, its
    /// backend and its metrics, under `meta`. The one place a document
    /// is built from a running consolidation.
    pub fn capture<B: PersistableBackend>(
        runtime: &ConsolidationRuntime<B>,
        meta: SnapshotMeta,
    ) -> SnapshotDoc {
        SnapshotDoc {
            meta,
            runtime: runtime.snapshot(),
            backend: runtime.backend().capture(),
            metrics: MetricsFrozen::capture(&runtime.metrics_snapshot()),
        }
    }

    /// The epoch the snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.runtime.epoch
    }

    /// The document as a JSON tree: [`SnapshotDoc::emit`]'s text, parsed.
    /// Every number a snapshot writes is an integer no larger than 2⁵³
    /// and every float travels as hex, so rendering the tree gives back
    /// the streamed bytes.
    pub fn encode(&self) -> Json {
        let mut text = String::new();
        self.emit(&mut JsonWriter::new(&mut text));
        Json::parse(&text).expect("the snapshot writer emits well-formed JSON")
    }

    /// Streams the document into `s` as wire text (what the snapshot
    /// store does — no tree is built).
    pub fn emit(&self, s: &mut JsonWriter<'_>) {
        s.begin_obj();
        s.key("meta").begin_obj();
        s.key("mix").str(&self.meta.mix);
        s.key("n_apps").num(self.meta.n_apps as f64);
        s.key("policy").str(&self.meta.policy);
        s.key("seed").hex16(self.meta.seed);
        s.key("faults").str(&self.meta.faults);
        s.key("daemon_epochs").num(self.meta.daemon_epochs as f64);
        s.end_obj();
        s.key("runtime");
        emit_runtime(s, &self.runtime);
        s.key("backend");
        emit_backend(s, &self.backend);
        s.key("metrics");
        self.metrics.emit(s);
        s.end_obj();
    }

    /// Reads a whole document from its wire text, pulling each member
    /// straight into the decoded value (no `Json` tree is built).
    ///
    /// # Errors
    ///
    /// [`PersistError::Json`] when the text is not JSON;
    /// [`PersistError::Schema`] when a member is missing, out of order or
    /// ill-typed.
    pub fn parse(text: &str) -> Result<SnapshotDoc, PersistError> {
        let mut r = JsonReader::new(text);
        let doc = SnapshotDoc::read(&mut r)?;
        r.finish()?;
        Ok(doc)
    }

    /// Deserialises a document held as a tree, by reading its rendering
    /// (see [`SnapshotDoc::parse`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] when a field is missing or ill-typed.
    pub fn decode(j: &Json) -> Result<SnapshotDoc, PersistError> {
        SnapshotDoc::parse(&j.to_string())
    }

    fn read(r: &mut JsonReader<'_>) -> Result<SnapshotDoc, PersistError> {
        obj(r, |r| {
            Ok(SnapshotDoc {
                meta: obj(r.key("meta")?, |r| {
                    Ok(SnapshotMeta {
                        mix: r.key("mix")?.string()?.into_owned(),
                        n_apps: r.key("n_apps")?.uint()?,
                        policy: r.key("policy")?.string()?.into_owned(),
                        seed: read_u64_compat(r.key("seed")?)?,
                        faults: r.key("faults")?.string()?.into_owned(),
                        daemon_epochs: r.key("daemon_epochs")?.uint()?,
                    })
                })?,
                runtime: read_runtime(r.key("runtime")?)?,
                backend: read_backend(r.key("backend")?)?,
                metrics: MetricsFrozen::read(r.key("metrics")?)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(pattern: &AccessPattern) -> Result<AccessPattern, PersistError> {
        let mut text = String::new();
        enc_pattern(&mut JsonWriter::new(&mut text), pattern);
        let mut r = JsonReader::new(&text);
        let decoded = read_pattern(&mut r)?;
        r.finish()?;
        Ok(decoded)
    }

    fn zipf(exponent: f64) -> AccessPattern {
        AccessPattern::Zipf {
            bytes: 9 << 20,
            exponent,
        }
    }

    #[test]
    fn valid_zipf_exponents_decode() {
        for s in [0.99, 1.05, 1.3] {
            assert_eq!(round_trip(&zipf(s)).unwrap(), zipf(s));
        }
    }

    #[test]
    fn zipf_exponent_one_is_a_schema_error() {
        assert!(matches!(
            round_trip(&zipf(1.0)),
            Err(PersistError::Schema(_))
        ));
    }

    #[test]
    fn non_finite_zipf_exponents_are_schema_errors() {
        for s in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(
                matches!(round_trip(&zipf(s)), Err(PersistError::Schema(_))),
                "{s}"
            );
        }
    }

    #[test]
    fn non_positive_zipf_exponents_are_schema_errors() {
        for s in [0.0, -0.0, -1.5] {
            assert!(
                matches!(round_trip(&zipf(s)), Err(PersistError::Schema(_))),
                "{s}"
            );
        }
    }
}
