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
//! Each struct's field list is written once, against
//! [`copart_telemetry::JsonSink`]: the snapshot store streams it as text
//! into the file's buffer ([`SnapshotDoc::emit`] into a `JsonWriter`, no
//! tree in between), and the `-> Json` entry points build a tree from
//! the same calls for the callers that embed or inspect one.

use copart_core::next_state::AppliedEvents;
use copart_core::AllocationState;
use copart_core::{
    AppRuntimeSnapshot, AppState, ExplorerSnapshot, Phase, RuntimeSnapshot, SensorSnapshot,
    SystemState,
};
use copart_faults::{FaultStateSnapshot, InjectionStats, SiteSnapshot};
use copart_rdt::MbaLevel;
use copart_sim::trace::TraceGenSnapshot;
use copart_sim::{AppSpec, MachineSnapshot, SimAppSnapshot};
use copart_telemetry::{CounterSnapshot, Json, JsonSink};

use crate::backend::BackendSnapshot;
use crate::error::PersistError;
use crate::metrics::MetricsFrozen;

use copart_sim::cache::{CacheLineSnapshot, CacheSnapshot};
use copart_sim::trace::AccessPattern;

/// An `f64` member as the hex of its bit pattern — bit-exact, NaN-safe.
pub(crate) fn hex_f64<S: JsonSink>(s: &mut S, key: &str, v: f64) {
    s.key(key).hex16(v.to_bits());
}

/// An array member with one element per item.
pub(crate) fn arr<S: JsonSink, T>(
    s: &mut S,
    key: &str,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut S, T),
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

/// Looks up a required object member.
pub(crate) fn req<'a>(j: &'a Json, key: &str) -> Result<&'a Json, PersistError> {
    j.get(key).ok_or_else(|| schema(format!("missing `{key}`")))
}

/// A required plain-number `u64` member.
pub(crate) fn dec_u64(j: &Json, key: &str) -> Result<u64, PersistError> {
    req(j, key)?
        .as_u64()
        .ok_or_else(|| schema(format!("`{key}` is not a u64")))
}

fn dec_u32(j: &Json, key: &str) -> Result<u32, PersistError> {
    u32::try_from(dec_u64(j, key)?).map_err(|_| schema(format!("`{key}` overflows u32")))
}

fn dec_u16(j: &Json, key: &str) -> Result<u16, PersistError> {
    u16::try_from(dec_u64(j, key)?).map_err(|_| schema(format!("`{key}` overflows u16")))
}

fn hex_word(s: &str, key: &str) -> Result<u64, PersistError> {
    u64::from_str_radix(s, 16).map_err(|_| schema(format!("`{key}` is not hex")))
}

/// A required hex-string `u64` member.
pub(crate) fn dec_hex_u64(j: &Json, key: &str) -> Result<u64, PersistError> {
    let s = req(j, key)?
        .as_str()
        .ok_or_else(|| schema(format!("`{key}` is not a hex string")))?;
    hex_word(s, key)
}

/// A required hex-bits `f64` member.
pub(crate) fn dec_hex_f64(j: &Json, key: &str) -> Result<f64, PersistError> {
    Ok(f64::from_bits(dec_hex_u64(j, key)?))
}

/// A `u64` that is a hex string in the current format but was a plain
/// JSON number in format version 1. The legacy number path is exact
/// only below 2⁵³ — which is precisely why the field moved to hex — but
/// every version-1 snapshot in the wild was written through `as f64`,
/// so reading it back the same way reproduces the stored value.
pub(crate) fn dec_u64_compat(j: &Json, key: &str) -> Result<u64, PersistError> {
    match req(j, key)? {
        Json::Str(s) => hex_word(s, key),
        other => other
            .as_u64()
            .ok_or_else(|| schema(format!("`{key}` is neither hex nor a u64"))),
    }
}

/// A required string member.
pub(crate) fn dec_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, PersistError> {
    req(j, key)?
        .as_str()
        .ok_or_else(|| schema(format!("`{key}` is not a string")))
}

fn dec_bool(j: &Json, key: &str) -> Result<bool, PersistError> {
    req(j, key)?
        .as_bool()
        .ok_or_else(|| schema(format!("`{key}` is not a bool")))
}

fn dec_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], PersistError> {
    req(j, key)?
        .as_arr()
        .ok_or_else(|| schema(format!("`{key}` is not an array")))
}

// ---------------------------------------------------------------------
// telemetry
// ---------------------------------------------------------------------

fn enc_counter_snapshot<S: JsonSink>(s: &mut S, c: &CounterSnapshot) {
    s.begin_obj();
    s.key("t").hex16(c.timestamp_ns);
    s.key("i").hex16(c.instructions);
    s.key("c").hex16(c.cycles);
    s.key("a").hex16(c.llc_accesses);
    s.key("m").hex16(c.llc_misses);
    s.end_obj();
}

fn dec_counter_snapshot(j: &Json) -> Result<CounterSnapshot, PersistError> {
    Ok(CounterSnapshot {
        timestamp_ns: dec_hex_u64(j, "t")?,
        instructions: dec_hex_u64(j, "i")?,
        cycles: dec_hex_u64(j, "c")?,
        llc_accesses: dec_hex_u64(j, "a")?,
        llc_misses: dec_hex_u64(j, "m")?,
    })
}

// ---------------------------------------------------------------------
// core: sensor / classifier / explorer / runtime
// ---------------------------------------------------------------------

fn enc_opt_f64<S: JsonSink>(s: &mut S, v: Option<f64>) {
    match v {
        Some(x) => s.hex16(x.to_bits()),
        None => s.null(),
    };
}

fn dec_opt_f64(j: &Json, what: &str) -> Result<Option<f64>, PersistError> {
    match j {
        Json::Null => Ok(None),
        Json::Str(s) => Ok(Some(f64::from_bits(hex_word(s, what)?))),
        _ => Err(schema(format!("`{what}` is neither null nor hex"))),
    }
}

fn enc_sensor<S: JsonSink>(s: &mut S, sensor: &SensorSnapshot) {
    s.begin_obj();
    s.key("capacity").num(sensor.capacity as f64);
    arr(s, "samples", &sensor.samples, enc_counter_snapshot);
    arr(s, "ewma", sensor.ewma, enc_opt_f64);
    s.end_obj();
}

fn dec_sensor(j: &Json) -> Result<SensorSnapshot, PersistError> {
    let samples = dec_arr(j, "samples")?
        .iter()
        .map(dec_counter_snapshot)
        .collect::<Result<Vec<_>, _>>()?;
    let raw = dec_arr(j, "ewma")?;
    if raw.len() != 4 {
        return Err(schema("`ewma` must have 4 entries"));
    }
    let mut ewma = [None; 4];
    for (slot, v) in ewma.iter_mut().zip(raw) {
        *slot = dec_opt_f64(v, "ewma")?;
    }
    Ok(SensorSnapshot {
        capacity: dec_u64(j, "capacity")? as usize,
        samples,
        ewma,
    })
}

fn app_state_name(s: AppState) -> &'static str {
    match s {
        AppState::Supply => "supply",
        AppState::Maintain => "maintain",
        AppState::Demand => "demand",
    }
}

fn dec_app_state(j: &Json, key: &str) -> Result<AppState, PersistError> {
    match dec_str(j, key)? {
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

fn dec_phase(j: &Json) -> Result<Phase, PersistError> {
    match dec_str(j, "phase")? {
        "profiling" => Ok(Phase::Profiling),
        "exploring" => Ok(Phase::Exploring),
        "idle" => Ok(Phase::Idle),
        other => Err(schema(format!("unknown phase `{other}`"))),
    }
}

fn enc_events<S: JsonSink>(s: &mut S, e: &AppliedEvents) {
    s.begin_obj();
    s.key("granted_llc").bool(e.granted_llc);
    s.key("granted_mba").bool(e.granted_mba);
    s.key("reclaimed_llc").bool(e.reclaimed_llc);
    s.key("reclaimed_mba").bool(e.reclaimed_mba);
    s.end_obj();
}

fn dec_events(j: &Json) -> Result<AppliedEvents, PersistError> {
    Ok(AppliedEvents {
        granted_llc: dec_bool(j, "granted_llc")?,
        granted_mba: dec_bool(j, "granted_mba")?,
        reclaimed_llc: dec_bool(j, "reclaimed_llc")?,
        reclaimed_mba: dec_bool(j, "reclaimed_mba")?,
    })
}

fn enc_system_state<S: JsonSink>(s: &mut S, key: &str, state: &SystemState) {
    arr(s, key, &state.allocs, |s, a| {
        s.begin_obj();
        s.key("ways").num(f64::from(a.ways));
        s.key("mba").num(f64::from(a.mba.percent()));
        s.end_obj();
    });
}

fn dec_system_state(j: &Json, key: &str) -> Result<SystemState, PersistError> {
    let allocs = req(j, key)?
        .as_arr()
        .ok_or_else(|| schema(format!("`{key}` is not an array")))?
        .iter()
        .map(|a| {
            Ok(AllocationState {
                ways: dec_u32(a, "ways")?,
                mba: MbaLevel::new(
                    u8::try_from(dec_u64(a, "mba")?).map_err(|_| schema("`mba` overflows u8"))?,
                ),
            })
        })
        .collect::<Result<Vec<_>, PersistError>>()?;
    Ok(SystemState { allocs })
}

fn enc_explorer<S: JsonSink>(s: &mut S, e: &ExplorerSnapshot) {
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

fn dec_explorer(j: &Json) -> Result<ExplorerSnapshot, PersistError> {
    let best_seen = match req(j, "best_seen")? {
        Json::Null => None,
        b => Some((dec_hex_f64(b, "unfairness")?, dec_system_state(b, "state")?)),
    };
    Ok(ExplorerSnapshot {
        rng_state: dec_hex_u64(j, "rng_state")?,
        retry_count: dec_u32(j, "retry_count")?,
        unfairness_at_idle: dec_hex_f64(j, "unfairness_at_idle")?,
        best_seen,
    })
}

/// Encodes one application's frozen controller state — the bit-exact
/// payload the fleet's migration tickets carry between nodes.
pub fn enc_app_runtime(a: &AppRuntimeSnapshot) -> Json {
    Json::build(|s| emit_app_runtime(s, a))
}

fn emit_app_runtime<S: JsonSink>(s: &mut S, a: &AppRuntimeSnapshot) {
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

/// Decodes one application's frozen controller state (inverse of
/// [`enc_app_runtime`]).
///
/// # Errors
///
/// Fails on missing fields or malformed hex-float encodings.
pub fn dec_app_runtime(j: &Json) -> Result<AppRuntimeSnapshot, PersistError> {
    Ok(AppRuntimeSnapshot {
        group: dec_u16(j, "group")?,
        name: dec_str(j, "name")?.to_string(),
        ips_full: dec_hex_f64(j, "ips_full")?,
        weight: dec_hex_f64(j, "weight")?,
        sensor: dec_sensor(req(j, "sensor")?)?,
        llc_state: dec_app_state(j, "llc_state")?,
        mba_state: dec_app_state(j, "mba_state")?,
        prev_ips: dec_hex_f64(j, "prev_ips")?,
        last_ips: dec_hex_f64(j, "last_ips")?,
        last_events: dec_events(req(j, "last_events")?)?,
    })
}

/// Encodes a frozen controller state.
pub fn enc_runtime(r: &RuntimeSnapshot) -> Json {
    Json::build(|s| emit_runtime(s, r))
}

fn emit_runtime<S: JsonSink>(s: &mut S, r: &RuntimeSnapshot) {
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

/// Decodes a frozen controller state.
pub fn dec_runtime(j: &Json) -> Result<RuntimeSnapshot, PersistError> {
    Ok(RuntimeSnapshot {
        epoch: dec_u64(j, "epoch")?,
        phase: dec_phase(j)?,
        state: dec_system_state(j, "state")?,
        // Absent in snapshots written before clustering existed; an
        // empty vector is also the live "no clustering" value, so no
        // version bump is needed for this field.
        clusters: match j.get("clusters") {
            Some(arr) => arr
                .as_arr()
                .ok_or_else(|| schema("`clusters` is not an array".to_string()))?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .and_then(|v| u16::try_from(v).ok())
                        .ok_or_else(|| schema("`clusters` entry is not a u16".to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        },
        explorer: dec_explorer(req(j, "explorer")?)?,
        apps: dec_arr(j, "apps")?
            .iter()
            .map(dec_app_runtime)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

// ---------------------------------------------------------------------
// sim: trace generator / app spec / cache / machine
// ---------------------------------------------------------------------

fn enc_pattern<S: JsonSink>(s: &mut S, p: &AccessPattern) {
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

fn dec_pattern(j: &Json) -> Result<AccessPattern, PersistError> {
    let bytes = dec_hex_u64(j, "bytes")?;
    match dec_str(j, "kind")? {
        "wsl" => Ok(AccessPattern::WorkingSetLoop {
            bytes,
            stride: dec_hex_u64(j, "stride")?,
        }),
        "stream" => Ok(AccessPattern::Stream { bytes }),
        "rand" => Ok(AccessPattern::UniformRandom { bytes }),
        "zipf" => Ok(AccessPattern::Zipf {
            bytes,
            exponent: dec_hex_f64(j, "exponent")?,
        }),
        "chase" => Ok(AccessPattern::PointerChase { bytes }),
        other => Err(schema(format!("unknown access pattern `{other}`"))),
    }
}

fn enc_spec<S: JsonSink>(s: &mut S, spec: &AppSpec) {
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

fn dec_spec(j: &Json) -> Result<AppSpec, PersistError> {
    Ok(AppSpec {
        name: dec_str(j, "name")?.to_string(),
        cores: dec_u32(j, "cores")?,
        ipc_peak: dec_hex_f64(j, "ipc_peak")?,
        apki: dec_hex_f64(j, "apki")?,
        write_fraction: dec_hex_f64(j, "write_fraction")?,
        mlp: dec_hex_f64(j, "mlp")?,
        phases: dec_arr(j, "phases")?
            .iter()
            .map(|p| Ok((dec_hex_f64(p, "weight")?, dec_pattern(req(p, "pattern")?)?)))
            .collect::<Result<Vec<_>, PersistError>>()?,
    })
}

fn enc_trace_gen<S: JsonSink>(s: &mut S, g: &TraceGenSnapshot) {
    s.begin_obj();
    arr(s, "cursors", &g.cursors, |s, &c| {
        s.hex16(c);
    });
    s.key("rng_state").hex16(g.rng_state);
    s.key("active").num(g.active as f64);
    s.key("burst_left").num(f64::from(g.burst_left));
    s.end_obj();
}

fn dec_trace_gen(j: &Json) -> Result<TraceGenSnapshot, PersistError> {
    Ok(TraceGenSnapshot {
        cursors: dec_arr(j, "cursors")?
            .iter()
            .map(|c| {
                c.as_str()
                    .ok_or_else(|| schema("`cursors` entry is not hex"))
                    .and_then(|s| hex_word(s, "cursors"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        rng_state: dec_hex_u64(j, "rng_state")?,
        active: dec_u64(j, "active")? as usize,
        burst_left: dec_u32(j, "burst_left")?,
    })
}

fn enc_sim_app<S: JsonSink>(s: &mut S, a: &SimAppSnapshot) {
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

fn dec_sim_app(j: &Json) -> Result<SimAppSnapshot, PersistError> {
    Ok(SimAppSnapshot {
        spec: dec_spec(req(j, "spec")?)?,
        clos: dec_u16(j, "clos")?,
        gen: dec_trace_gen(req(j, "gen")?)?,
        ips_estimate: dec_hex_f64(j, "ips_estimate")?,
        miss_ratio: dec_hex_f64(j, "miss_ratio")?,
        wb_per_access: dec_hex_f64(j, "wb_per_access")?,
        instructions: dec_hex_f64(j, "instructions")?,
        cycles: dec_hex_f64(j, "cycles")?,
        accesses: dec_hex_f64(j, "accesses")?,
        misses: dec_hex_f64(j, "misses")?,
        mem_traffic_bytes: dec_hex_f64(j, "mem_traffic_bytes")?,
    })
}

fn enc_cache<S: JsonSink>(s: &mut S, c: &CacheSnapshot) {
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

fn dec_cache(j: &Json) -> Result<CacheSnapshot, PersistError> {
    Ok(CacheSnapshot {
        clock: dec_hex_u64(j, "clock")?,
        lines: dec_arr(j, "lines")?
            .iter()
            .map(|l| {
                Ok(CacheLineSnapshot {
                    index: dec_hex_u64(l, "index")?,
                    tag: dec_hex_u64(l, "tag")?,
                    lru: dec_hex_u64(l, "lru")?,
                    owner: dec_u16(l, "owner")?,
                    dirty: dec_bool(l, "dirty")?,
                })
            })
            .collect::<Result<Vec<_>, PersistError>>()?,
    })
}

/// Encodes a frozen simulated machine.
pub fn enc_machine(m: &MachineSnapshot) -> Json {
    Json::build(|s| emit_machine(s, m))
}

fn emit_machine<S: JsonSink>(s: &mut S, m: &MachineSnapshot) {
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

/// Decodes a frozen simulated machine.
pub fn dec_machine(j: &Json) -> Result<MachineSnapshot, PersistError> {
    Ok(MachineSnapshot {
        time_ns: dec_hex_u64(j, "time_ns")?,
        clos_table: dec_arr(j, "clos")?
            .iter()
            .map(|c| {
                Ok((
                    dec_u16(c, "id")?,
                    dec_u32(c, "cbm")?,
                    u8::try_from(dec_u64(c, "mba")?).map_err(|_| schema("`mba` overflows u8"))?,
                ))
            })
            .collect::<Result<Vec<_>, PersistError>>()?,
        apps: dec_arr(j, "apps")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                a => dec_sim_app(a).map(Some),
            })
            .collect::<Result<Vec<_>, _>>()?,
        cache: dec_cache(req(j, "cache")?)?,
    })
}

// ---------------------------------------------------------------------
// faults
// ---------------------------------------------------------------------

/// Encodes frozen fault-injection state.
pub fn enc_fault_state(f: &FaultStateSnapshot) -> Json {
    Json::build(|s| emit_fault_state(s, f))
}

fn emit_fault_state<S: JsonSink>(s: &mut S, f: &FaultStateSnapshot) {
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

/// Decodes frozen fault-injection state.
pub fn dec_fault_state(j: &Json) -> Result<FaultStateSnapshot, PersistError> {
    let raw = dec_arr(j, "sites")?;
    if raw.len() != 5 {
        return Err(schema("`sites` must have 5 entries"));
    }
    let mut sites = [SiteSnapshot {
        rng_state: 0,
        calls: 0,
    }; 5];
    for (slot, s) in sites.iter_mut().zip(raw) {
        *slot = SiteSnapshot {
            rng_state: dec_hex_u64(s, "rng_state")?,
            calls: dec_hex_u64(s, "calls")?,
        };
    }
    let stats = req(j, "stats")?;
    Ok(FaultStateSnapshot {
        sites,
        stats: InjectionStats {
            dropouts: dec_hex_u64(stats, "dropouts")?,
            cbm_write_faults: dec_hex_u64(stats, "cbm_write_faults")?,
            mba_write_faults: dec_hex_u64(stats, "mba_write_faults")?,
            vanishes: dec_hex_u64(stats, "vanishes")?,
            clock_stalls: dec_hex_u64(stats, "clock_stalls")?,
        },
    })
}

// ---------------------------------------------------------------------
// backend
// ---------------------------------------------------------------------

fn enc_groups<S: JsonSink>(s: &mut S, groups: &[(u16, u32)]) {
    arr(s, "groups", groups, |s, &(clos, app)| {
        s.begin_obj();
        s.key("clos").num(f64::from(clos));
        s.key("app").num(f64::from(app));
        s.end_obj();
    });
}

fn dec_groups(j: &Json) -> Result<Vec<(u16, u32)>, PersistError> {
    dec_arr(j, "groups")?
        .iter()
        .map(|g| Ok((dec_u16(g, "clos")?, dec_u32(g, "app")?)))
        .collect()
}

/// Encodes a frozen backend.
pub fn enc_backend(b: &BackendSnapshot) -> Json {
    Json::build(|s| emit_backend(s, b))
}

fn emit_backend<S: JsonSink>(s: &mut S, b: &BackendSnapshot) {
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

/// Decodes a frozen backend.
pub fn dec_backend(j: &Json) -> Result<BackendSnapshot, PersistError> {
    let machine = dec_machine(req(j, "machine")?)?;
    let groups = dec_groups(j)?;
    let next_clos = dec_u16(j, "next_clos")?;
    match dec_str(j, "kind")? {
        "sim" => Ok(BackendSnapshot::Sim {
            machine,
            groups,
            next_clos,
        }),
        "faulty" => Ok(BackendSnapshot::Faulty {
            machine,
            groups,
            next_clos,
            fault_state: dec_fault_state(req(j, "fault_state")?)?,
        }),
        other => Err(schema(format!("unknown backend kind `{other}`"))),
    }
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
    /// The epoch the snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.runtime.epoch
    }

    /// Serialises the document to a JSON value.
    pub fn encode(&self) -> Json {
        Json::build(|s| self.emit(s))
    }

    /// Emits the document into `s`: as wire text when `s` is a
    /// [`copart_telemetry::JsonWriter`] (what the snapshot store does —
    /// no tree is built), as a tree when it is a `JsonTree`.
    pub fn emit<S: JsonSink>(&self, s: &mut S) {
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

    /// Deserialises a document.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] when a field is missing or ill-typed.
    pub fn decode(j: &Json) -> Result<SnapshotDoc, PersistError> {
        let meta = req(j, "meta")?;
        Ok(SnapshotDoc {
            meta: SnapshotMeta {
                mix: dec_str(meta, "mix")?.to_string(),
                n_apps: dec_u64(meta, "n_apps")?,
                policy: dec_str(meta, "policy")?.to_string(),
                seed: dec_u64_compat(meta, "seed")?,
                faults: dec_str(meta, "faults")?.to_string(),
                daemon_epochs: dec_u64(meta, "daemon_epochs")?,
            },
            runtime: dec_runtime(req(j, "runtime")?)?,
            backend: dec_backend(req(j, "backend")?)?,
            metrics: MetricsFrozen::decode(req(j, "metrics")?)?,
        })
    }
}
