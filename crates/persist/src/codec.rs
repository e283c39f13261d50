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
//! tree in between), the migration ticket streams [`emit_app_runtime`]
//! into its line the same way, and [`SnapshotDoc::encode`] builds a tree
//! from the same calls for the callers that inspect one. Every decoder
//! reads its members through the typed reader on
//! [`copart_telemetry::Json`] (`uint`, `hex_u64`, `hex_f64`, `string`,
//! …), whose one `FieldError` becomes [`PersistError::Schema`].

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
use copart_telemetry::{CounterSnapshot, FieldError, Json, JsonSink};

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

/// A `u64` that is a hex string in the current format but was a plain
/// JSON number in format version 1. The legacy number path is exact
/// only below 2⁵³ — which is precisely why the field moved to hex — but
/// every version-1 snapshot in the wild was written through `as f64`,
/// so reading it back the same way reproduces the stored value.
fn dec_u64_compat(j: &Json, key: &str) -> Result<u64, PersistError> {
    Ok(match j.member(key)? {
        Json::Str(_) => j.hex_u64(key)?,
        _ => j.uint(key)?,
    })
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

fn dec_counter_snapshot(j: &Json) -> Result<CounterSnapshot, FieldError> {
    Ok(CounterSnapshot {
        timestamp_ns: j.hex_u64("t")?,
        instructions: j.hex_u64("i")?,
        cycles: j.hex_u64("c")?,
        llc_accesses: j.hex_u64("a")?,
        llc_misses: j.hex_u64("m")?,
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

fn enc_sensor<S: JsonSink>(s: &mut S, sensor: &SensorSnapshot) {
    s.begin_obj();
    s.key("capacity").num(sensor.capacity as f64);
    arr(s, "samples", &sensor.samples, enc_counter_snapshot);
    arr(s, "ewma", sensor.ewma, enc_opt_f64);
    s.end_obj();
}

fn dec_sensor(j: &Json) -> Result<SensorSnapshot, PersistError> {
    let samples = j
        .array("samples")?
        .iter()
        .map(dec_counter_snapshot)
        .collect::<Result<Vec<_>, _>>()?;
    let raw = j.array("ewma")?;
    if raw.len() != 4 {
        return Err(schema("`ewma` must have 4 entries"));
    }
    let mut ewma = [None; 4];
    for (slot, v) in ewma.iter_mut().zip(raw) {
        if *v != Json::Null {
            let bits = v
                .as_hex_u64()
                .ok_or_else(|| FieldError::new("ewma", "array of null or hex f64 bits"))?;
            *slot = Some(f64::from_bits(bits));
        }
    }
    Ok(SensorSnapshot {
        capacity: j.uint("capacity")?,
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
    match j.string(key)? {
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
    match j.string("phase")? {
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

fn dec_events(j: &Json) -> Result<AppliedEvents, FieldError> {
    Ok(AppliedEvents {
        granted_llc: j.boolean("granted_llc")?,
        granted_mba: j.boolean("granted_mba")?,
        reclaimed_llc: j.boolean("reclaimed_llc")?,
        reclaimed_mba: j.boolean("reclaimed_mba")?,
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

fn dec_system_state(j: &Json, key: &str) -> Result<SystemState, FieldError> {
    let allocs = j
        .array(key)?
        .iter()
        .map(|a| {
            Ok(AllocationState {
                ways: a.uint("ways")?,
                mba: MbaLevel::new(a.uint("mba")?),
            })
        })
        .collect::<Result<Vec<_>, FieldError>>()?;
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

fn dec_explorer(j: &Json) -> Result<ExplorerSnapshot, FieldError> {
    let best_seen = match j.member("best_seen")? {
        Json::Null => None,
        b => Some((b.hex_f64("unfairness")?, dec_system_state(b, "state")?)),
    };
    Ok(ExplorerSnapshot {
        rng_state: j.hex_u64("rng_state")?,
        retry_count: j.uint("retry_count")?,
        unfairness_at_idle: j.hex_f64("unfairness_at_idle")?,
        best_seen,
    })
}

/// Emits one application's frozen controller state — the bit-exact
/// payload the fleet's migration tickets carry between nodes.
pub fn emit_app_runtime<S: JsonSink>(s: &mut S, a: &AppRuntimeSnapshot) {
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
/// [`emit_app_runtime`]).
///
/// # Errors
///
/// Fails on missing fields or malformed hex-float encodings.
pub fn dec_app_runtime(j: &Json) -> Result<AppRuntimeSnapshot, PersistError> {
    Ok(AppRuntimeSnapshot {
        group: j.uint("group")?,
        name: j.string("name")?.to_string(),
        ips_full: j.hex_f64("ips_full")?,
        weight: j.hex_f64("weight")?,
        sensor: dec_sensor(j.member("sensor")?)?,
        llc_state: dec_app_state(j, "llc_state")?,
        mba_state: dec_app_state(j, "mba_state")?,
        prev_ips: j.hex_f64("prev_ips")?,
        last_ips: j.hex_f64("last_ips")?,
        last_events: dec_events(j.member("last_events")?)?,
    })
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

fn dec_runtime(j: &Json) -> Result<RuntimeSnapshot, PersistError> {
    Ok(RuntimeSnapshot {
        epoch: j.uint("epoch")?,
        phase: dec_phase(j)?,
        state: dec_system_state(j, "state")?,
        // Absent in snapshots written before clustering existed; an
        // empty vector is also the live "no clustering" value, so no
        // version bump is needed for this field.
        clusters: match j.get("clusters") {
            Some(_) => j
                .array("clusters")?
                .iter()
                .map(|c| {
                    c.as_u64()
                        .and_then(|v| u16::try_from(v).ok())
                        .ok_or_else(|| FieldError::new("clusters", "array of u16"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        },
        explorer: dec_explorer(j.member("explorer")?)?,
        apps: j
            .array("apps")?
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
    let bytes = j.hex_u64("bytes")?;
    match j.string("kind")? {
        "wsl" => Ok(AccessPattern::WorkingSetLoop {
            bytes,
            stride: j.hex_u64("stride")?,
        }),
        "stream" => Ok(AccessPattern::Stream { bytes }),
        "rand" => Ok(AccessPattern::UniformRandom { bytes }),
        "zipf" => Ok(AccessPattern::Zipf {
            bytes,
            exponent: j.hex_f64("exponent")?,
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
        name: j.string("name")?.to_string(),
        cores: j.uint("cores")?,
        ipc_peak: j.hex_f64("ipc_peak")?,
        apki: j.hex_f64("apki")?,
        write_fraction: j.hex_f64("write_fraction")?,
        mlp: j.hex_f64("mlp")?,
        phases: j
            .array("phases")?
            .iter()
            .map(|p| Ok((p.hex_f64("weight")?, dec_pattern(p.member("pattern")?)?)))
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

fn dec_trace_gen(j: &Json) -> Result<TraceGenSnapshot, FieldError> {
    Ok(TraceGenSnapshot {
        cursors: j
            .array("cursors")?
            .iter()
            .map(|c| {
                c.as_hex_u64()
                    .ok_or_else(|| FieldError::new("cursors", "array of hex u64"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        rng_state: j.hex_u64("rng_state")?,
        active: j.uint("active")?,
        burst_left: j.uint("burst_left")?,
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
        spec: dec_spec(j.member("spec")?)?,
        clos: j.uint("clos")?,
        gen: dec_trace_gen(j.member("gen")?)?,
        ips_estimate: j.hex_f64("ips_estimate")?,
        miss_ratio: j.hex_f64("miss_ratio")?,
        wb_per_access: j.hex_f64("wb_per_access")?,
        instructions: j.hex_f64("instructions")?,
        cycles: j.hex_f64("cycles")?,
        accesses: j.hex_f64("accesses")?,
        misses: j.hex_f64("misses")?,
        mem_traffic_bytes: j.hex_f64("mem_traffic_bytes")?,
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

fn dec_cache(j: &Json) -> Result<CacheSnapshot, FieldError> {
    Ok(CacheSnapshot {
        clock: j.hex_u64("clock")?,
        lines: j
            .array("lines")?
            .iter()
            .map(|l| {
                Ok(CacheLineSnapshot {
                    index: l.hex_u64("index")?,
                    tag: l.hex_u64("tag")?,
                    lru: l.hex_u64("lru")?,
                    owner: l.uint("owner")?,
                    dirty: l.boolean("dirty")?,
                })
            })
            .collect::<Result<Vec<_>, FieldError>>()?,
    })
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

fn dec_machine(j: &Json) -> Result<MachineSnapshot, PersistError> {
    Ok(MachineSnapshot {
        time_ns: j.hex_u64("time_ns")?,
        clos_table: j
            .array("clos")?
            .iter()
            .map(|c| Ok((c.uint("id")?, c.uint("cbm")?, c.uint("mba")?)))
            .collect::<Result<Vec<_>, FieldError>>()?,
        apps: j
            .array("apps")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                a => dec_sim_app(a).map(Some),
            })
            .collect::<Result<Vec<_>, _>>()?,
        cache: dec_cache(j.member("cache")?)?,
    })
}

// ---------------------------------------------------------------------
// faults
// ---------------------------------------------------------------------

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

fn dec_fault_state(j: &Json) -> Result<FaultStateSnapshot, PersistError> {
    let raw = j.array("sites")?;
    if raw.len() != 5 {
        return Err(schema("`sites` must have 5 entries"));
    }
    let mut sites = [SiteSnapshot {
        rng_state: 0,
        calls: 0,
    }; 5];
    for (slot, s) in sites.iter_mut().zip(raw) {
        *slot = SiteSnapshot {
            rng_state: s.hex_u64("rng_state")?,
            calls: s.hex_u64("calls")?,
        };
    }
    let stats = j.member("stats")?;
    Ok(FaultStateSnapshot {
        sites,
        stats: InjectionStats {
            dropouts: stats.hex_u64("dropouts")?,
            cbm_write_faults: stats.hex_u64("cbm_write_faults")?,
            mba_write_faults: stats.hex_u64("mba_write_faults")?,
            vanishes: stats.hex_u64("vanishes")?,
            clock_stalls: stats.hex_u64("clock_stalls")?,
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

fn dec_groups(j: &Json) -> Result<Vec<(u16, u32)>, FieldError> {
    j.array("groups")?
        .iter()
        .map(|g| Ok((g.uint("clos")?, g.uint("app")?)))
        .collect()
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

fn dec_backend(j: &Json) -> Result<BackendSnapshot, PersistError> {
    let machine = dec_machine(j.member("machine")?)?;
    let groups = dec_groups(j)?;
    let next_clos = j.uint("next_clos")?;
    match j.string("kind")? {
        "sim" => Ok(BackendSnapshot::Sim {
            machine,
            groups,
            next_clos,
        }),
        "faulty" => Ok(BackendSnapshot::Faulty {
            machine,
            groups,
            next_clos,
            fault_state: dec_fault_state(j.member("fault_state")?)?,
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
        let meta = j.member("meta")?;
        Ok(SnapshotDoc {
            meta: SnapshotMeta {
                mix: meta.string("mix")?.to_string(),
                n_apps: meta.uint("n_apps")?,
                policy: meta.string("policy")?.to_string(),
                seed: dec_u64_compat(meta, "seed")?,
                faults: meta.string("faults")?.to_string(),
                daemon_epochs: meta.uint("daemon_epochs")?,
            },
            runtime: dec_runtime(j.member("runtime")?)?,
            backend: dec_backend(j.member("backend")?)?,
            metrics: MetricsFrozen::decode(j.member("metrics")?)?,
        })
    }
}
