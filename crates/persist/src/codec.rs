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
//! [`PersistError::Json`].
//!
//! One member has its own spelling: `backend.machine.cache.lines`,
//! nearly all of a snapshot's bytes, is one string of packed hex
//! records rather than an array of objects (format version 3,
//! `emit_cache_lines`). It is also the one member with a legacy shape:
//! the file header's version picks its reader, and a version-2 file's
//! array of line objects still reads.

use std::borrow::Cow;

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
use copart_telemetry::{CounterSnapshot, Json, JsonReader, JsonWriter};

use crate::backend::{BackendSnapshot, PersistableBackend};
use crate::error::PersistError;
use crate::metrics::MetricsFrozen;
use crate::store::SNAP_VERSION;

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
            clusters: r.key("clusters")?.items(JsonReader::uint)?,
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
    s.key("lines")
        .str_with(|out| emit_cache_lines(out, &c.lines));
    s.end_obj();
}

/// Appends the cache's valid lines as the packed run of format version
/// 3: one `gap.tag.lru.od;` record per line in flat-index order, where
/// `gap` is the index step minus one (the first line's step is from
/// index -1), `od` is `owner << 1 | dirty`, and every field is
/// lowercase hex with no leading zeros. ~5 600 lines on the paper's
/// machine: nearly all of a snapshot's bytes are written here.
///
/// # Panics
///
/// When the lines are not in strictly ascending flat-index order, the
/// order [`CacheSnapshot`] keeps them in: no gap could spell the step.
fn emit_cache_lines(out: &mut String, lines: &[CacheLineSnapshot]) {
    let mut prev: Option<u64> = None;
    for l in lines {
        assert!(
            prev.is_none_or(|p| l.index > p),
            "cache lines are in ascending flat-index order"
        );
        // `p + 1` cannot overflow: `l.index > p`.
        let gap = l.index - prev.map_or(0, |p| p + 1);
        let od = u64::from(l.owner) << 1 | u64::from(l.dirty);
        // Four fields of at most 16 digits, three `.` and a `;`.
        let mut record = [0u8; 68];
        let mut len = 0;
        for (v, end) in [(gap, b'.'), (l.tag, b'.'), (l.lru, b'.'), (od, b';')] {
            len = push_hex(&mut record, len, v);
            record[len] = end;
            len += 1;
        }
        out.push_str(std::str::from_utf8(&record[..len]).expect("hex records are ASCII"));
        prev = Some(l.index);
    }
}

/// Writes `v` into `buf` at `at` as lowercase hex with no leading zeros
/// (`0` for zero); returns the end.
fn push_hex(buf: &mut [u8], at: usize, v: u64) -> usize {
    let digits = (64 - (v | 1).leading_zeros()).div_ceil(4) as usize;
    for (i, digit) in buf[at..at + digits].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(v >> (4 * (digits - 1 - i)) & 0xf) as usize];
    }
    at + digits
}

/// Reads a packed run written by [`emit_cache_lines`]. Strict: each
/// field is 1–16 lowercase hex digits with no leading zero, each record
/// ends in `;`, no index passes `u64::MAX` and no owner `u16::MAX`, so
/// a run that reads has exactly one spelling.
fn read_cache_lines(run: &str) -> Result<Vec<CacheLineSnapshot>, PersistError> {
    let bytes = run.as_bytes();
    // A record takes at least eight bytes; the bound keeps a run of bare
    // `;` from reserving a line per byte.
    let records = bytes.iter().filter(|&&b| b == b';').count();
    let mut lines = Vec::with_capacity(records.min(bytes.len() / 8));
    let mut at = 0;
    let mut next = Some(0u64);
    while at < bytes.len() {
        let gap = hex_field(bytes, &mut at, b'.')?;
        let tag = hex_field(bytes, &mut at, b'.')?;
        let lru = hex_field(bytes, &mut at, b'.')?;
        let od = hex_field(bytes, &mut at, b';')?;
        let index = next
            .and_then(|n| n.checked_add(gap))
            .ok_or_else(|| schema("`lines`: a line index passes u64::MAX"))?;
        next = index.checked_add(1);
        lines.push(CacheLineSnapshot {
            index,
            tag,
            lru,
            owner: u16::try_from(od >> 1)
                .map_err(|_| schema("`lines`: a line owner passes u16::MAX"))?,
            dirty: od & 1 == 1,
        });
    }
    Ok(lines)
}

/// One field of a packed run, from `at` through its `end` byte (which it
/// consumes).
fn hex_field(bytes: &[u8], at: &mut usize, end: u8) -> Result<u64, PersistError> {
    let start = *at;
    let mut v = 0u64;
    loop {
        let Some(&b) = bytes.get(*at) else {
            return Err(schema("`lines`: the run ends inside a record"));
        };
        *at += 1;
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ if b == end => break,
            _ => {
                return Err(schema(format!(
                    "`lines`: byte {} of the run is not lowercase hex or `{}`",
                    *at - 1,
                    char::from(end)
                )))
            }
        };
        v = v << 4 | u64::from(digit);
    }
    match *at - 1 - start {
        0 => Err(schema(format!("`lines`: empty field at byte {start}"))),
        17.. => Err(schema(format!(
            "`lines`: field at byte {start} passes 16 digits"
        ))),
        2.. if bytes[start] == b'0' => Err(schema(format!(
            "`lines`: field at byte {start} has a leading zero"
        ))),
        _ => Ok(v),
    }
}

/// A version-2 `lines` member: one object per line.
fn read_cache_line_objects(r: &mut JsonReader<'_>) -> Result<Vec<CacheLineSnapshot>, PersistError> {
    r.items(|r| {
        obj(r, |r| {
            Ok(CacheLineSnapshot {
                index: r.key("index")?.hex_u64()?,
                tag: r.key("tag")?.hex_u64()?,
                lru: r.key("lru")?.hex_u64()?,
                owner: r.key("owner")?.uint()?,
                dirty: r.key("dirty")?.boolean()?,
            })
        })
    })
}

/// Reads a cache whose `lines` are spelled as format `version` spells
/// them: version 2 as objects, version 3 as a packed run.
fn read_cache(r: &mut JsonReader<'_>, version: u64) -> Result<CacheSnapshot, PersistError> {
    obj(r, |r| {
        let clock = r.key("clock")?.hex_u64()?;
        let lines = r.key("lines")?;
        let lines = if version == 2 {
            read_cache_line_objects(lines)?
        } else {
            // The writer never escapes a byte of the run.
            match lines.string()? {
                Cow::Borrowed(run) => read_cache_lines(run)?,
                Cow::Owned(_) => return Err(schema("`lines`: an escape in the packed run")),
            }
        };
        Ok(CacheSnapshot { clock, lines })
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

fn read_machine(r: &mut JsonReader<'_>, version: u64) -> Result<MachineSnapshot, PersistError> {
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
            cache: read_cache(r.key("cache")?, version)?,
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

fn read_backend(r: &mut JsonReader<'_>, version: u64) -> Result<BackendSnapshot, PersistError> {
    obj(r, |r| {
        let kind = r.key("kind")?.string()?;
        let faulty = match &*kind {
            "sim" => false,
            "faulty" => true,
            other => return Err(schema(format!("unknown backend kind `{other}`"))),
        };
        let machine = read_machine(r.key("machine")?, version)?;
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

    /// Reads a whole document from its wire text in the current format
    /// ([`SNAP_VERSION`]), pulling each member straight into the decoded
    /// value (no `Json` tree is built).
    ///
    /// # Errors
    ///
    /// [`PersistError::Json`] when the text is not JSON;
    /// [`PersistError::Schema`] when a member is missing, out of order or
    /// ill-typed.
    pub fn parse(text: &str) -> Result<SnapshotDoc, PersistError> {
        SnapshotDoc::parse_version(text, SNAP_VERSION)
    }

    /// [`SnapshotDoc::parse`] for a document of format `version`, which
    /// the snapshot file's header names (2 or 3).
    pub(crate) fn parse_version(text: &str, version: u64) -> Result<SnapshotDoc, PersistError> {
        let mut r = JsonReader::new(text);
        let doc = SnapshotDoc::read(&mut r, version)?;
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

    fn read(r: &mut JsonReader<'_>, version: u64) -> Result<SnapshotDoc, PersistError> {
        obj(r, |r| {
            Ok(SnapshotDoc {
                meta: obj(r.key("meta")?, |r| {
                    Ok(SnapshotMeta {
                        mix: r.key("mix")?.string()?.into_owned(),
                        n_apps: r.key("n_apps")?.uint()?,
                        policy: r.key("policy")?.string()?.into_owned(),
                        seed: r.key("seed")?.hex_u64()?,
                        faults: r.key("faults")?.string()?.into_owned(),
                        daemon_epochs: r.key("daemon_epochs")?.uint()?,
                    })
                })?,
                runtime: read_runtime(r.key("runtime")?)?,
                backend: read_backend(r.key("backend")?, version)?,
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

    /// A `cache` member with `lines` spelled `run`, read as version 3.
    fn read_run(run: &str) -> Result<CacheSnapshot, PersistError> {
        let text = format!(r#"{{"clock":"0000000000000007","lines":"{run}"}}"#);
        let mut r = JsonReader::new(&text);
        let cache = read_cache(&mut r, SNAP_VERSION)?;
        r.finish()?;
        Ok(cache)
    }

    fn cache_text(c: &CacheSnapshot) -> String {
        let mut text = String::new();
        enc_cache(&mut JsonWriter::new(&mut text), c);
        text
    }

    fn line(index: u64, tag: u64, lru: u64, owner: u16, dirty: bool) -> CacheLineSnapshot {
        CacheLineSnapshot {
            index,
            tag,
            lru,
            owner,
            dirty,
        }
    }

    #[test]
    fn the_packed_run_spells_each_field_in_canonical_hex() {
        let c = CacheSnapshot {
            clock: 7,
            lines: vec![
                line(0, 0, 0, 0, false),
                line(3, 0xab, 1 << 60, 1, true),
                line(u64::MAX, u64::MAX, u64::MAX, u16::MAX, true),
            ],
        };
        let run = "0.0.0.0;2.ab.1000000000000000.3;fffffffffffffffb.ffffffffffffffff.ffffffffffffffff.1ffff;";
        let text = cache_text(&c);
        assert_eq!(
            text,
            format!(r#"{{"clock":"0000000000000007","lines":"{run}"}}"#)
        );
        assert_eq!(read_run(run).unwrap(), c);
    }

    /// SplitMix64: the next draw of a seeded stream.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A field value: 0, `u64::MAX`, a short one or a full-width one.
    fn field(state: &mut u64) -> u64 {
        match draw(state) % 4 {
            0 => 0,
            1 => u64::MAX,
            2 => draw(state) >> (draw(state) % 64),
            _ => draw(state),
        }
    }

    /// Property-style round trip: seeded random caches — empty ones,
    /// gaps from 0 to ones that land on `u64::MAX`, tags and stamps at 0,
    /// `u64::MAX` and in between, owners up to `u16::MAX` — read back
    /// equal and re-encode to the same bytes.
    #[test]
    fn random_caches_round_trip_through_the_packed_run() {
        let rng = &mut 0x0c0f_fee5_eed5_u64;
        for case in 0..200 {
            let n = if case % 10 == 0 { 0 } else { draw(rng) % 64 };
            let mut lines = Vec::new();
            let mut at = 0u64;
            for _ in 0..n {
                let room = u64::MAX - at;
                let gap = match draw(rng) % 4 {
                    0 => 0,
                    1 => draw(rng) % 8,
                    2 => draw(rng) % (room / 2 + 1),
                    _ => room,
                };
                let index = at + gap;
                let (tag, lru, owner) = (field(rng), field(rng), field(rng) as u16);
                lines.push(line(index, tag, lru, owner, draw(rng) & 1 == 1));
                match index.checked_add(1) {
                    Some(after) => at = after,
                    None => break,
                }
            }
            let c = CacheSnapshot {
                clock: field(rng),
                lines,
            };
            let text = cache_text(&c);
            let mut r = JsonReader::new(&text);
            let back = read_cache(&mut r, SNAP_VERSION).unwrap();
            r.finish().unwrap();
            assert_eq!(back, c, "case {case}");
            assert_eq!(cache_text(&back), text, "case {case}");
        }
    }

    fn assert_refused(run: &str, why: &str) {
        match read_run(run) {
            Err(PersistError::Schema(msg)) => assert!(msg.contains(why), "{run}: {msg}"),
            other => panic!("{run} read: {other:?}"),
        }
    }

    #[test]
    fn an_empty_field_is_refused() {
        assert_refused("0..0.2;", "empty field");
    }

    #[test]
    fn an_uppercase_field_is_refused() {
        assert_refused("0.AB.0.2;", "not lowercase hex");
    }

    #[test]
    fn a_zero_padded_field_is_refused() {
        assert_refused("0.0ab.0.2;", "leading zero");
    }

    #[test]
    fn a_field_of_17_digits_is_refused() {
        assert_refused("0.10000000000000000.0.2;", "passes 16 digits");
    }

    #[test]
    fn an_index_past_u64_max_is_refused() {
        assert_refused("1.0.0.0;fffffffffffffffe.0.0.0;", "passes u64::MAX");
        assert_refused("ffffffffffffffff.0.0.0;0.0.0.0;", "passes u64::MAX");
    }

    #[test]
    fn an_owner_past_u16_max_is_refused() {
        assert_refused("0.0.0.20000;", "passes u16::MAX");
    }

    #[test]
    fn a_torn_or_misseparated_record_is_refused() {
        assert_refused("0.0.0.0", "ends inside a record");
        assert_refused("0.0.0;", "not lowercase hex or `.`");
        assert_refused("0.0.0.0.", "not lowercase hex or `;`");
        assert_refused(r"0.0.0.\u0030;", "escape");
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
