//! The per-epoch trace event emitted by the consolidation runtime.
//!
//! One [`TraceEvent`] captures everything the controller knew and did in
//! one control epoch (one period of Figure 10's profile → explore → idle
//! loop): the per-application measurements (Eq 1 slowdowns, rates), the
//! classifier FSM states (§5.3), the system-wide unfairness (Eq 2), the
//! allocation the explorer *proposed* and the one actually *applied*,
//! plus Algorithm 1/2 diagnostics (θ-retry count, matching rounds).
//!
//! The types here are deliberately plain — strings and small enums, no
//! controller types — because `copart-telemetry` sits below `copart-core`
//! in the crate graph. The runtime converts its richer types into this
//! representation at emit time.
//!
//! Events serialise to JSONL (one [`TraceEvent::to_json_line`] per line)
//! and parse back with [`TraceEvent::from_json_line`]; the schema is
//! documented field-by-field in `DESIGN.md` § Observability.

use crate::json::{FieldError, Json, JsonError, JsonSink, JsonWriter};
use crate::Rates;
use std::fmt;

/// The controller phase a trace event was emitted from (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Initial per-application profiling (§5.4.1).
    Profiling,
    /// Actively exploring allocations (Algorithm 1).
    Exploring,
    /// Converged; monitoring for unfairness drift.
    Idle,
}

impl TracePhase {
    /// Stable wire name (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            TracePhase::Profiling => "profiling",
            TracePhase::Exploring => "exploring",
            TracePhase::Idle => "idle",
        }
    }

    /// Parses a wire name produced by [`TracePhase::as_str`].
    pub fn from_wire(s: &str) -> Option<TracePhase> {
        match s {
            "profiling" => Some(TracePhase::Profiling),
            "exploring" => Some(TracePhase::Exploring),
            "idle" => Some(TracePhase::Idle),
            _ => None,
        }
    }
}

/// A classifier FSM state (§5.3) in wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// The application can give the resource up.
    Supply,
    /// The application is content with its share.
    Maintain,
    /// The application wants more of the resource.
    Demand,
}

impl TraceClass {
    /// Stable wire name (lowercase).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceClass::Supply => "supply",
            TraceClass::Maintain => "maintain",
            TraceClass::Demand => "demand",
        }
    }

    /// Parses a wire name produced by [`TraceClass::as_str`].
    pub fn from_wire(s: &str) -> Option<TraceClass> {
        match s {
            "supply" => Some(TraceClass::Supply),
            "maintain" => Some(TraceClass::Maintain),
            "demand" => Some(TraceClass::Demand),
            _ => None,
        }
    }
}

/// What the controller decided this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceDecision {
    /// A profiling probe completed (one event per profiled application).
    Profiled,
    /// The matching produced a transfer and the new state was applied.
    Transfer,
    /// The matching found no transfer; a random θ-retry neighbor was
    /// applied instead (Algorithm 1 line 9).
    ThetaRetry,
    /// Retries exhausted; the best state seen was restored and the
    /// controller went idle.
    Converged,
    /// Idle monitoring — nothing changed.
    Monitor,
    /// Idle unfairness drifted past the re-exploration threshold; the
    /// controller is exploring again.
    ReExplore,
}

impl TraceDecision {
    /// Stable wire name (snake_case).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceDecision::Profiled => "profiled",
            TraceDecision::Transfer => "transfer",
            TraceDecision::ThetaRetry => "theta_retry",
            TraceDecision::Converged => "converged",
            TraceDecision::Monitor => "monitor",
            TraceDecision::ReExplore => "re_explore",
        }
    }

    /// Parses a wire name produced by [`TraceDecision::as_str`].
    pub fn from_wire(s: &str) -> Option<TraceDecision> {
        match s {
            "profiled" => Some(TraceDecision::Profiled),
            "transfer" => Some(TraceDecision::Transfer),
            "theta_retry" => Some(TraceDecision::ThetaRetry),
            "converged" => Some(TraceDecision::Converged),
            "monitor" => Some(TraceDecision::Monitor),
            "re_explore" => Some(TraceDecision::ReExplore),
            _ => None,
        }
    }
}

/// One application's view in a trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSample {
    /// Workload name (stable across the run).
    pub name: String,
    /// Measured instructions per second this epoch.
    pub ips: f64,
    /// Eq 1 slowdown: solo-full-machine IPS over achieved IPS.
    pub slowdown: f64,
    /// LLC classifier FSM state after this epoch's update.
    pub llc_state: TraceClass,
    /// MBA classifier FSM state after this epoch's update.
    pub mba_state: TraceClass,
    /// LLC miss ratio this epoch.
    pub miss_ratio: f64,
    /// LLC accesses per second this epoch.
    pub llc_accesses_per_sec: f64,
    /// LLC misses per second this epoch.
    pub llc_misses_per_sec: f64,
}

impl AppSample {
    /// Builds a sample from a name, Eq 1 slowdown, FSM states and the
    /// telemetry [`Rates`] measured this epoch.
    pub fn from_rates(
        name: &str,
        slowdown: f64,
        llc_state: TraceClass,
        mba_state: TraceClass,
        rates: &Rates,
    ) -> AppSample {
        AppSample {
            name: name.to_string(),
            ips: rates.ips,
            slowdown,
            llc_state,
            mba_state,
            miss_ratio: rates.miss_ratio,
            llc_accesses_per_sec: rates.llc_accesses_per_sec,
            llc_misses_per_sec: rates.llc_misses_per_sec,
        }
    }
}

/// One application's allocation in a (proposed or applied) system state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSample {
    /// Number of LLC ways granted.
    pub ways: u32,
    /// MBA throttle percentage (10–100).
    pub mba_percent: u8,
}

/// Fault-handling activity within one control epoch.
///
/// Present on an event only when the runtime observed or worked around a
/// backend fault this epoch; fault-free epochs omit the field entirely,
/// so fault-free traces are byte-identical to those of a build with no
/// fault machinery wired in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSample {
    /// Applications whose counter read failed this epoch; the runtime
    /// held their FSM state and substituted EWMA'd rates (degraded mode).
    pub degraded: Vec<String>,
    /// Transient (`Busy`) schemata writes retried this epoch, across all
    /// apply and rollback attempts.
    pub write_retries: u32,
    /// Whether a partition apply failed mid-way and the previous
    /// partition was rolled back.
    pub rolled_back: bool,
}

impl FaultSample {
    /// An empty record (nothing happened). The runtime drops empty
    /// samples instead of emitting them.
    pub fn new() -> FaultSample {
        FaultSample {
            degraded: Vec::new(),
            write_retries: 0,
            rolled_back: false,
        }
    }

    /// Whether the sample records no fault activity at all.
    pub fn is_empty(&self) -> bool {
        self.degraded.is_empty() && self.write_retries == 0 && !self.rolled_back
    }
}

impl Default for FaultSample {
    fn default() -> FaultSample {
        FaultSample::new()
    }
}

/// One control epoch of the consolidation runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Monotone epoch counter (starts at 0, increments per event).
    pub epoch: u64,
    /// Backend wall-clock at emit time, in nanoseconds.
    pub time_ns: u64,
    /// Controller phase (Figure 10).
    pub phase: TracePhase,
    /// What the controller decided this epoch.
    pub decision: TraceDecision,
    /// Algorithm 1 θ-retry counter at the end of the epoch.
    pub retry_count: u32,
    /// Rounds the Algorithm 2 matching ran this epoch (0 when no
    /// matching was attempted).
    pub matching_rounds: u32,
    /// Eq 2 unfairness (σ/μ of weighted slowdowns) this epoch.
    pub unfairness: f64,
    /// Per-application measurements, in group order.
    pub apps: Vec<AppSample>,
    /// The allocation the explorer proposed this epoch (equals
    /// `applied` when the proposal was accepted; empty during
    /// profiling and idle monitoring).
    pub proposed: Vec<AllocSample>,
    /// The allocation in force at the end of the epoch, in group order.
    pub applied: Vec<AllocSample>,
    /// Fault-handling activity this epoch; `None` (and absent from the
    /// JSONL) on fault-free epochs.
    pub fault: Option<FaultSample>,
}

/// An error turning a JSONL line back into a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// The line was not well-formed JSON.
    Json(JsonError),
    /// The JSON was well-formed but did not match the schema.
    Schema(String),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Json(e) => write!(f, "{e}"),
            TraceParseError::Schema(msg) => write!(f, "trace schema error: {msg}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl From<JsonError> for TraceParseError {
    fn from(e: JsonError) -> TraceParseError {
        TraceParseError::Json(e)
    }
}

impl From<FieldError> for TraceParseError {
    fn from(e: FieldError) -> TraceParseError {
        TraceParseError::Schema(e.to_string())
    }
}

/// A trace `f64` member. Non-finite floats encode as null (JSON has no
/// Infinity); an infinite slowdown means "no progress against a live
/// reference" and must survive the round trip.
fn f64_field(obj: &Json, key: &str) -> Result<f64, FieldError> {
    match obj.member(key)? {
        Json::Null => Ok(f64::INFINITY),
        _ => obj.number(key),
    }
}

impl TraceEvent {
    /// Serialises the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json_line(&mut line);
        line
    }

    /// Appends the event's JSONL line (no trailing newline) to `out`:
    /// [`TraceEvent::to_json_line`] without the allocation, for sinks
    /// that keep a line buffer.
    pub fn write_json_line(&self, out: &mut String) {
        fn allocs(w: &mut JsonWriter<'_>, key: &str, xs: &[AllocSample]) {
            w.key(key).begin_arr();
            for x in xs {
                w.begin_obj();
                w.key("ways").num(f64::from(x.ways));
                w.key("mba").num(f64::from(x.mba_percent));
                w.end_obj();
            }
            w.end_arr();
        }
        let mut w = JsonWriter::new(out);
        w.begin_obj();
        w.key("epoch").num(self.epoch as f64);
        w.key("time_ns").num(self.time_ns as f64);
        w.key("phase").str(self.phase.as_str());
        w.key("decision").str(self.decision.as_str());
        w.key("retry_count").num(f64::from(self.retry_count));
        w.key("matching_rounds")
            .num(f64::from(self.matching_rounds));
        w.key("unfairness").num(self.unfairness);
        w.key("apps").begin_arr();
        for a in &self.apps {
            w.begin_obj();
            w.key("name").str(&a.name);
            w.key("ips").num(a.ips);
            w.key("slowdown").num(a.slowdown);
            w.key("llc_state").str(a.llc_state.as_str());
            w.key("mba_state").str(a.mba_state.as_str());
            w.key("miss_ratio").num(a.miss_ratio);
            w.key("llc_aps").num(a.llc_accesses_per_sec);
            w.key("llc_mps").num(a.llc_misses_per_sec);
            w.end_obj();
        }
        w.end_arr();
        allocs(&mut w, "proposed", &self.proposed);
        allocs(&mut w, "applied", &self.applied);
        if let Some(fault) = &self.fault {
            w.key("fault").begin_obj();
            w.key("degraded").begin_arr();
            for name in &fault.degraded {
                w.str(name);
            }
            w.end_arr();
            w.key("write_retries").num(f64::from(fault.write_retries));
            w.key("rolled_back").bool(fault.rolled_back);
            w.end_obj();
        }
        w.end_obj();
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<TraceEvent, TraceParseError> {
        let v = Json::parse(line)?;
        let phase = v.string("phase")?;
        let phase = TracePhase::from_wire(phase)
            .ok_or_else(|| TraceParseError::Schema(format!("unknown phase '{phase}'")))?;
        let decision = v.string("decision")?;
        let decision = TraceDecision::from_wire(decision)
            .ok_or_else(|| TraceParseError::Schema(format!("unknown decision '{decision}'")))?;
        let apps = v
            .array("apps")?
            .iter()
            .map(|a| -> Result<AppSample, TraceParseError> {
                let class = |key: &str| -> Result<TraceClass, TraceParseError> {
                    let s = a.string(key)?;
                    TraceClass::from_wire(s).ok_or_else(|| {
                        TraceParseError::Schema(format!("unknown class '{s}' in '{key}'"))
                    })
                };
                Ok(AppSample {
                    name: a.string("name")?.to_string(),
                    ips: f64_field(a, "ips")?,
                    slowdown: f64_field(a, "slowdown")?,
                    llc_state: class("llc_state")?,
                    mba_state: class("mba_state")?,
                    miss_ratio: f64_field(a, "miss_ratio")?,
                    llc_accesses_per_sec: f64_field(a, "llc_aps")?,
                    llc_misses_per_sec: f64_field(a, "llc_mps")?,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let allocs = |key: &str| -> Result<Vec<AllocSample>, FieldError> {
            v.array(key)?
                .iter()
                .map(|x| {
                    Ok(AllocSample {
                        ways: x.uint("ways")?,
                        mba_percent: x.uint("mba")?,
                    })
                })
                .collect()
        };
        // Absent on fault-free epochs (and in traces predating the
        // fault-injection subsystem) — parse back to None.
        let fault = match v.get("fault") {
            None => None,
            Some(f) => Some(FaultSample {
                degraded: f
                    .array("degraded")?
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| FieldError::new("degraded", "array of strings"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                write_retries: f.uint("write_retries")?,
                rolled_back: f.boolean("rolled_back")?,
            }),
        };
        Ok(TraceEvent {
            epoch: v.uint("epoch")?,
            time_ns: v.uint("time_ns")?,
            phase,
            decision,
            retry_count: v.uint("retry_count")?,
            matching_rounds: v.uint("matching_rounds")?,
            unfairness: f64_field(&v, "unfairness")?,
            apps,
            proposed: allocs("proposed")?,
            applied: allocs("applied")?,
            fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_event(epoch: u64) -> TraceEvent {
        TraceEvent {
            epoch,
            time_ns: 200_000_000 * (epoch + 1),
            phase: TracePhase::Exploring,
            decision: TraceDecision::Transfer,
            retry_count: 1,
            matching_rounds: 3,
            unfairness: 0.173_25,
            apps: vec![
                AppSample {
                    name: "fft".into(),
                    ips: 2.13e9,
                    slowdown: 1.31,
                    llc_state: TraceClass::Demand,
                    mba_state: TraceClass::Supply,
                    miss_ratio: 0.042,
                    llc_accesses_per_sec: 1.7e7,
                    llc_misses_per_sec: 7.1e5,
                },
                AppSample {
                    name: "stream".into(),
                    ips: 9.4e8,
                    slowdown: 2.05,
                    llc_state: TraceClass::Supply,
                    mba_state: TraceClass::Demand,
                    miss_ratio: 0.91,
                    llc_accesses_per_sec: 4.4e7,
                    llc_misses_per_sec: 4.0e7,
                },
            ],
            proposed: vec![
                AllocSample {
                    ways: 6,
                    mba_percent: 100,
                },
                AllocSample {
                    ways: 5,
                    mba_percent: 60,
                },
            ],
            applied: vec![
                AllocSample {
                    ways: 6,
                    mba_percent: 100,
                },
                AllocSample {
                    ways: 5,
                    mba_percent: 60,
                },
            ],
            fault: None,
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        for epoch in [0, 1, 7, 100_000] {
            let event = sample_event(epoch);
            let line = event.to_json_line();
            assert!(!line.contains('\n'), "one line per event");
            let parsed = TraceEvent::from_json_line(&line).unwrap();
            assert_eq!(parsed, event);
        }
    }

    #[test]
    fn fault_field_round_trips_and_is_omitted_when_none() {
        let clean = sample_event(4);
        assert!(
            !clean.to_json_line().contains("fault"),
            "fault-free events must not mention faults"
        );
        let mut faulty = sample_event(4);
        faulty.fault = Some(FaultSample {
            degraded: vec!["stream".into()],
            write_retries: 2,
            rolled_back: true,
        });
        let parsed = TraceEvent::from_json_line(&faulty.to_json_line()).unwrap();
        assert_eq!(parsed, faulty);
        assert!(FaultSample::new().is_empty());
        assert!(!parsed.fault.unwrap().is_empty());
    }

    #[test]
    fn infinite_slowdown_survives_round_trip() {
        let mut event = sample_event(3);
        event.apps[0].slowdown = f64::INFINITY;
        let parsed = TraceEvent::from_json_line(&event.to_json_line()).unwrap();
        assert_eq!(parsed.apps[0].slowdown, f64::INFINITY);
    }

    #[test]
    fn wire_enums_round_trip() {
        for p in [
            TracePhase::Profiling,
            TracePhase::Exploring,
            TracePhase::Idle,
        ] {
            assert_eq!(TracePhase::from_wire(p.as_str()), Some(p));
        }
        for c in [TraceClass::Supply, TraceClass::Maintain, TraceClass::Demand] {
            assert_eq!(TraceClass::from_wire(c.as_str()), Some(c));
        }
        for d in [
            TraceDecision::Profiled,
            TraceDecision::Transfer,
            TraceDecision::ThetaRetry,
            TraceDecision::Converged,
            TraceDecision::Monitor,
            TraceDecision::ReExplore,
        ] {
            assert_eq!(TraceDecision::from_wire(d.as_str()), Some(d));
        }
        assert_eq!(TracePhase::from_wire("bogus"), None);
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for line in [
            "",
            "{}",
            "not json",
            "{\"epoch\":1}",
            "{\"epoch\":-1,\"time_ns\":0}",
        ] {
            assert!(TraceEvent::from_json_line(line).is_err(), "{line:?}");
        }
        // Unknown enum value.
        let line = sample_event(0)
            .to_json_line()
            .replace("exploring", "warping");
        assert!(TraceEvent::from_json_line(&line).is_err());
        // A u32 counter past u32::MAX is refused, not truncated to 1.
        let mut faulty = sample_event(0);
        faulty.fault = Some(FaultSample {
            degraded: vec!["fft".into()],
            write_retries: 2,
            rolled_back: false,
        });
        let line = faulty.to_json_line();
        for (key, value) in [
            ("retry_count", 1),
            ("matching_rounds", 3),
            ("write_retries", 2),
        ] {
            let from = format!("\"{key}\":{value},");
            assert!(line.contains(&from), "{line}");
            let bad = line.replace(&from, &format!("\"{key}\":4294967297,"));
            let err = TraceEvent::from_json_line(&bad).unwrap_err();
            assert!(err.to_string().contains(key), "{key}: {err}");
        }
    }
}
