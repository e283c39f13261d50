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

use crate::json::{FieldError, JsonReader, JsonWriter, ReadError};
use crate::Rates;

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

    /// Every phase, in Figure 10 order.
    const ALL: [TracePhase; 3] = [
        TracePhase::Profiling,
        TracePhase::Exploring,
        TracePhase::Idle,
    ];

    /// Parses a wire name produced by [`TracePhase::as_str`].
    pub fn from_wire(s: &str) -> Option<TracePhase> {
        TracePhase::ALL.into_iter().find(|p| p.as_str() == s)
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

    /// Every state.
    const ALL: [TraceClass; 3] = [TraceClass::Supply, TraceClass::Maintain, TraceClass::Demand];

    /// Parses a wire name produced by [`TraceClass::as_str`].
    pub fn from_wire(s: &str) -> Option<TraceClass> {
        TraceClass::ALL.into_iter().find(|c| c.as_str() == s)
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

    /// Every decision.
    const ALL: [TraceDecision; 6] = [
        TraceDecision::Profiled,
        TraceDecision::Transfer,
        TraceDecision::ThetaRetry,
        TraceDecision::Converged,
        TraceDecision::Monitor,
        TraceDecision::ReExplore,
    ];

    /// Parses a wire name produced by [`TraceDecision::as_str`].
    pub fn from_wire(s: &str) -> Option<TraceDecision> {
        TraceDecision::ALL.into_iter().find(|d| d.as_str() == s)
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

/// A trace `f64`. Non-finite floats encode as null (JSON has no
/// Infinity); an infinite slowdown means "no progress against a live
/// reference" and must survive the round trip.
fn read_f64(r: &mut JsonReader<'_>) -> Result<f64, ReadError> {
    Ok(r.nullable(JsonReader::number)?.unwrap_or(f64::INFINITY))
}

/// A wire-named enum member: the string at `key`, which `from_wire` must
/// know.
fn read_wire<T>(
    r: &mut JsonReader<'_>,
    key: &'static str,
    expected: &'static str,
    from_wire: fn(&str) -> Option<T>,
) -> Result<T, ReadError> {
    let name = r.key(key)?.string()?;
    from_wire(&name).ok_or_else(|| FieldError::new(key, expected).into())
}

fn read_allocs(r: &mut JsonReader<'_>, key: &'static str) -> Result<Vec<AllocSample>, ReadError> {
    r.key(key)?.items(|r| {
        r.object(|r| {
            Ok(AllocSample {
                ways: r.key("ways")?.uint()?,
                mba_percent: r.key("mba")?.uint()?,
            })
        })
    })
}

fn read_app(r: &mut JsonReader<'_>) -> Result<AppSample, ReadError> {
    r.object(|r| {
        Ok(AppSample {
            name: r.key("name")?.string()?.into_owned(),
            ips: read_f64(r.key("ips")?)?,
            slowdown: read_f64(r.key("slowdown")?)?,
            llc_state: read_wire(r, "llc_state", "trace class", TraceClass::from_wire)?,
            mba_state: read_wire(r, "mba_state", "trace class", TraceClass::from_wire)?,
            miss_ratio: read_f64(r.key("miss_ratio")?)?,
            llc_accesses_per_sec: read_f64(r.key("llc_aps")?)?,
            llc_misses_per_sec: read_f64(r.key("llc_mps")?)?,
        })
    })
}

fn read_fault(r: &mut JsonReader<'_>) -> Result<FaultSample, ReadError> {
    r.object(|r| {
        Ok(FaultSample {
            degraded: r.key("degraded")?.items(|r| r.string().map(String::from))?,
            write_retries: r.key("write_retries")?.uint()?,
            rolled_back: r.key("rolled_back")?.boolean()?,
        })
    })
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

    /// Parses one JSONL line produced by [`TraceEvent::to_json_line`],
    /// pulling its members in the order the writer emits them.
    ///
    /// # Errors
    ///
    /// [`ReadError::Syntax`] for a line that is not JSON;
    /// [`ReadError::Field`] for a member that is missing, out of order,
    /// extra, ill-typed or an unknown wire name.
    pub fn from_json_line(line: &str) -> Result<TraceEvent, ReadError> {
        JsonReader::record(line, |r| {
            Ok(TraceEvent {
                epoch: r.key("epoch")?.uint()?,
                time_ns: r.key("time_ns")?.uint()?,
                phase: read_wire(r, "phase", "trace phase", TracePhase::from_wire)?,
                decision: read_wire(r, "decision", "trace decision", TraceDecision::from_wire)?,
                retry_count: r.key("retry_count")?.uint()?,
                matching_rounds: r.key("matching_rounds")?.uint()?,
                unfairness: read_f64(r.key("unfairness")?)?,
                apps: r.key("apps")?.items(read_app)?,
                proposed: read_allocs(r, "proposed")?,
                applied: read_allocs(r, "applied")?,
                // Absent on fault-free epochs (and in traces predating the
                // fault-injection subsystem) — parse back to None.
                fault: if r.opt_key("fault")? {
                    Some(read_fault(r)?)
                } else {
                    None
                },
            })
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

    /// The member order the pull reader depends on, pinned: each line is
    /// the writer's bytes, and both directions hold. A member out of
    /// order or one no writer emits is a schema error.
    #[test]
    fn wire_lines_are_pinned_in_writer_order() {
        let plain = TraceEvent {
            epoch: 7,
            time_ns: 1_600_000_000,
            phase: TracePhase::Exploring,
            decision: TraceDecision::ThetaRetry,
            retry_count: 2,
            matching_rounds: 0,
            unfairness: 0.5,
            apps: vec![AppSample {
                name: "fft".into(),
                ips: 2.5e9,
                slowdown: f64::INFINITY,
                llc_state: TraceClass::Demand,
                mba_state: TraceClass::Maintain,
                miss_ratio: 0.25,
                llc_accesses_per_sec: 1.5e7,
                llc_misses_per_sec: 3.75e6,
            }],
            proposed: vec![AllocSample {
                ways: 6,
                mba_percent: 100,
            }],
            applied: vec![AllocSample {
                ways: 5,
                mba_percent: 90,
            }],
            fault: None,
        };
        let mut faulted = plain.clone();
        faulted.apps[0].slowdown = 1.25;
        faulted.fault = Some(FaultSample {
            degraded: vec!["fft".into()],
            write_retries: 1,
            rolled_back: true,
        });
        let plain_line = r#"{"epoch":7,"time_ns":1600000000,"phase":"exploring","decision":"theta_retry","retry_count":2,"matching_rounds":0,"unfairness":0.5,"apps":[{"name":"fft","ips":2500000000,"slowdown":null,"llc_state":"demand","mba_state":"maintain","miss_ratio":0.25,"llc_aps":15000000,"llc_mps":3750000}],"proposed":[{"ways":6,"mba":100}],"applied":[{"ways":5,"mba":90}]}"#;
        let faulted_line = r#"{"epoch":7,"time_ns":1600000000,"phase":"exploring","decision":"theta_retry","retry_count":2,"matching_rounds":0,"unfairness":0.5,"apps":[{"name":"fft","ips":2500000000,"slowdown":1.25,"llc_state":"demand","mba_state":"maintain","miss_ratio":0.25,"llc_aps":15000000,"llc_mps":3750000}],"proposed":[{"ways":6,"mba":100}],"applied":[{"ways":5,"mba":90}],"fault":{"degraded":["fft"],"write_retries":1,"rolled_back":true}}"#;
        for (event, line) in [(&plain, plain_line), (&faulted, faulted_line)] {
            assert_eq!(event.to_json_line(), line);
            assert_eq!(TraceEvent::from_json_line(line).as_ref(), Ok(event));
        }
        let reordered = plain_line.replacen(
            r#""epoch":7,"time_ns":1600000000"#,
            r#""time_ns":1600000000,"epoch":7"#,
            1,
        );
        let extra = plain_line.replacen(r#""mba":90}]"#, r#""mba":90}],"note":0"#, 1);
        for (bad, key) in [(reordered, "epoch"), (extra, "note")] {
            match TraceEvent::from_json_line(&bad) {
                Err(ReadError::Field(e)) => assert!(e.to_string().contains(key), "{e}"),
                other => panic!("{bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn wire_enums_round_trip() {
        let names = |names: &[&str]| names.join(" ");
        let phases = TracePhase::ALL.map(TracePhase::as_str);
        assert_eq!(names(&phases), "profiling exploring idle");
        let classes = TraceClass::ALL.map(TraceClass::as_str);
        assert_eq!(names(&classes), "supply maintain demand");
        let decisions = TraceDecision::ALL.map(TraceDecision::as_str);
        assert_eq!(
            names(&decisions),
            "profiled transfer theta_retry converged monitor re_explore"
        );
        for p in TracePhase::ALL {
            assert_eq!(TracePhase::from_wire(p.as_str()), Some(p));
        }
        for c in TraceClass::ALL {
            assert_eq!(TraceClass::from_wire(c.as_str()), Some(c));
        }
        for d in TraceDecision::ALL {
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
