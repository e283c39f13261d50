//! Performance-counter telemetry for the CoPart reproduction.
//!
//! CoPart observes exactly three raw hardware events per application —
//! retired instructions, LLC accesses, and LLC misses (§3.2 of the paper,
//! collected through PAPI on the original testbed) — plus wall-clock time.
//! This crate provides the portable representation of those observations:
//!
//! * [`CounterSnapshot`] — a point-in-time reading of the raw counters,
//! * [`CounterDelta`] — the difference between two snapshots,
//! * [`Rates`] — derived per-second rates (IPS, accesses/s, misses/s) and
//!   the LLC miss ratio, which are the quantities the CoPart classifiers
//!   actually consume,
//! * [`SlidingWindow`] — a bounded history of snapshots with windowed rate
//!   queries, and
//! * [`Ewma`] — exponentially-weighted smoothing for noisy rate series.
//!
//! The types are backend-agnostic: the simulator backend and the resctrl
//! backend both produce [`CounterSnapshot`]s.
//!
//! # Observability
//!
//! The crate also hosts the structured observability layer the
//! consolidation runtime threads through the stack (DESIGN.md
//! § Observability):
//!
//! * [`TraceEvent`] — one control epoch's decisions and measurements,
//! * [`Recorder`] — the pluggable sink trait, with [`NullRecorder`],
//!   [`RingRecorder`] and [`JsonlRecorder`] implementations,
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket latency
//!   [`Histogram`]s with a snapshot API, and [`SERIES`], the one table of
//!   every series name the workspace emits, its kind and its help text,
//! * [`Json`] — the dependency-free JSON value backing the JSONL trace
//!   format, and [`JsonWriter`], the one emitter of its wire text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod digest;
mod event;
mod ewma;
mod fleet;
pub mod json;
mod rates;
mod recorder;
mod registry;
mod window;

pub use counters::{CounterDelta, CounterSnapshot};
pub use digest::{fnv1a64, fnv1a64_update, fnv1a64_update_u64, FNV1A64_OFFSET};
pub use event::{
    AllocSample, AppSample, FaultSample, TraceClass, TraceDecision, TraceEvent, TracePhase,
};
pub use ewma::Ewma;
pub use fleet::{FleetAggregator, NodeGauges, Percentiles};
pub use json::{FieldError, Json, JsonError, JsonReader, JsonWriter, ReadError};
pub use rates::{traffic_ratio, Rates};
pub use recorder::{
    check_trace, cut_trace_file, durable_prefix, parse_trace, read_trace_file, JsonlRecorder,
    NullRecorder, Recorder, RingRecorder, SharedRecorder,
};
pub use registry::{
    Histogram, MetricsRegistry, MetricsSnapshot, SeriesKind, LATENCY_BUCKET_BOUNDS_NS, SERIES,
};
pub use window::SlidingWindow;

/// Nanoseconds per second, used when converting deltas to rates.
pub const NS_PER_SEC: f64 = 1_000_000_000.0;
