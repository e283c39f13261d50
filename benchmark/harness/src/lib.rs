//! Plumbing shared by the two benchmark binaries.
//!
//! `bench-e2e` drives the `copart` binary from outside and `bench-layers`
//! links the `copart-*` crates; neither may depend on the other, and
//! `bench-e2e` may depend on no workspace crate at all, so everything
//! both need lives here, std-only:
//!
//! * [`stats`] — nearest-rank percentiles, Python-compatible quartiles,
//!   the two-point rate/set-up arithmetic,
//! * [`spans`] — the span record, self-time computation, JSONL dump,
//! * [`json`] — a small JSON value (results, `BENCHMARK.json`, traces),
//! * [`prom`] — Prometheus text-line parsing for `/metrics` scrapes,
//! * [`http`] — a keep-alive HTTP/1.1 client,
//! * [`pacer`] — the open-loop request schedule with due-time accounting,
//! * [`report`] — what one workload run produced, its printed table,
//!   the driver's result line,
//! * [`surfaces`] — the daemon's endpoints and reply shapes, the churn
//!   workload's benchmark rotation, the fleet trace's unit of work,
//! * [`procfs`] — `/proc` readers (`VmHWM`, CPU ticks, load average),
//! * [`spec`] — the one table of workloads and metrics that
//!   `BENCHMARK.json`, both binaries, and the README are held to.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
pub mod pacer;
pub mod procfs;
pub mod prom;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod surfaces;
