//! `copart serve`: the always-on control daemon around the CoPart
//! consolidation runtime.
//!
//! The one-shot tools (`copart sim-run`, `copart experiment`) build a
//! runtime, drive N epochs, and exit. This crate keeps the same runtime
//! alive behind a wire API:
//!
//! * the **control thread** runs the epoch loop (wall-clock paced or
//!   free-running) and is the *only* thread touching the runtime —
//!   mutations arrive as commands applied between epochs, which is what
//!   keeps daemon traces byte-identical to one-shot traces. Its recorder
//!   rotates the on-disk trace on write and checks the flight recorder's
//!   invariants on record, and it publishes the liveness `/healthz` reads,
//! * a hand-rolled **HTTP/1.1 front end** (zero third-party deps, like
//!   the rest of the workspace) serves admissions, removals, live policy
//!   switches, Prometheus-text metrics, status, and trace tails.
//!
//! # Examples
//!
//! Boot a daemon over a simulated 4-app mix, read its status, and shut
//! it down cleanly:
//!
//! ```
//! use copart_core::policies::PolicyKind;
//! use copart_persist::Scenario;
//! use copart_serve::{loadgen, ServeConfig};
//! use copart_workloads::MixKind;
//! use std::time::Duration;
//!
//! let scenario = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None).unwrap();
//! let cfg = ServeConfig {
//!     tick: Duration::ZERO,     // free-run: no wall-clock pacing in tests
//!     max_epochs: Some(10),
//!     ..ServeConfig::default()  // 127.0.0.1:0 → ephemeral port
//! };
//! let handle = copart_serve::serve_scenario(&scenario, cfg).unwrap();
//! let addr = handle.addr().to_string();
//! let (status, body) = loadgen::fetch(&addr, "GET", "/status", "").unwrap();
//! assert_eq!(status, 200);
//! assert!(body.contains("\"epoch\""));
//! // Shutdown is prompt — it does not wait for the epoch cap — so let
//! // the loop finish its 10 epochs before draining.
//! while !loadgen::fetch(&addr, "GET", "/metrics", "").unwrap().1
//!     .contains("copart_epochs_total 10")
//! {
//!     std::thread::sleep(Duration::from_millis(5));
//! }
//! handle.shutdown();
//! let report = handle.join();
//! assert_eq!(report.epochs, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod http;
pub mod loadgen;
pub mod prometheus;
pub mod server;
pub mod trace;

// `benchmark/` links these from here and is not edited outside a benchmark change.
pub use copart_persist::{
    recover_sim, resume_trace_file, PersistConfig, PersistedRun, Scenario, ScenarioEnv,
};
pub use daemon::DaemonConfig;
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{serve, serve_scenario, ServeConfig, ServeReport, ServerHandle};
pub use trace::{RotatingJsonl, SharedRing, TeeRecorder};
