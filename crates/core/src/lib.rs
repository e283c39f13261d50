//! The CoPart controller: coordinated LLC + memory-bandwidth partitioning
//! for fairness-aware workload consolidation (EuroSys '19).
//!
//! CoPart dynamically analyzes the characteristics of consolidated
//! applications and partitions Intel CAT way masks and MBA levels across
//! them to minimize *unfairness* — the coefficient of variation of the
//! applications' slowdowns (Eq 2 of the paper). The architecture follows
//! Figure 7:
//!
//! * [`llc_fsm::LlcClassifier`] — per-application Supply/Maintain/Demand
//!   FSM over LLC capacity (Fig 8),
//! * [`mba_fsm::MbaClassifier`] — the analogous FSM over memory bandwidth
//!   (Fig 9), driven by the STREAM-normalized memory traffic ratio,
//! * [`next_state::get_next_system_state_into`] — Algorithm 2: a
//!   Hospitals/Residents instability-chaining match between applications
//!   willing to supply resources (producers) and those demanding more
//!   (consumers), ordered by slowdown,
//! * [`runtime::ConsolidationRuntime`] — the resource manager's
//!   profile → explore → idle execution flow (Fig 10, Algorithm 1), and
//! * [`policies`] — the one policy table, [`policies::PolicyKind`]: each
//!   evaluated policy (EQ, ST, CAT-only, MBA-only, CoPart, and the
//!   comparators and unpartitioned state) as a fixed state or a
//!   controller shape, and the one evaluation body every cell runs.
//!
//! The runtime itself is a thin epoch driver over a four-layer
//! control-plane pipeline (DESIGN.md §12):
//!
//! * [`sensor`] — per-application counter sampling with degraded-mode
//!   EWMA bridging,
//! * [`classifier`] — the LLC/MBA FSM pair behind one interface,
//! * [`planner`] — the one module that knows which planning algorithm
//!   runs: [`planner::Explorer`] turns each exploring epoch into a
//!   uniform [`planner::Plan`] and commits its outcome, and
//! * [`actuator`] — transactional partition writes with bounded
//!   retry/backoff and prefix rollback.
//!
//! The controller is generic over [`copart_rdt::RdtBackend`], so it drives
//! the simulator and a resctrl filesystem identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuator;
pub mod classifier;
pub mod cluster;
pub mod fsm;
pub mod llc_fsm;
pub mod mba_fsm;
pub mod metrics;
pub mod next_state;
pub mod node;
pub mod params;
pub mod planner;
pub mod policies;
pub mod runtime;
pub mod scale;
pub mod sensor;
pub mod state;

pub use actuator::{Actuator, ApplyReport, TransactionalActuator};
pub use classifier::{Classifier, DualFsmClassifier};
pub use fsm::{AppState, ResourceEvent};
pub use metrics::{geomean, unfairness};
pub use node::{profile_with_retries, NodeBackend, NodeRuntime};
pub use params::CoPartParams;
pub use planner::ExplorerSnapshot;
pub use runtime::{
    AppRuntimeSnapshot, ConsolidationRuntime, ManagedApp, PeriodRecord, Phase, PlannerMode,
    RuntimeSnapshot,
};
pub use sensor::{Sensor, SensorReading, SensorSnapshot, WindowedSensor};
pub use state::{AllocationState, SystemState, WaysBudget};
