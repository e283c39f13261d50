//! Hospitals/Residents (HR) stable matching.
//!
//! CoPart formulates its per-period resource reallocation as an instance of
//! the Hospitals/Residents problem (§5.4.2 of the paper): resource types
//! that applications are willing to *supply* act as hospitals (capacity =
//! number of suppliers), applications that *demand* a resource act as
//! residents, and preference order is derived from application slowdowns.
//! The paper's `getNextSystemState` is an instability-chaining step in the
//! spirit of Roth–Peranson; this crate provides the general machinery it is
//! built on and verified against:
//!
//! * [`Instance`] — hospitals with capacities and preference lists,
//!   residents with preference lists (incomplete lists allowed),
//! * [`solve_resident_optimal`] — resident-proposing deferred acceptance,
//! * [`Matching::blocking_pairs`] — stability verification, and
//! * [`chain::allocate_into`] — the allocator Algorithm 2 of the paper
//!   instantiates: because every category ranks consumers by the same
//!   priority, its instability chaining is a serial dictatorship, so the
//!   kernel ranks once and grants in rank order (its literal chaining
//!   scan lives in `copart-check`, next to the oracle that compares the
//!   two, round counts included).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
mod instance;
mod solver;

pub use instance::{Hospital, Instance, InstanceError, Matching, Resident};
pub use solver::solve_resident_optimal;
