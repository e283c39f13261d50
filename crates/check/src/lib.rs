//! `copart-check`: the workspace's property-based differential-oracle
//! engine.
//!
//! The reproduction is full of pairs of independent implementations that
//! must agree — the instability-chaining allocator and the deferred
//! acceptance solver, the schemata codec and the kernel format, the
//! classifier FSMs and the figures they transcribe, the simulator's
//! counters and the physics they model. This crate turns each pair into
//! a *differential oracle* and drives them with seeded random inputs:
//!
//! * [`source::Source`] — generators draw from a recorded tape, so every
//!   case replays from its draw sequence alone;
//! * [`shrink::shrink`] — failing tapes are minimized by deleting, zeroing and
//!   lowering draws (integrated shrinking: the generator re-interprets
//!   the smaller tape, so shrunken cases are valid by construction);
//! * [`corpus`] — minimized failures are blessed into `tests/corpus/`
//!   and replayed on every run, with witness digests guarding against
//!   generator drift;
//! * [`runner`] — corpus replay plus fresh cases, parallel over
//!   `copart-parallel` with per-case derived seeds, producing a report
//!   that is byte-identical at any `--jobs` count;
//! * [`oracles`] — the workspace's oracle registry.
//!
//! Everything is `std`-only (the offline-build rule), deterministic, and
//! knob-controlled: `COPART_CHECK_CASES` sets the fuzz budget (64 in the
//! quick gate, 512 in the full one), `COPART_CHECK_SEED` the master
//! seed. See DESIGN.md §13 for the architecture and the corpus-blessing
//! workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod oracles;
pub mod property;
pub mod runner;
pub mod shrink;
pub mod source;

pub use corpus::CorpusCase;
pub use property::{CaseOutcome, Property};
pub use runner::{run_suite, CheckConfig, Failure, SuiteReport};
pub use shrink::shrink;
pub use source::Source;
