//! Freezing and restoring RDT backends.
//!
//! The controller snapshot ([`copart_core::RuntimeSnapshot`]) is only
//! half the story: resuming bit-identically also needs the *backend*
//! back in the same state — the simulated machine (virtual time, CLOS
//! table, per-app trace-generator positions, cache contents), the
//! backend's group table, and, when faults are injected, the per-site
//! RNG stream positions. [`PersistableBackend`] is the seam: each
//! supported backend knows how to capture itself into a
//! [`BackendSnapshot`] and how to restore *in place* from one.
//!
//! Restoration is in-place by design: recovery first constructs the
//! runtime through the normal path (which applies the initial equal
//! split and consumes no information from the dead process), then
//! restores the backend underneath it, overwriting everything
//! construction touched. The fault decorator must be *disarmed* during
//! that construction so the rebuild consumes no fault-stream draws —
//! see [`copart_faults::FaultyBackend::set_armed`].

use copart_faults::{FaultStateSnapshot, FaultyBackend};
use copart_rdt::{RdtBackend, SimBackend};
use copart_sim::MachineSnapshot;

use crate::error::PersistError;

/// Complete dynamic state of a supported backend.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendSnapshot {
    /// A bare simulator backend.
    Sim {
        /// The simulated machine.
        machine: MachineSnapshot,
        /// Group table as `(raw CLOS id, raw app handle)` pairs.
        groups: Vec<(u16, u32)>,
        /// Next CLOS id the backend would hand out.
        next_clos: u16,
    },
    /// A simulator backend wrapped in the fault-injection decorator.
    Faulty {
        /// The simulated machine.
        machine: MachineSnapshot,
        /// Group table as `(raw CLOS id, raw app handle)` pairs.
        groups: Vec<(u16, u32)>,
        /// Next CLOS id the backend would hand out.
        next_clos: u16,
        /// Per-site fault stream positions and injection stats.
        fault_state: FaultStateSnapshot,
    },
}

/// A backend that can freeze its complete dynamic state and later
/// restore it in place.
pub trait PersistableBackend: RdtBackend {
    /// Captures the backend's state.
    fn capture(&self) -> BackendSnapshot;

    /// Restores the backend's state in place, overwriting whatever the
    /// construction path left behind.
    ///
    /// # Errors
    ///
    /// [`PersistError::Schema`] when the snapshot was captured from a
    /// different backend kind, [`PersistError::Backend`] when the
    /// machine rejects the snapshot (foreign geometry).
    fn restore_from(&mut self, snap: &BackendSnapshot) -> Result<(), PersistError>;
}

impl PersistableBackend for SimBackend {
    fn capture(&self) -> BackendSnapshot {
        let (groups, next_clos) = self.export_groups();
        BackendSnapshot::Sim {
            machine: self.machine().snapshot(),
            groups,
            next_clos,
        }
    }

    fn restore_from(&mut self, snap: &BackendSnapshot) -> Result<(), PersistError> {
        match snap {
            BackendSnapshot::Sim {
                machine,
                groups,
                next_clos,
            } => restore_sim(self, machine, groups, *next_clos),
            BackendSnapshot::Faulty { .. } => Err(PersistError::Schema(
                "snapshot was captured from a faulty backend; this run has no fault plan"
                    .to_string(),
            )),
        }
    }
}

fn restore_sim(
    sim: &mut SimBackend,
    machine: &MachineSnapshot,
    groups: &[(u16, u32)],
    next_clos: u16,
) -> Result<(), PersistError> {
    sim.machine_mut()
        .restore(machine)
        .map_err(|e| PersistError::Corrupt(format!("machine restore: {e:?}")))?;
    sim.import_groups(groups, next_clos);
    Ok(())
}

/// The snapshot kind follows the fault plan, not the Rust type: a
/// decorator whose plan can never fire ([`FaultyBackend::injects`] is
/// false) is transparent, so it captures as — and restores only from —
/// the bare [`BackendSnapshot::Sim`] form. `kind` on the wire therefore
/// keeps meaning "this run injects faults", every scenario can run behind
/// the decorator, and a fault-free state directory restores whichever of
/// the two types wrote it.
impl PersistableBackend for FaultyBackend<SimBackend> {
    fn capture(&self) -> BackendSnapshot {
        match self.inner().capture() {
            BackendSnapshot::Sim {
                machine,
                groups,
                next_clos,
            } if self.injects() => BackendSnapshot::Faulty {
                machine,
                groups,
                next_clos,
                fault_state: self.fault_state(),
            },
            sim => sim,
        }
    }

    fn restore_from(&mut self, snap: &BackendSnapshot) -> Result<(), PersistError> {
        match snap {
            BackendSnapshot::Sim { .. } if !self.injects() => self.inner_mut().restore_from(snap),
            BackendSnapshot::Faulty {
                machine,
                groups,
                next_clos,
                fault_state,
            } if self.injects() => {
                restore_sim(self.inner_mut(), machine, groups, *next_clos)?;
                self.restore_fault_state(fault_state);
                Ok(())
            }
            BackendSnapshot::Sim { .. } => Err(PersistError::Schema(
                "snapshot was captured from a bare sim backend; this run injects faults"
                    .to_string(),
            )),
            BackendSnapshot::Faulty { .. } => Err(PersistError::Schema(
                "snapshot was captured from a faulty backend; this run has no fault plan"
                    .to_string(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_faults::{FaultPlan, FaultTrigger};
    use copart_sim::trace::AccessPattern;
    use copart_sim::{AppSpec, Machine, MachineConfig};
    use std::time::Duration;

    fn sim() -> SimBackend {
        let mut backend = SimBackend::new(Machine::new(MachineConfig::tiny_test()));
        backend
            .add_workload(AppSpec {
                name: "probe".into(),
                cores: 1,
                ipc_peak: 1.0,
                apki: 10.0,
                write_fraction: 0.1,
                mlp: 4.0,
                phases: vec![(1.0, AccessPattern::UniformRandom { bytes: 1 << 20 })],
            })
            .unwrap();
        backend
    }

    fn dropouts() -> FaultPlan {
        FaultPlan {
            counter_dropout: FaultTrigger::Every { n: 3 },
            ..FaultPlan::none()
        }
    }

    #[test]
    fn snapshot_kind_follows_the_plan_not_the_type() {
        let mut bare = sim();
        bare.advance(Duration::from_millis(50)).unwrap();
        let mut quiet = FaultyBackend::new(sim(), FaultPlan::none());
        quiet.advance(Duration::from_millis(50)).unwrap();
        let mut noisy = FaultyBackend::new(sim(), dropouts());
        noisy.advance(Duration::from_millis(50)).unwrap();

        // A decorator that can never fire is the backend it wraps.
        assert_eq!(quiet.capture(), bare.capture());
        assert!(matches!(noisy.capture(), BackendSnapshot::Faulty { .. }));

        // Either type restores a fault-free snapshot the other wrote.
        FaultyBackend::new(sim(), FaultPlan::none())
            .restore_from(&bare.capture())
            .unwrap();
        sim().restore_from(&quiet.capture()).unwrap();

        // The cross-kind refusal stays, in both directions.
        let sim_snap = bare.capture();
        let faulty_snap = noisy.capture();
        assert!(matches!(
            FaultyBackend::new(sim(), dropouts()).restore_from(&sim_snap),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(
            FaultyBackend::new(sim(), FaultPlan::none()).restore_from(&faulty_snap),
            Err(PersistError::Schema(_))
        ));
        assert!(matches!(
            sim().restore_from(&faulty_snap),
            Err(PersistError::Schema(_))
        ));
        let mut resumed = FaultyBackend::new(sim(), dropouts());
        resumed.restore_from(&faulty_snap).unwrap();
        assert_eq!(resumed.capture(), faulty_snap);
    }
}
