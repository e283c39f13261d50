//! [`RdtBackend`] implementation over the `copart-sim` machine.

use std::collections::BTreeMap;
use std::time::Duration;

use copart_sim::{AppHandle, AppSpec, CbmMask, ClosId, Machine, MbaLevel};
use copart_telemetry::CounterSnapshot;

use crate::{RdtBackend, RdtCapabilities, RdtError};

/// A simulated RDT platform: each consolidated application occupies its
/// own CLOS, exactly as CoPart's container-per-application deployment
/// does on real hardware.
///
/// Beyond the [`RdtBackend`] surface, `SimBackend` exposes workload
/// admission/removal and read access to the underlying [`Machine`] so
/// experiment harnesses can inspect ground truth the controller never
/// sees (per-window bandwidth grants, occupancy, and so on). A clone is
/// an independent platform in the same state (see [`Machine`]).
#[derive(Clone)]
pub struct SimBackend {
    machine: Machine,
    groups: BTreeMap<ClosId, AppHandle>,
    next_clos: u16,
}

impl SimBackend {
    /// Wraps a machine. Existing machine state (CLOS 0) is left as the
    /// unmanaged default group.
    pub fn new(machine: Machine) -> SimBackend {
        SimBackend {
            machine,
            groups: BTreeMap::new(),
            next_clos: 1,
        }
    }

    /// Admits a workload into a fresh CLOS (full mask, unthrottled MBA)
    /// and returns the group id.
    ///
    /// # Errors
    ///
    /// Fails when the machine has too few free cores.
    pub fn add_workload(&mut self, spec: AppSpec) -> Result<ClosId, RdtError> {
        let clos = ClosId(self.next_clos);
        let ways = self.machine.config().llc_ways;
        self.machine.set_cbm(clos, CbmMask::full(ways))?;
        self.machine.set_mba(clos, MbaLevel::MAX);
        let handle = self.machine.add_app(spec, clos)?;
        self.groups.insert(clos, handle);
        self.next_clos += 1;
        Ok(clos)
    }

    /// Removes a workload and forgets its group.
    ///
    /// # Errors
    ///
    /// Fails on an unknown group.
    pub fn remove_workload(&mut self, group: ClosId) -> Result<(), RdtError> {
        let handle = self
            .groups
            .remove(&group)
            .ok_or(RdtError::UnknownGroup(group))?;
        self.machine.remove_app(handle)?;
        Ok(())
    }

    /// The simulated application handle behind a group.
    pub fn app_of(&self, group: ClosId) -> Option<AppHandle> {
        self.groups.get(&group).copied()
    }

    /// Changes a live workload's behaviour mid-run (program phase change);
    /// see [`Machine::set_app_behaviour`].
    ///
    /// # Errors
    ///
    /// Fails on an unknown group.
    pub fn set_workload_behaviour(
        &mut self,
        group: ClosId,
        ipc_peak: f64,
        apki: f64,
        mlp: f64,
        phases: Vec<(f64, copart_sim::trace::AccessPattern)>,
    ) -> Result<(), RdtError> {
        let handle = self.handle(group)?;
        self.machine
            .set_app_behaviour(handle, ipc_peak, apki, mlp, phases)?;
        Ok(())
    }

    /// Read access to the underlying machine (ground truth for
    /// experiments).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the underlying machine, for harnesses that need
    /// to manipulate simulation details directly.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    fn handle(&self, group: ClosId) -> Result<AppHandle, RdtError> {
        self.groups
            .get(&group)
            .copied()
            .ok_or(RdtError::UnknownGroup(group))
    }

    /// The group table as raw `(CLOS id, app handle)` pairs plus the next
    /// CLOS id to allocate — the snapshot/restore seam for crash
    /// recovery. Pair with [`Machine::snapshot`] for the machine state.
    pub fn export_groups(&self) -> (Vec<(u16, u32)>, u16) {
        (
            self.groups.iter().map(|(c, h)| (c.0, h.raw())).collect(),
            self.next_clos,
        )
    }

    /// Overwrites the group table from values previously captured with
    /// [`SimBackend::export_groups`]. The caller is responsible for
    /// restoring the underlying machine to the matching state.
    pub fn import_groups(&mut self, groups: &[(u16, u32)], next_clos: u16) {
        self.groups = groups
            .iter()
            .map(|&(c, h)| (ClosId(c), AppHandle::from_raw(h)))
            .collect();
        self.next_clos = next_clos;
    }
}

impl RdtBackend for SimBackend {
    fn capabilities(&self) -> RdtCapabilities {
        RdtCapabilities {
            llc_ways: self.machine.config().llc_ways,
            // The simulator has no CLOS count limit; report a generous one.
            num_clos: 64,
            mba_min_percent: MbaLevel::MIN.percent(),
            mba_step_percent: MbaLevel::STEP,
        }
    }

    fn groups(&self) -> Vec<ClosId> {
        self.groups.keys().copied().collect()
    }

    fn set_cbm(&mut self, group: ClosId, mask: CbmMask) -> Result<(), RdtError> {
        self.handle(group)?;
        self.machine.set_cbm(group, mask)?;
        Ok(())
    }

    fn set_mba(&mut self, group: ClosId, level: MbaLevel) -> Result<(), RdtError> {
        self.handle(group)?;
        self.machine.set_mba(group, level);
        Ok(())
    }

    fn clos_config(&self, group: ClosId) -> Result<(CbmMask, MbaLevel), RdtError> {
        self.handle(group)?;
        self.machine
            .clos_config(group)
            .ok_or(RdtError::UnknownGroup(group))
    }

    fn read_counters(&mut self, group: ClosId) -> Result<CounterSnapshot, RdtError> {
        let handle = self.handle(group)?;
        Ok(self.machine.counters(handle)?)
    }

    fn advance(&mut self, period: Duration) -> Result<(), RdtError> {
        let ns = u64::try_from(period.as_nanos()).unwrap_or(u64::MAX);
        self.machine.tick(ns);
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.machine.now_ns()
    }

    fn read_mbm_total_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        let handle = self.handle(group)?;
        Ok(self.machine.mbm_total_bytes(handle)?)
    }

    fn read_llc_occupancy_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        let handle = self.handle(group)?;
        Ok(self.machine.llc_occupancy_bytes(handle)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_sim::trace::AccessPattern;
    use copart_sim::MachineConfig;

    fn spec(name: &str) -> AppSpec {
        AppSpec {
            name: name.into(),
            cores: 1,
            ipc_peak: 1.0,
            apki: 10.0,
            write_fraction: 0.1,
            mlp: 4.0,
            phases: vec![(1.0, AccessPattern::UniformRandom { bytes: 1 << 20 })],
        }
    }

    fn backend() -> SimBackend {
        SimBackend::new(Machine::new(MachineConfig::tiny_test()))
    }

    #[test]
    fn workloads_get_distinct_groups() {
        let mut b = backend();
        let g1 = b.add_workload(spec("a")).unwrap();
        let g2 = b.add_workload(spec("b")).unwrap();
        assert_ne!(g1, g2);
        assert_eq!(b.groups(), vec![g1, g2]);
    }

    #[test]
    fn group_configuration_round_trips() {
        let mut b = backend();
        let g = b.add_workload(spec("a")).unwrap();
        let mask = CbmMask::contiguous(0, 2, 4).unwrap();
        b.set_cbm(g, mask).unwrap();
        b.set_mba(g, MbaLevel::new(30)).unwrap();
        let (m, l) = b.clos_config(g).unwrap();
        assert_eq!(m, mask);
        assert_eq!(l, MbaLevel::new(30));
    }

    #[test]
    fn unknown_group_operations_fail() {
        let mut b = backend();
        let bogus = ClosId(42);
        assert!(matches!(
            b.set_mba(bogus, MbaLevel::MAX),
            Err(RdtError::UnknownGroup(_))
        ));
        assert!(matches!(
            b.read_counters(bogus),
            Err(RdtError::UnknownGroup(_))
        ));
        assert!(matches!(
            b.remove_workload(bogus),
            Err(RdtError::UnknownGroup(_))
        ));
    }

    #[test]
    fn monitoring_events_are_exposed() {
        let mut b = backend();
        let g = b.add_workload(spec("a")).unwrap();
        b.advance(Duration::from_millis(500)).unwrap();
        let occ = b.read_llc_occupancy_bytes(g).unwrap();
        let mbm = b.read_mbm_total_bytes(g).unwrap();
        assert!(occ > 0, "a running app occupies cache");
        assert!(mbm > 0, "a missing app generates traffic");
        b.advance(Duration::from_millis(500)).unwrap();
        assert!(b.read_mbm_total_bytes(g).unwrap() >= mbm, "MBM is monotone");
    }

    #[test]
    fn advance_moves_time_and_counters() {
        let mut b = backend();
        let g = b.add_workload(spec("a")).unwrap();
        let s0 = b.read_counters(g).unwrap();
        b.advance(Duration::from_millis(100)).unwrap();
        let s1 = b.read_counters(g).unwrap();
        assert_eq!(b.now_ns(), 100_000_000);
        assert!(s1.instructions > s0.instructions);
    }

    #[test]
    fn removal_invalidates_group() {
        let mut b = backend();
        let g = b.add_workload(spec("a")).unwrap();
        b.remove_workload(g).unwrap();
        assert!(b.groups().is_empty());
        assert!(b.read_counters(g).is_err());
    }

    #[test]
    fn group_table_export_import_round_trips() {
        let mut b = backend();
        let g1 = b.add_workload(spec("a")).unwrap();
        let g2 = b.add_workload(spec("b")).unwrap();
        b.remove_workload(g1).unwrap();
        let (groups, next_clos) = b.export_groups();
        let machine_snap = b.machine().snapshot();

        let mut restored = backend();
        restored.machine_mut().restore(&machine_snap).unwrap();
        restored.import_groups(&groups, next_clos);
        assert_eq!(restored.groups(), vec![g2]);
        assert_eq!(restored.app_of(g2), b.app_of(g2));
        // The next admission picks the same fresh CLOS in both backends.
        let ga = b.add_workload(spec("c")).unwrap();
        let gb = restored.add_workload(spec("c")).unwrap();
        assert_eq!(ga, gb);
    }

    #[test]
    fn invalid_mask_is_rejected() {
        let mut b = backend();
        let g = b.add_workload(spec("a")).unwrap();
        // Mask wider than the tiny machine's 4 ways.
        let wide = CbmMask::full(8);
        assert!(matches!(b.set_cbm(g, wide), Err(RdtError::Sim(_))));
    }
}
