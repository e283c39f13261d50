//! The fault-injecting backend decorator.

use std::time::Duration;

use copart_rng::{splitmix64, XorShift64Star};

use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, RdtCapabilities, RdtError};
use copart_telemetry::CounterSnapshot;

use crate::plan::{FaultPlan, FaultTrigger};

/// Ground truth of every fault actually injected, per site.
///
/// Tests assert against these counts: e.g. the runtime's
/// `partition_rollbacks` metric must equal the number of applies a write
/// fault broke, and its `fault_counter_dropouts` must equal `dropouts`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Counter reads that returned `Busy`.
    pub dropouts: u64,
    /// `set_cbm` calls that returned `Busy`.
    pub cbm_write_faults: u64,
    /// `set_mba` calls that returned `Busy`.
    pub mba_write_faults: u64,
    /// Per-group operations that returned `UnknownGroup`.
    pub vanishes: u64,
    /// `advance` calls that were swallowed (clock did not move).
    pub clock_stalls: u64,
}

impl InjectionStats {
    /// Total faults injected across every site.
    pub fn total(&self) -> u64 {
        self.dropouts
            + self.cbm_write_faults
            + self.mba_write_faults
            + self.vanishes
            + self.clock_stalls
    }
}

/// One injection site: its trigger, private stream, and call counter.
#[derive(Debug, Clone)]
struct Site {
    trigger: FaultTrigger,
    rng: XorShift64Star,
    calls: u64,
}

impl Site {
    fn new(trigger: FaultTrigger, seed: u64, index: u64) -> Site {
        // Derive the per-site seed with a SplitMix64 round so adjacent
        // site indices yield statistically independent streams even for
        // small user seeds.
        let mut state = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let site_seed = splitmix64(&mut state);
        Site {
            trigger,
            rng: XorShift64Star::seed_from_u64(site_seed),
            calls: 0,
        }
    }

    /// Registers one call to this site and reports whether the fault
    /// fires. Deterministic: depends only on the trigger, the site seed,
    /// and how many calls this site has seen.
    fn fires(&mut self) -> bool {
        self.calls += 1;
        match &self.trigger {
            FaultTrigger::Never => false,
            FaultTrigger::Every { n } => self.calls.is_multiple_of(*n),
            FaultTrigger::Prob { p } => self.rng.gen_bool(*p),
            FaultTrigger::AtCalls(calls) => calls.binary_search(&self.calls).is_ok(),
        }
    }
}

/// Wraps any [`RdtBackend`], injecting the failures a [`FaultPlan`]
/// prescribes.
///
/// With [`FaultPlan::none`] the decorator is fully transparent: no site
/// ever fires, no stream is ever advanced, and every call forwards to
/// the inner backend unchanged.
///
/// The `vanish` site covers the mutating per-group operations
/// (`set_cbm`, `set_mba`, `read_counters`); `clos_config` takes `&self`
/// and is always forwarded untouched.
#[derive(Debug)]
pub struct FaultyBackend<B: RdtBackend> {
    inner: B,
    dropout: Site,
    write_cbm: Site,
    write_mba: Site,
    vanish: Site,
    stall: Site,
    stats: InjectionStats,
    /// When disarmed, every call forwards transparently and no site
    /// advances its stream — used during crash-recovery reconstruction so
    /// bookkeeping calls do not consume fault-site draws.
    armed: bool,
    /// Whether the plan has any site that can ever fire.
    injects: bool,
}

/// Frozen state of one injection site: the RNG stream position and the
/// call counter. The trigger itself is part of the [`FaultPlan`] and is
/// not captured here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSnapshot {
    /// Raw RNG state word of the site's private stream.
    pub rng_state: u64,
    /// How many calls the site has registered.
    pub calls: u64,
}

/// Frozen fault-injection state of a [`FaultyBackend`]: the five sites
/// (dropout, write-cbm, write-mba, vanish, stall — in that order) and the
/// cumulative injection statistics. Restoring it onto a backend built
/// from the same [`FaultPlan`] resumes the fault schedule exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStateSnapshot {
    /// Per-site stream positions, in site order.
    pub sites: [SiteSnapshot; 5],
    /// Cumulative injection counts.
    pub stats: InjectionStats,
}

impl<B: RdtBackend> FaultyBackend<B> {
    /// Decorates `inner` with the given plan.
    pub fn new(inner: B, plan: FaultPlan) -> FaultyBackend<B> {
        FaultyBackend {
            inner,
            injects: !plan.is_none(),
            dropout: Site::new(plan.counter_dropout, plan.seed, 1),
            write_cbm: Site::new(plan.write_cbm, plan.seed, 2),
            write_mba: Site::new(plan.write_mba, plan.seed, 3),
            vanish: Site::new(plan.vanish, plan.seed, 4),
            stall: Site::new(plan.clock_stall, plan.seed, 5),
            stats: InjectionStats::default(),
            armed: true,
        }
    }

    /// Arms or disarms injection. While disarmed the decorator is fully
    /// transparent *and frozen*: no site fires, no stream advances, no
    /// call counter moves — re-arming resumes the schedule exactly where
    /// it stopped. Crash recovery constructs the backend disarmed so
    /// reconstruction traffic does not consume fault-site draws.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Whether injection is currently armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Whether any site can ever fire. `false` means the plan was
    /// [`FaultPlan::none`] (or spelled one, like `dropout=off`): the
    /// decorator is then transparent for good, and persistence treats the
    /// backend as the bare one it wraps.
    pub fn injects(&self) -> bool {
        self.injects
    }

    /// Captures the fault-injection state (site streams + statistics).
    pub fn fault_state(&self) -> FaultStateSnapshot {
        let snap = |s: &Site| SiteSnapshot {
            rng_state: s.rng.state(),
            calls: s.calls,
        };
        FaultStateSnapshot {
            sites: [
                snap(&self.dropout),
                snap(&self.write_cbm),
                snap(&self.write_mba),
                snap(&self.vanish),
                snap(&self.stall),
            ],
            stats: self.stats,
        }
    }

    /// Restores fault-injection state captured from a backend built with
    /// the same [`FaultPlan`], resuming the fault schedule exactly.
    pub fn restore_fault_state(&mut self, snap: &FaultStateSnapshot) {
        let sites = [
            &mut self.dropout,
            &mut self.write_cbm,
            &mut self.write_mba,
            &mut self.vanish,
            &mut self.stall,
        ];
        for (site, s) in sites.into_iter().zip(&snap.sites) {
            site.rng = XorShift64Star::from_state(s.rng_state);
            site.calls = s.calls;
        }
        self.stats = snap.stats;
    }

    /// What has actually been injected so far.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// The wrapped backend (e.g. to read fault-free ground truth).
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Mutable access to the wrapped backend.
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Unwraps, discarding the plan and statistics.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Checks the vanish site for a per-group mutating operation.
    fn vanished(&mut self, group: ClosId) -> Result<(), RdtError> {
        if self.armed && self.vanish.fires() {
            self.stats.vanishes += 1;
            return Err(RdtError::UnknownGroup(group));
        }
        Ok(())
    }
}

impl<B: RdtBackend> RdtBackend for FaultyBackend<B> {
    fn capabilities(&self) -> RdtCapabilities {
        self.inner.capabilities()
    }

    fn groups(&self) -> Vec<ClosId> {
        self.inner.groups()
    }

    fn set_cbm(&mut self, group: ClosId, mask: CbmMask) -> Result<(), RdtError> {
        self.vanished(group)?;
        if self.armed && self.write_cbm.fires() {
            self.stats.cbm_write_faults += 1;
            return Err(RdtError::Busy("injected CAT schemata write failure"));
        }
        self.inner.set_cbm(group, mask)
    }

    fn set_mba(&mut self, group: ClosId, level: MbaLevel) -> Result<(), RdtError> {
        self.vanished(group)?;
        if self.armed && self.write_mba.fires() {
            self.stats.mba_write_faults += 1;
            return Err(RdtError::Busy("injected MBA schemata write failure"));
        }
        self.inner.set_mba(group, level)
    }

    fn clos_config(&self, group: ClosId) -> Result<(CbmMask, MbaLevel), RdtError> {
        self.inner.clos_config(group)
    }

    fn read_counters(&mut self, group: ClosId) -> Result<CounterSnapshot, RdtError> {
        self.vanished(group)?;
        if self.armed && self.dropout.fires() {
            self.stats.dropouts += 1;
            return Err(RdtError::Busy("injected counter dropout"));
        }
        self.inner.read_counters(group)
    }

    fn advance(&mut self, period: Duration) -> Result<(), RdtError> {
        if self.armed && self.stall.fires() {
            // The clock stalls: the call "succeeds" but no time passes,
            // so the next counter delta spans zero time.
            self.stats.clock_stalls += 1;
            return Ok(());
        }
        self.inner.advance(period)
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn read_mbm_total_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        self.inner.read_mbm_total_bytes(group)
    }

    fn read_llc_occupancy_bytes(&mut self, group: ClosId) -> Result<u64, RdtError> {
        self.inner.read_llc_occupancy_bytes(group)
    }
}

/// Admission and eviction bypass fault injection: launching or stopping
/// a container is an orchestrator operation, not an RDT one. Everything
/// the runtime then does with the admitted group still goes through the
/// fault plan, so a fleet node under a per-node plan churns its
/// membership cleanly while its control loop suffers.
impl<B: copart_core::NodeBackend> copart_core::NodeBackend for FaultyBackend<B> {
    fn admit(&mut self, spec: copart_sim::AppSpec) -> Result<ClosId, RdtError> {
        self.inner.admit(spec)
    }

    fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        self.inner.evict(group)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copart_rdt::SimBackend;
    use copart_sim::trace::AccessPattern;
    use copart_sim::{AppSpec, Machine, MachineConfig};

    fn sim_with_one_app() -> (SimBackend, ClosId) {
        let mut backend = SimBackend::new(Machine::new(MachineConfig::tiny_test()));
        let spec = AppSpec {
            name: "probe".into(),
            cores: 1,
            ipc_peak: 1.0,
            apki: 10.0,
            write_fraction: 0.1,
            mlp: 4.0,
            phases: vec![(1.0, AccessPattern::UniformRandom { bytes: 1 << 20 })],
        };
        let g = backend.add_workload(spec).unwrap();
        (backend, g)
    }

    #[test]
    fn none_plan_is_transparent() {
        let (backend, g) = sim_with_one_app();
        let ways = backend.capabilities().llc_ways;
        let mut faulty = FaultyBackend::new(backend, FaultPlan::none());
        let mask = CbmMask::contiguous(0, 2, ways).unwrap();
        faulty.set_cbm(g, mask).unwrap();
        faulty.set_mba(g, MbaLevel::new(50)).unwrap();
        faulty.advance(Duration::from_millis(200)).unwrap();
        faulty.read_counters(g).unwrap();
        assert_eq!(faulty.stats(), InjectionStats::default());
        assert!(!faulty.injects());
        assert_eq!(faulty.clos_config(g).unwrap(), (mask, MbaLevel::new(50)));
        assert!(faulty.now_ns() > 0);
    }

    #[test]
    fn every_nth_counter_read_drops_out() {
        let (backend, g) = sim_with_one_app();
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                counter_dropout: FaultTrigger::Every { n: 3 },
                ..FaultPlan::none()
            },
        );
        assert!(faulty.injects());
        let outcomes: Vec<bool> = (0..9).map(|_| faulty.read_counters(g).is_ok()).collect();
        assert_eq!(
            outcomes,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(faulty.stats().dropouts, 3);
        // Dropouts are transient, not structural.
        let err = {
            faulty.read_counters(g).unwrap();
            faulty.read_counters(g).unwrap();
            faulty.read_counters(g).unwrap_err()
        };
        assert!(err.is_transient());
    }

    #[test]
    fn explicit_schedule_fires_exactly_there() {
        let (backend, g) = sim_with_one_app();
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                counter_dropout: FaultTrigger::AtCalls(vec![2, 5]),
                ..FaultPlan::none()
            },
        );
        let outcomes: Vec<bool> = (0..6).map(|_| faulty.read_counters(g).is_ok()).collect();
        assert_eq!(outcomes, vec![true, false, true, true, false, true]);
    }

    #[test]
    fn probabilistic_sites_are_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let (backend, g) = sim_with_one_app();
            let mut faulty = FaultyBackend::new(
                backend,
                FaultPlan {
                    seed,
                    write_cbm: FaultTrigger::Prob { p: 0.3 },
                    ..FaultPlan::none()
                },
            );
            let ways = faulty.capabilities().llc_ways;
            let mask = CbmMask::contiguous(0, 2, ways).unwrap();
            (0..64).map(|_| faulty.set_cbm(g, mask).is_ok()).collect()
        };
        assert_eq!(run(11), run(11), "same seed, same fault sequence");
        assert_ne!(run(11), run(12), "different seeds diverge");
        let faults = run(11).iter().filter(|ok| !**ok).count();
        assert!((5..40).contains(&faults), "p=0.3 of 64: {faults}");
    }

    #[test]
    fn sites_draw_from_independent_streams() {
        // Arming an extra site must not change another site's sequence —
        // that is what makes plans composable and runs reproducible.
        let run = |with_mba: bool| -> Vec<bool> {
            let (backend, g) = sim_with_one_app();
            let mut plan = FaultPlan {
                seed: 99,
                write_cbm: FaultTrigger::Prob { p: 0.25 },
                ..FaultPlan::none()
            };
            if with_mba {
                plan.write_mba = FaultTrigger::Prob { p: 0.5 };
            }
            let mut faulty = FaultyBackend::new(backend, plan);
            let ways = faulty.capabilities().llc_ways;
            let mask = CbmMask::contiguous(0, 2, ways).unwrap();
            (0..64)
                .map(|_| {
                    let cbm_ok = faulty.set_cbm(g, mask).is_ok();
                    let _ = faulty.set_mba(g, MbaLevel::new(50));
                    cbm_ok
                })
                .collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn clock_stall_freezes_time() {
        let (backend, _g) = sim_with_one_app();
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                clock_stall: FaultTrigger::Every { n: 2 },
                ..FaultPlan::none()
            },
        );
        let period = Duration::from_millis(100);
        faulty.advance(period).unwrap(); // call 1: advances
        let t1 = faulty.now_ns();
        faulty.advance(period).unwrap(); // call 2: stalled
        assert_eq!(faulty.now_ns(), t1, "stalled advance must not move time");
        faulty.advance(period).unwrap(); // call 3: advances
        assert!(faulty.now_ns() > t1);
        assert_eq!(faulty.stats().clock_stalls, 1);
    }

    #[test]
    fn vanish_reports_unknown_group() {
        let (backend, g) = sim_with_one_app();
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                vanish: FaultTrigger::Every { n: 2 },
                ..FaultPlan::none()
            },
        );
        assert!(faulty.read_counters(g).is_ok()); // vanish call 1
        let err = faulty.read_counters(g).unwrap_err(); // vanish call 2
        assert!(matches!(err, RdtError::UnknownGroup(v) if v == g));
        assert!(!err.is_transient());
        assert_eq!(faulty.stats().vanishes, 1);
    }

    #[test]
    fn disarmed_backend_is_transparent_and_frozen() {
        let (backend, g) = sim_with_one_app();
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                counter_dropout: FaultTrigger::Every { n: 2 },
                ..FaultPlan::none()
            },
        );
        faulty.read_counters(g).unwrap(); // call 1: survives
        let frozen = faulty.fault_state();
        faulty.set_armed(false);
        assert!(!faulty.is_armed());
        // Would be call 2 (a dropout) if armed; disarmed, it passes and
        // the site does not even count the call.
        for _ in 0..5 {
            faulty.read_counters(g).unwrap();
        }
        assert_eq!(faulty.fault_state(), frozen, "streams must not advance");
        faulty.set_armed(true);
        // Re-armed: the very next read is the deferred call 2 dropout.
        assert!(faulty.read_counters(g).is_err());
    }

    #[test]
    fn fault_state_restore_resumes_the_schedule() {
        let run_tail = |faulty: &mut FaultyBackend<SimBackend>, g: ClosId| -> Vec<bool> {
            (0..40).map(|_| faulty.read_counters(g).is_ok()).collect()
        };
        let plan = FaultPlan {
            seed: 77,
            counter_dropout: FaultTrigger::Prob { p: 0.3 },
            ..FaultPlan::none()
        };
        let (backend, g) = sim_with_one_app();
        let mut original = FaultyBackend::new(backend, plan.clone());
        for _ in 0..17 {
            let _ = original.read_counters(g);
        }
        let snap = original.fault_state();

        let (backend2, g2) = sim_with_one_app();
        let mut resumed = FaultyBackend::new(backend2, plan);
        resumed.restore_fault_state(&snap);
        assert_eq!(resumed.stats(), original.stats());
        assert_eq!(run_tail(&mut original, g), run_tail(&mut resumed, g2));
        assert_eq!(original.fault_state(), resumed.fault_state());
    }

    #[test]
    fn partial_apply_cbm_lands_mba_fails() {
        let (backend, g) = sim_with_one_app();
        let ways = backend.capabilities().llc_ways;
        let mut faulty = FaultyBackend::new(
            backend,
            FaultPlan {
                write_mba: FaultTrigger::Every { n: 1 },
                ..FaultPlan::none()
            },
        );
        let before = faulty.clos_config(g).unwrap();
        let mask = CbmMask::contiguous(0, 2, ways).unwrap();
        faulty.set_cbm(g, mask).unwrap();
        assert!(faulty.set_mba(g, MbaLevel::new(50)).is_err());
        let after = faulty.clos_config(g).unwrap();
        assert_eq!(after.0, mask, "the CBM landed");
        assert_eq!(after.1, before.1, "the MBA level did not");
        assert_eq!(faulty.stats().total(), 1);
    }
}
