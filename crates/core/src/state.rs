//! Resource-allocation state: per-application `(ways, MBA level)` pairs
//! (the paper's `s_i = (l_i, m_i)`, §2.3) and the system state `S`.

use copart_rng::XorShift64Star;

use copart_rdt::{CbmMask, ClosId, MbaLevel, RdtBackend, RdtError};

/// One application's resource allocation `s_i = (l_i, m_i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocationState {
    /// Allocated LLC ways (`l_i ≥ 1`).
    pub ways: u32,
    /// Allocated MBA level (`m_i`).
    pub mba: MbaLevel,
}

/// The slice of the machine the controller may hand out.
///
/// On a dedicated server this is the whole LLC with no MBA ceiling; in the
/// §6.3 case study the outer server manager reserves low ways for the
/// latency-critical workload and caps the batch partition's MBA levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaysBudget {
    /// First LLC way available to the controller.
    pub first_way: u32,
    /// Number of contiguous ways available.
    pub total_ways: u32,
    /// Highest MBA level the controller may grant.
    pub mba_cap: MbaLevel,
}

impl WaysBudget {
    /// The whole machine: all `ways` ways, no MBA ceiling.
    pub fn full_machine(ways: u32) -> WaysBudget {
        WaysBudget {
            first_way: 0,
            total_ways: ways,
            mba_cap: MbaLevel::MAX,
        }
    }
}

/// The system state `S = {s_0, …, s_(N_A − 1)}`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SystemState {
    /// Per-application allocations, indexed like the managed app list.
    pub allocs: Vec<AllocationState>,
}

impl SystemState {
    /// The equal-allocation state: ways split as evenly as possible
    /// (earlier applications receive the remainder), every application at
    /// the same MBA level.
    ///
    /// # Panics
    ///
    /// Panics when there are more applications than budget ways, since
    /// every application needs at least one way.
    pub fn equal_split(n_apps: usize, budget: &WaysBudget, mba: MbaLevel) -> SystemState {
        assert!(n_apps >= 1, "need at least one application");
        assert!(
            n_apps as u32 <= budget.total_ways,
            "{n_apps} applications cannot each get a way out of {}",
            budget.total_ways
        );
        let base = budget.total_ways / n_apps as u32;
        let remainder = budget.total_ways as usize % n_apps;
        let mba = mba.min(budget.mba_cap);
        let allocs = (0..n_apps)
            .map(|i| AllocationState {
                ways: base + u32::from(i < remainder),
                mba,
            })
            .collect();
        SystemState { allocs }
    }

    /// The equal *share* MBA level for `n` applications: the level closest
    /// to `100 / n` percent. This is how the EQ baseline interprets
    /// "equally allocates the memory bandwidth": each application may
    /// issue an equal fraction of its unthrottled traffic.
    pub fn equal_mba_level(n_apps: usize) -> MbaLevel {
        MbaLevel::new((100 / n_apps.max(1)).min(100) as u8)
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.allocs.len()
    }

    /// Whether the state holds no applications.
    pub fn is_empty(&self) -> bool {
        self.allocs.is_empty()
    }

    /// Sum of allocated ways.
    pub fn total_ways(&self) -> u32 {
        self.allocs.iter().map(|a| a.ways).sum()
    }

    /// Checks the partitioning invariants against a budget: every
    /// application holds at least one way, the total fits the budget, and
    /// no MBA level exceeds the cap.
    pub fn is_valid(&self, budget: &WaysBudget) -> bool {
        !self.allocs.is_empty()
            && self.allocs.iter().all(|a| a.ways >= 1)
            && self.total_ways() <= budget.total_ways
            && self.allocs.iter().all(|a| a.mba <= budget.mba_cap)
    }

    /// Lays the allocations out as contiguous, disjoint CAT masks packed
    /// from `budget.first_way` upward, in application order. Any budget
    /// ways left over (total < budget) are appended to the last
    /// application's mask so the cache is never wasted.
    ///
    /// # Panics
    ///
    /// Panics when the state violates the budget (`is_valid` is false);
    /// callers must only apply valid states.
    pub fn masks(&self, budget: &WaysBudget, machine_ways: u32) -> Vec<CbmMask> {
        let mut out = Vec::with_capacity(self.allocs.len());
        self.masks_into(budget, machine_ways, &mut out);
        out
    }

    /// [`SystemState::masks`] into a caller-provided buffer (cleared
    /// first), so per-epoch actuation can reuse its scratch allocation.
    ///
    /// # Panics
    ///
    /// Panics when the state violates the budget (`is_valid` is false).
    pub fn masks_into(&self, budget: &WaysBudget, machine_ways: u32, out: &mut Vec<CbmMask>) {
        assert!(self.is_valid(budget), "cannot lay out an invalid state");
        out.clear();
        let spare = budget.total_ways - self.total_ways();
        let mut start = budget.first_way;
        let last = self.allocs.len() - 1;
        for (i, a) in self.allocs.iter().enumerate() {
            let count = a.ways + if i == last { spare } else { 0 };
            let mask = CbmMask::contiguous(start, count, machine_ways)
                .expect("valid state fits the machine");
            start += count;
            out.push(mask);
        }
    }

    /// Programs the state onto the backend, group by group.
    ///
    /// # Errors
    ///
    /// Propagates backend failures; the state may be partially applied in
    /// that case (the caller re-applies or re-adapts).
    pub fn apply<B: RdtBackend>(
        &self,
        backend: &mut B,
        groups: &[ClosId],
        budget: &WaysBudget,
    ) -> Result<(), RdtError> {
        assert_eq!(
            groups.len(),
            self.allocs.len(),
            "state and group list must be congruent"
        );
        let machine_ways = backend.capabilities().llc_ways;
        let masks = self.masks(budget, machine_ways);
        for ((group, alloc), mask) in groups.iter().zip(&self.allocs).zip(masks) {
            backend.set_cbm(*group, mask)?;
            backend.set_mba(*group, alloc.mba.min(budget.mba_cap))?;
        }
        Ok(())
    }

    /// A random valid neighbor state: either one way migrates between two
    /// applications, or one application's MBA level steps up or down
    /// (Algorithm 1's randomized restart when exploration stalls).
    ///
    /// `allow_llc` / `allow_mba` restrict which dimension may be
    /// perturbed — the CAT-only and MBA-only baselines pin one of them.
    /// Returns a state differing from `self` whenever any permitted
    /// perturbation is possible.
    ///
    /// Written into a caller-provided state (its allocation buffer is
    /// reused).
    pub fn neighbor_into(
        &self,
        budget: &WaysBudget,
        rng: &mut XorShift64Star,
        allow_llc: bool,
        allow_mba: bool,
        next: &mut SystemState,
    ) {
        let n = self.allocs.len();
        next.allocs.clone_from(&self.allocs);
        if !allow_llc && !allow_mba {
            return;
        }
        for _ in 0..64 {
            match rng.gen_range(0..3u8) {
                0 if n >= 2 && allow_llc => {
                    // Move one way from a donor with spare ways.
                    let from = rng.gen_range(0..n);
                    let to = rng.gen_range(0..n);
                    if from != to && next.allocs[from].ways > 1 {
                        next.allocs[from].ways -= 1;
                        next.allocs[to].ways += 1;
                        return;
                    }
                }
                1 if allow_mba => {
                    let i = rng.gen_range(0..n);
                    let up = next.allocs[i].mba.step_up().min(budget.mba_cap);
                    if up != next.allocs[i].mba {
                        next.allocs[i].mba = up;
                        return;
                    }
                }
                2 if allow_mba => {
                    let i = rng.gen_range(0..n);
                    let down = next.allocs[i].mba.step_down();
                    if down != next.allocs[i].mba {
                        next.allocs[i].mba = down;
                        return;
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget11() -> WaysBudget {
        WaysBudget::full_machine(11)
    }

    #[test]
    fn equal_split_distributes_remainder_first() {
        let s = SystemState::equal_split(4, &budget11(), MbaLevel::MAX);
        let ways: Vec<u32> = s.allocs.iter().map(|a| a.ways).collect();
        assert_eq!(ways, vec![3, 3, 3, 2]);
        assert_eq!(s.total_ways(), 11);
        assert!(s.is_valid(&budget11()));
    }

    #[test]
    fn equal_mba_levels() {
        assert_eq!(SystemState::equal_mba_level(3).percent(), 30);
        assert_eq!(SystemState::equal_mba_level(4).percent(), 30); // 25 → 30
        assert_eq!(SystemState::equal_mba_level(6).percent(), 20);
        assert_eq!(SystemState::equal_mba_level(1).percent(), 100);
        assert_eq!(SystemState::equal_mba_level(12).percent(), 10);
    }

    #[test]
    fn masks_are_disjoint_contiguous_and_cover_the_budget() {
        let s = SystemState::equal_split(4, &budget11(), MbaLevel::MAX);
        let masks = s.masks(&budget11(), 11);
        let mut union = 0u32;
        for m in &masks {
            assert_eq!(union & m.bits(), 0, "masks overlap");
            union |= m.bits();
        }
        assert_eq!(union, 0x7ff, "masks must cover all 11 ways");
    }

    #[test]
    fn spare_ways_go_to_the_last_app() {
        let s = SystemState {
            allocs: vec![
                AllocationState {
                    ways: 2,
                    mba: MbaLevel::MAX,
                },
                AllocationState {
                    ways: 3,
                    mba: MbaLevel::MAX,
                },
            ],
        };
        let masks = s.masks(&budget11(), 11);
        assert_eq!(masks[0].way_count(), 2);
        assert_eq!(masks[1].way_count(), 9, "3 own + 6 spare ways");
    }

    #[test]
    fn budget_offset_shifts_masks() {
        let budget = WaysBudget {
            first_way: 6,
            total_ways: 5,
            mba_cap: MbaLevel::new(40),
        };
        let s = SystemState::equal_split(2, &budget, MbaLevel::MAX);
        assert!(
            s.allocs.iter().all(|a| a.mba.percent() == 40),
            "cap applies"
        );
        let masks = s.masks(&budget, 11);
        assert!(masks.iter().all(|m| m.ways().all(|w| w >= 6)));
        let union: u32 = masks.iter().map(|m| m.bits()).fold(0, |a, b| a | b);
        assert_eq!(union, 0b0111_1100_0000);
    }

    #[test]
    fn validity_checks() {
        let budget = budget11();
        let mut s = SystemState::equal_split(4, &budget, MbaLevel::MAX);
        assert!(s.is_valid(&budget));
        s.allocs[0].ways = 0;
        assert!(!s.is_valid(&budget));
        s.allocs[0].ways = 9; // Total now 17 > 11.
        assert!(!s.is_valid(&budget));
    }

    #[test]
    #[should_panic(expected = "cannot each get a way")]
    fn too_many_apps_for_budget() {
        let budget = WaysBudget {
            first_way: 0,
            total_ways: 3,
            mba_cap: MbaLevel::MAX,
        };
        let _ = SystemState::equal_split(4, &budget, MbaLevel::MAX);
    }

    #[test]
    fn neighbors_are_valid_and_different() {
        let budget = budget11();
        let s = SystemState::equal_split(4, &budget, MbaLevel::new(50));
        let mut rng = XorShift64Star::seed_from_u64(9);
        let mut seen_diff = 0;
        let mut n = SystemState::default();
        for _ in 0..50 {
            s.neighbor_into(&budget, &mut rng, true, true, &mut n);
            assert!(n.is_valid(&budget), "neighbor invalid: {n:?}");
            if n != s {
                seen_diff += 1;
            }
        }
        assert!(seen_diff >= 45, "neighbors should almost always differ");
    }

    #[test]
    fn neighbor_respects_mba_cap() {
        let budget = WaysBudget {
            first_way: 0,
            total_ways: 11,
            mba_cap: MbaLevel::new(40),
        };
        let s = SystemState::equal_split(3, &budget, MbaLevel::new(40));
        let mut rng = XorShift64Star::seed_from_u64(3);
        let mut n = SystemState::default();
        for _ in 0..100 {
            s.neighbor_into(&budget, &mut rng, true, true, &mut n);
            assert!(n.allocs.iter().all(|a| a.mba <= budget.mba_cap));
        }
    }
}
