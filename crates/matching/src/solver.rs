//! The deferred-acceptance solver.

use crate::{Instance, InstanceError, Matching};

/// Solves the instance with resident-proposing deferred acceptance,
/// producing the resident-optimal stable matching.
///
/// Each unassigned resident proposes to hospitals in preference order; a
/// hospital tentatively holds its best admits and bumps its least-preferred
/// admit when over capacity. Runs in `O(Σ |preference lists|)` proposals.
///
/// # Errors
///
/// Returns the instance's structural error if it fails validation.
///
/// # Examples
///
/// ```
/// use copart_matching::{Hospital, Instance, Resident, solve_resident_optimal};
///
/// let inst = Instance {
///     hospitals: vec![Hospital { capacity: 1, preference: vec![0, 1] }],
///     residents: vec![
///         Resident { preference: vec![0] },
///         Resident { preference: vec![0] },
///     ],
/// };
/// let m = solve_resident_optimal(&inst).unwrap();
/// assert_eq!(m.resident_to_hospital, vec![Some(0), None]);
/// assert!(m.is_stable(&inst));
/// ```
pub fn solve_resident_optimal(inst: &Instance) -> Result<Matching, InstanceError> {
    inst.validate()?;
    let nr = inst.residents.len();

    // Precompute hospital-side ranks for O(1) comparisons.
    let hospital_rank: Vec<Vec<Option<usize>>> = inst
        .hospitals
        .iter()
        .map(|h| {
            let mut ranks = vec![None; nr];
            for (rank, &r) in h.preference.iter().enumerate() {
                ranks[r] = Some(rank);
            }
            ranks
        })
        .collect();

    let mut assignment: Vec<Option<usize>> = vec![None; nr];
    // Residents currently held by each hospital.
    let mut admits: Vec<Vec<usize>> = vec![Vec::new(); inst.hospitals.len()];
    // Next preference index each resident will propose to.
    let mut next_choice = vec![0usize; nr];
    let mut free: Vec<usize> = (0..nr).rev().collect();

    while let Some(r) = free.pop() {
        let prefs = &inst.residents[r].preference;
        let Some(&h) = prefs.get(next_choice[r]) else {
            continue; // Exhausted list; resident stays unmatched.
        };
        next_choice[r] += 1;
        if hospital_rank[h][r].is_none() {
            free.push(r); // Unacceptable to the hospital; try the next one.
            continue;
        }
        admits[h].push(r);
        assignment[r] = Some(h);
        if admits[h].len() > inst.hospitals[h].capacity {
            // Bump the least-preferred admit.
            let (worst_pos, _) = admits[h]
                .iter()
                .enumerate()
                .max_by_key(|&(_, &res)| hospital_rank[h][res].expect("admitted ⇒ acceptable"))
                .expect("non-empty: just pushed");
            let bumped = admits[h].swap_remove(worst_pos);
            assignment[bumped] = None;
            free.push(bumped);
        }
    }

    Ok(Matching {
        resident_to_hospital: assignment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hospital, Resident};

    fn inst(hospitals: Vec<(usize, Vec<usize>)>, residents: Vec<Vec<usize>>) -> Instance {
        Instance {
            hospitals: hospitals
                .into_iter()
                .map(|(capacity, preference)| Hospital {
                    capacity,
                    preference,
                })
                .collect(),
            residents: residents
                .into_iter()
                .map(|preference| Resident { preference })
                .collect(),
        }
    }

    #[test]
    fn mutual_first_choices_match() {
        let i = inst(
            vec![(1, vec![0, 1]), (1, vec![1, 0])],
            vec![vec![0, 1], vec![1, 0]],
        );
        let m = solve_resident_optimal(&i).unwrap();
        assert_eq!(m.resident_to_hospital, vec![Some(0), Some(1)]);
        assert!(m.is_stable(&i));
    }

    #[test]
    fn contested_hospital_keeps_preferred_resident() {
        // Both residents want hospital 0 (capacity 1); it prefers 1.
        let i = inst(
            vec![(1, vec![1, 0]), (1, vec![0, 1])],
            vec![vec![0, 1], vec![0, 1]],
        );
        let m = solve_resident_optimal(&i).unwrap();
        assert_eq!(m.resident_to_hospital, vec![Some(1), Some(0)]);
        assert!(m.is_stable(&i));
    }

    #[test]
    fn capacity_two_admits_both() {
        let i = inst(vec![(2, vec![0, 1])], vec![vec![0], vec![0]]);
        let m = solve_resident_optimal(&i).unwrap();
        assert_eq!(m.matched_count(), 2);
        assert!(m.is_stable(&i));
    }

    #[test]
    fn unacceptable_pairs_stay_unmatched() {
        // Hospital finds resident 1 unacceptable; resident 0 refuses all.
        let i = inst(vec![(2, vec![0])], vec![vec![], vec![0]]);
        let m = solve_resident_optimal(&i).unwrap();
        assert_eq!(m.resident_to_hospital, vec![None, None]);
        assert!(m.is_stable(&i));
    }

    #[test]
    fn invalid_instance_is_rejected() {
        let i = inst(vec![(1, vec![5])], vec![vec![0]]);
        assert!(solve_resident_optimal(&i).is_err());
    }
}
