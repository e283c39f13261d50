//! The actuation layer: writing partitions to the backend with bounded
//! retry/backoff and transactional rollback.
//!
//! The fourth stage of the control-plane pipeline (DESIGN.md §12). The
//! [`Actuator`] trait owns every schemata write the runtime performs:
//! plain full-state applies (membership and budget changes) and the
//! per-epoch transactional switch, where either every group's CBM and MBA
//! level land or the already-written prefix is rolled back. The epoch
//! driver stays free of retry loops and rollback bookkeeping; it reads
//! the outcome from an [`ApplyReport`] and maps it onto metrics.

use std::time::Duration;

use copart_rdt::{CbmMask, ClosId, RdtBackend, RdtError};

use crate::state::{SystemState, WaysBudget};

/// Total attempts per backend write that fails transiently, including
/// the first.
///
/// On a real server a schemata write can race another resctrl user and
/// come back `EBUSY` ([`RdtError::Busy`]); such failures are expected to
/// clear within a write or two. The actuator retries them up to this
/// many attempts, backing off exponentially from [`RETRY_BACKOFF`]
/// between attempts. The backoff is spent through
/// [`RdtBackend::advance`], so it is virtual time on the simulator and a
/// real sleep on hardware.
const MAX_WRITE_ATTEMPTS: u32 = 4;

/// Backoff before the first retry; doubled on each further retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);

/// Runs `op`, retrying transient ([`RdtError::is_transient`]) failures:
/// up to four attempts in all, backing off 1 ms, then 2 ms, then 4 ms.
/// Each retry is counted into `retries`. Backoff-advance failures are
/// ignored: the backoff is best effort, the retried write is what
/// matters.
///
/// # Errors
///
/// Returns the first non-transient error, or the last transient one once
/// the attempt budget is exhausted.
pub fn retry_transient<B: RdtBackend, T>(
    backend: &mut B,
    retries: &mut u32,
    mut op: impl FnMut(&mut B) -> Result<T, RdtError>,
) -> Result<T, RdtError> {
    let mut attempt = 1u32;
    loop {
        match op(backend) {
            Err(e) if e.is_transient() && attempt < MAX_WRITE_ATTEMPTS => {
                *retries += 1;
                let backoff = RETRY_BACKOFF * 2u32.saturating_pow(attempt - 1);
                let _ = backend.advance(backoff);
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// What one actuation did, beyond its return value: how many transient
/// retries were spent and what the rollback path hit. The epoch driver
/// folds these into its metrics registry and fault samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// Transient write failures that were retried (successfully or not).
    pub write_retries: u32,
    /// Rollback writes that themselves failed persistently and were
    /// skipped.
    pub rollback_write_failures: u32,
    /// Whether a transactional apply failed and was rolled back.
    pub rolled_back: bool,
}

/// The actuation seam of the control-plane pipeline.
///
/// Implementations turn a [`SystemState`] into backend writes; the
/// runtime never calls [`RdtBackend::set_cbm`] / [`RdtBackend::set_mba`]
/// directly. The CAT mask layout is computed by the *caller*, through
/// the planner's [`crate::planner::layout_masks_into`] — disjoint
/// per-application packing or shared per-cluster regions — and the
/// actuator writes whatever masks it is handed, one per group, alongside
/// each allocation's (capped) MBA level.
///
/// # Examples
///
/// The retry machinery under the trait, demonstrated directly: a write
/// that comes back busy once is retried and lands, and the spent retry
/// is accounted.
///
/// ```
/// use copart_core::actuator::retry_transient;
/// use copart_rdt::{RdtError, SimBackend};
/// use copart_sim::{Machine, MachineConfig};
///
/// let mut backend = SimBackend::new(Machine::new(MachineConfig::xeon_gold_6130()));
/// let mut retries = 0;
/// let mut first = true;
/// let outcome = retry_transient(&mut backend, &mut retries, |_b| {
///     if std::mem::take(&mut first) {
///         Err(RdtError::Busy("schemata write"))
///     } else {
///         Ok(())
///     }
/// });
/// assert!(outcome.is_ok());
/// assert_eq!(retries, 1);
/// ```
pub trait Actuator<B: RdtBackend> {
    /// Writes `state`'s MBA levels and the caller-laid-out `masks` for
    /// every group, retrying transient failures. The first persistent
    /// failure propagates — membership and budget changes use this and
    /// surface the error to their caller, who owns the recovery decision.
    ///
    /// # Errors
    ///
    /// Returns the first write failure that survives retrying.
    fn apply(
        &self,
        backend: &mut B,
        groups: &[ClosId],
        state: &SystemState,
        budget: &WaysBudget,
        masks: &[CbmMask],
        report: &mut ApplyReport,
    ) -> Result<(), RdtError>;

    /// Transactionally switches the partition from `old` (laid out as
    /// `old_masks`) to `new` (laid out as `new_masks`): either every
    /// group's CBM and MBA level land (returns `true`; the caller adopts
    /// `new`) or the already-written prefix is rolled back to `old`,
    /// which stays in force (returns `false`). Mid-transition the masks
    /// of prefix and suffix groups may overlap — CAT permits that (it
    /// restricts allocation, not lookup), so every intermediate picture
    /// the hardware sees is individually valid.
    #[allow(clippy::too_many_arguments)] // The transition's two layouts travel alongside their states.
    fn apply_txn(
        &self,
        backend: &mut B,
        groups: &[ClosId],
        old: &SystemState,
        new: &SystemState,
        budget: &WaysBudget,
        new_masks: &[CbmMask],
        old_masks: &[CbmMask],
        report: &mut ApplyReport,
    ) -> bool;
}

/// The default actuator: bounded-retry writes with prefix rollback, as
/// described on [`Actuator::apply_txn`].
#[derive(Debug, Clone, Default)]
pub struct TransactionalActuator;

impl<B: RdtBackend> Actuator<B> for TransactionalActuator {
    fn apply(
        &self,
        backend: &mut B,
        groups: &[ClosId],
        state: &SystemState,
        budget: &WaysBudget,
        masks: &[CbmMask],
        report: &mut ApplyReport,
    ) -> Result<(), RdtError> {
        for ((group, alloc), mask) in groups.iter().zip(&state.allocs).zip(masks.iter()) {
            let group = *group;
            let mask = *mask;
            let level = alloc.mba.min(budget.mba_cap);
            retry_transient(backend, &mut report.write_retries, |b| {
                b.set_cbm(group, mask)
            })?;
            retry_transient(backend, &mut report.write_retries, |b| {
                b.set_mba(group, level)
            })?;
        }
        Ok(())
    }

    /// Transient write failures are retried with backoff first; only a
    /// write that stays broken triggers the rollback. Rollback writes get
    /// the same bounded retry, and one that *still* fails is counted
    /// (`rollback_write_failures`) and skipped — the group keeps the new
    /// mask until the next successful apply overwrites it, which is safe
    /// for the same reason overlap mid-transition is.
    fn apply_txn(
        &self,
        backend: &mut B,
        groups: &[ClosId],
        old: &SystemState,
        new: &SystemState,
        budget: &WaysBudget,
        new_masks: &[CbmMask],
        old_masks: &[CbmMask],
        report: &mut ApplyReport,
    ) -> bool {
        let mut failed_at = None;
        for (i, (alloc, mask)) in new.allocs.iter().zip(new_masks.iter()).enumerate() {
            let group = groups[i];
            let mask = *mask;
            let level = alloc.mba.min(budget.mba_cap);
            let wrote = retry_transient(backend, &mut report.write_retries, |b| {
                b.set_cbm(group, mask)
            })
            .and_then(|()| {
                retry_transient(backend, &mut report.write_retries, |b| {
                    b.set_mba(group, level)
                })
            });
            if wrote.is_err() {
                failed_at = Some(i);
                break;
            }
        }
        if let Some(k) = failed_at {
            // Roll groups 0..=k back to the old partition (group k may
            // have taken the new CBM before its MBA write failed); the
            // untouched suffix still holds it.
            for i in 0..=k {
                let group = groups[i];
                let mask = old_masks[i];
                let level = old.allocs[i].mba.min(budget.mba_cap);
                if retry_transient(backend, &mut report.write_retries, |b| {
                    b.set_cbm(group, mask)
                })
                .is_err()
                {
                    report.rollback_write_failures += 1;
                }
                if retry_transient(backend, &mut report.write_retries, |b| {
                    b.set_mba(group, level)
                })
                .is_err()
                {
                    report.rollback_write_failures += 1;
                }
            }
            report.rolled_back = true;
            false
        } else {
            true
        }
    }
}
