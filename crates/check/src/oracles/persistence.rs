//! Snapshot → restore → replay oracle for the crash-safe state layer
//! (`copart-persist`: the codec, the store's text, and the restore).
//!
//! The crash-recovery contract (DESIGN.md §16) is that a snapshot is a
//! *complete* freeze of the dynamic state: restore it into a freshly
//! built runtime and the continuation is byte-identical to the run that
//! was never interrupted — same trace lines, same RNG draws, same
//! controller state. `tests/crash_recovery.rs` proves that end-to-end
//! for a handful of pinned scenarios; this oracle fuzzes the *mechanism*
//! across randomized mixes, policies, seeds, snapshot points, and fault
//! plans, and adds the wire check the integration test skips: the
//! snapshot document must survive a stream → pull-decode round trip
//! unchanged (the hex-float codec is where bit-exactness goes to die),
//! and the text the store streams must equal the tree's rendering.
//!
//! Each case runs one live runtime to a random epoch, captures a
//! [`SnapshotDoc`], round-trips it through its JSON rendering, restores
//! the decoded document through [`restore`] — the construction
//! `sim-run --resume` and the daemon's recovery run — then steps both
//! runtimes the same number of epochs and demands identical per-epoch
//! outcomes, identical trace bytes, and identical re-captured state. A
//! fault-injected live build that the armed injector refuses with busy
//! writes on every attempt leaves nothing to snapshot and passes
//! vacuously.

use crate::property::{CaseOutcome, Property};
use crate::source::Source;
use copart_core::policies::PolicyKind;
use copart_core::profile_with_retries;
use copart_core::runtime::ConsolidationRuntime;
use copart_faults::{FaultPlan, FaultTrigger, FaultyBackend};
use copart_persist::{
    restore, PersistableBackend, Scenario, SnapshotDoc, SnapshotMeta, PROFILE_ATTEMPTS,
};
use copart_rdt::{RdtError, SimBackend};
use copart_telemetry::{JsonWriter, SharedRecorder};
use copart_workloads::MixKind;

/// Mixes the oracle draws from, simplest-shrinking first.
const MIXES: [MixKind; 5] = [
    MixKind::HighBoth,
    MixKind::ModerateBoth,
    MixKind::HighLlc,
    MixKind::HighBw,
    MixKind::Insensitive,
];

const POLICIES: [PolicyKind; 3] = [PolicyKind::CoPart, PolicyKind::CatOnly, PolicyKind::MbaOnly];

/// A randomized fault trigger for one site. `Never` first: a zeroed
/// tape shrinks every site to quiet.
fn gen_trigger(src: &mut Source) -> FaultTrigger {
    src.pick(&[
        FaultTrigger::Never,
        FaultTrigger::Prob { p: 0.05 },
        FaultTrigger::Prob { p: 0.25 },
        FaultTrigger::Every { n: 3 },
    ])
    .clone()
}

/// A randomized fault plan. The vanish site stays `Never`: vanishes are
/// non-transient CLOS churn, and this oracle holds the group table
/// fixed so the continuation comparison is about *state*, not about
/// both sides failing construction the same way.
fn gen_plan(src: &mut Source) -> FaultPlan {
    FaultPlan {
        seed: src.below(256),
        counter_dropout: gen_trigger(src),
        write_cbm: gen_trigger(src),
        write_mba: gen_trigger(src),
        vanish: FaultTrigger::Never,
        clock_stall: gen_trigger(src),
    }
}

fn snapshot_case(src: &mut Source) -> CaseOutcome {
    let mix = *src.pick(&MIXES);
    let policy = *src.pick(&POLICIES);
    let n_apps = src.size(2, 3);
    let seed = src.below(1 << 12);
    // Epochs run before the snapshot is cut, and after it (the
    // replayed continuation both sides are compared over).
    let before = src.below(4);
    let after = src.size(1, 3) as u64;
    let faults = if src.chance(0.6) {
        None
    } else {
        Some(gen_plan(src))
    };
    // High seed bits, drawn *last* so pre-existing corpus tapes (which
    // pad exhausted replays with 0) still decode to their blessed
    // witnesses. A non-zero draw pushes the scenario seed at or beyond
    // 2⁵³ — the range the version-2 hex codec exists for.
    let seed = seed | (src.below(1 << 11) << 53);
    let witness = format!(
        "mix={} policy={} apps={n_apps} seed={seed} before={before} after={after} faults={faults:?}",
        mix.label(),
        policy.label()
    );
    let verdict = check_case(mix, policy, n_apps, seed, before, after, faults);
    CaseOutcome { witness, verdict }
}

fn check_case(
    mix: MixKind,
    policy: PolicyKind,
    n_apps: usize,
    seed: u64,
    before: u64,
    after: u64,
    faults: Option<FaultPlan>,
) -> Result<(), String> {
    let scenario = Scenario::new(mix, n_apps, policy, seed, faults)
        .map_err(|e| format!("scenario rejected: {e}"))?;
    let env = scenario.env();
    let meta = SnapshotMeta {
        mix: env.identity.mix.clone(),
        n_apps: n_apps as u64,
        policy: policy.label().to_string(),
        seed,
        faults: env.identity.faults.clone(),
        daemon_epochs: before,
    };
    // One build for every case: a fault-free scenario runs behind the
    // decorator too, with the transparent `FaultPlan::none()`. The live
    // side is built armed, so every write attempt at the initial
    // partition can draw a busy failure; that refusal is legitimate, and
    // with no runtime there is nothing to snapshot — a vacuous pass. Any
    // other build error is a failure.
    let live = match scenario.build(&env) {
        Ok(live) => live,
        Err(e) if scenario.faults.is_some() && e.contains(&RdtError::Busy("").to_string()) => {
            return Ok(())
        }
        Err(e) => return Err(format!("build: {e}")),
    };
    run_pair(&scenario, live, before, after, meta)
}

/// Drives the live runtime to the snapshot point, round-trips the
/// document through its wire rendering, restores it via [`restore`],
/// then compares the two continuations epoch by epoch.
fn run_pair(
    scenario: &Scenario,
    mut live: ConsolidationRuntime<FaultyBackend<SimBackend>>,
    before: u64,
    after: u64,
    meta: SnapshotMeta,
) -> Result<(), String> {
    profile_with_retries(&mut live, PROFILE_ATTEMPTS)?;
    for _ in 0..before {
        // Epoch failures (degraded-mode busy writes) are part of the
        // state being snapshotted, not a case failure.
        let _ = live.run_period();
    }

    let doc = SnapshotDoc::capture(&live, meta);
    // The bytes the store writes: the document streamed straight into
    // text. Rendering that text parsed (`encode`) gives them back, byte
    // for byte.
    let mut streamed = String::new();
    doc.emit(&mut JsonWriter::new(&mut streamed));
    if streamed != doc.encode().to_string() {
        return Err("the streamed snapshot text differs from encode().to_string()".to_string());
    }
    let decoded =
        SnapshotDoc::parse(&streamed).map_err(|e| format!("snapshot text does not decode: {e}"))?;
    let (doc_dbg, decoded_dbg) = (format!("{doc:?}"), format!("{decoded:?}"));
    if doc_dbg != decoded_dbg {
        return Err(format!(
            "parse(emit(doc)) is not the identity:\n  captured: {}\n  decoded:  {}",
            first_difference(&doc_dbg, &decoded_dbg),
            first_difference(&decoded_dbg, &doc_dbg),
        ));
    }

    let mut resumed = restore(scenario, &decoded)?;

    let (ring_live, ring_resumed) = (SharedRecorder::default(), SharedRecorder::default());
    live.set_recorder(Box::new(ring_live.clone()));
    resumed.set_recorder(Box::new(ring_resumed.clone()));
    for step in 0..after {
        let a = live.run_period().map(|_| ()).map_err(|e| e.to_string());
        let b = resumed.run_epoch().map_err(|e| e.to_string());
        if a != b {
            return Err(format!(
                "continuation epoch {step} diverged: live {a:?} vs resumed {b:?}"
            ));
        }
    }

    let lines = |ring: &SharedRecorder| -> Vec<String> {
        ring.events().iter().map(|e| e.to_json_line()).collect()
    };
    let (trace_live, trace_resumed) = (lines(&ring_live), lines(&ring_resumed));
    if trace_live != trace_resumed {
        let step = trace_live
            .iter()
            .zip(&trace_resumed)
            .position(|(a, b)| a != b)
            .unwrap_or(trace_live.len().min(trace_resumed.len()));
        return Err(format!(
            "continuation traces diverge at line {step}:\n  live:    {}\n  resumed: {}",
            trace_live.get(step).map_or("<missing>", |s| s.as_str()),
            trace_resumed.get(step).map_or("<missing>", |s| s.as_str()),
        ));
    }

    let resumed = resumed.runtime();
    let (state_live, state_resumed) = (
        format!("{:?} {:?}", live.snapshot(), live.backend().capture()),
        format!("{:?} {:?}", resumed.snapshot(), resumed.backend().capture()),
    );
    if state_live != state_resumed {
        return Err(format!(
            "re-captured states diverge after the continuation:\n  live:    {}\n  resumed: {}",
            first_difference(&state_live, &state_resumed),
            first_difference(&state_resumed, &state_live),
        ));
    }
    Ok(())
}

/// A short window of `a` around its first byte of disagreement with
/// `b` — full runtime Debug dumps are thousands of characters.
fn first_difference<'a>(a: &'a str, b: &str) -> &'a str {
    let at = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let start = at.saturating_sub(40);
    let end = (at + 80).min(a.len());
    // Debug output is ASCII; byte slicing cannot split a char.
    &a[start..end]
}

/// The snapshot → restore → replay oracle.
pub fn properties() -> Vec<Property> {
    vec![Property::new("snapshot-restore-replay", snapshot_case)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_cases_pass() {
        for seed in 0..8 {
            let mut src = Source::from_seed(seed);
            let out = snapshot_case(&mut src);
            assert_eq!(out.verdict, Ok(()), "seed {seed}: {}", out.witness);
        }
    }

    #[test]
    fn zero_tape_is_the_minimal_clean_case() {
        let mut src = Source::replay(&[]);
        let out = snapshot_case(&mut src);
        assert_eq!(out.verdict, Ok(()), "{}", out.witness);
        assert!(out.witness.contains("faults=None"), "{}", out.witness);
        assert!(out.witness.contains("apps=2"), "{}", out.witness);
    }
}
