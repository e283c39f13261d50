//! Full-trace digests of every planner path: each engine runs 80 epochs
//! on H-Both and H-LLC with a ring recorder, and an FNV-1a over the
//! JSONL lines must equal the pinned constant. Unlike the golden
//! projection (`golden_degraded.rs`: phase/decision/fault only) this
//! covers every traced byte — in particular `proposed`, which on a
//! settling `Converge` is the stalled matching output while `applied` is
//! the best-seen state.
//!
//! Bless an intentional change with `UPDATE_TRACE_DIGESTS=1 cargo test -p
//! copart-core --test trace_digest -- --nocapture` and paste the printed
//! table over `PINNED`.

use std::sync::{Arc, Mutex};

use copart_core::policies::{dynamic_runtime_config, PolicyKind};
use copart_core::runtime::ConsolidationRuntime;
use copart_core::CoPartParams;
use copart_rdt::SimBackend;
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::{
    fnv1a64_update, Recorder, RingRecorder, TraceDecision, TraceEvent, FNV1A64_OFFSET,
};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

const EPOCHS: u32 = 80;

/// `(path, mix, digest)` — generated at the commit before the planner
/// seam refactor and unchanged by it.
const PINNED: &[(&str, &str, u64)] = &[
    ("copart", "h-both", 0x7b94737aa6604a37),
    ("cat-only", "h-both", 0xaf085561481f1b20),
    ("mba-only", "h-both", 0x57501137b55cc7da),
    ("greedy", "h-both", 0x7c74a70cbea91e6c),
    ("lfoc", "h-both", 0x776e3a5ab9403097),
    ("copart", "h-llc", 0xab7da3c7d0cd8346),
    ("cat-only", "h-llc", 0x54bb00af99668a15),
    ("mba-only", "h-llc", 0x2edd3d14dd0da274),
    ("greedy", "h-llc", 0xdf93ff26d5ba0aac),
    ("lfoc", "h-llc", 0x4b7e53eb69704288),
];

/// A ring the test keeps a handle to after the runtime takes ownership.
struct SharedRing(Arc<Mutex<RingRecorder>>);

impl Recorder for SharedRing {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().unwrap().record(event);
    }
}

/// The five planner paths: the three `Explore` configurations, the greedy
/// ablation of the matching step, and the LFOC clusterer.
fn paths() -> [(&'static str, PolicyKind, bool); 5] {
    [
        ("copart", PolicyKind::CoPart, true),
        ("cat-only", PolicyKind::CatOnly, true),
        ("mba-only", PolicyKind::MbaOnly, true),
        ("greedy", PolicyKind::CoPart, false),
        ("lfoc", PolicyKind::LfocCluster, true),
    ]
}

fn run(policy: PolicyKind, use_hr_matching: bool, kind: MixKind) -> Vec<TraceEvent> {
    let machine = MachineConfig::xeon_gold_6130();
    let mut backend = SimBackend::new(Machine::new(machine.clone()));
    let mut groups = Vec::new();
    for spec in WorkloadMix::build(kind, 4, machine.n_cores).specs() {
        let name = spec.name.clone();
        groups.push((backend.add_workload(spec.clone()).unwrap(), name));
    }
    let params = CoPartParams {
        use_hr_matching,
        ..CoPartParams::default()
    };
    let cfg = dynamic_runtime_config(
        &machine,
        groups.len(),
        &StreamReference::for_machine(&machine),
        policy,
        &params,
    );
    let mut rt = ConsolidationRuntime::new(backend, groups, cfg).unwrap();
    let ring = Arc::new(Mutex::new(RingRecorder::new(4096)));
    rt.set_recorder(Box::new(SharedRing(Arc::clone(&ring))));
    rt.profile().unwrap();
    rt.run_periods(EPOCHS).unwrap();
    let events = ring.lock().unwrap().events().cloned().collect();
    events
}

fn fnv1a(events: &[TraceEvent]) -> u64 {
    events.iter().fold(FNV1A64_OFFSET, |hash, e| {
        fnv1a64_update(fnv1a64_update(hash, e.to_json_line().as_bytes()), b"\n")
    })
}

#[test]
fn every_planner_path_reproduces_its_pinned_trace() {
    let bless = std::env::var("UPDATE_TRACE_DIGESTS").is_ok_and(|v| !v.is_empty() && v != "0");
    let mut settling_converges = 0usize;
    let mut got = Vec::new();
    for (mix_name, kind) in [("h-both", MixKind::HighBoth), ("h-llc", MixKind::HighLlc)] {
        for (path, policy, hr) in paths() {
            let events = run(policy, hr, kind);
            // 4 profiling probes + one event per period.
            assert_eq!(events.len(), 4 + EPOCHS as usize, "{path}/{mix_name}");
            settling_converges += events
                .iter()
                .filter(|e| e.decision == TraceDecision::Converged && e.proposed != e.applied)
                .count();
            got.push((path, mix_name, fnv1a(&events)));
        }
    }
    // The case the golden projection cannot see must actually occur.
    assert!(
        settling_converges > 0,
        "no run settled on a best-seen state different from its proposal"
    );
    if bless {
        for (path, mix, digest) in &got {
            println!("    (\"{path}\", \"{mix}\", {digest:#018x}),");
        }
        return;
    }
    assert_eq!(
        got, PINNED,
        "a planner path's trace changed (intentional? bless with UPDATE_TRACE_DIGESTS=1)"
    );
}
