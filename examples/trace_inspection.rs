//! Replays a JSONL decision trace and prints a convergence report: phase
//! spans, decision counts, the unfairness trajectory, and the final
//! applied partition — the offline-analysis loop the observability layer
//! exists for.
//!
//! ```sh
//! # Inspect a trace produced by the CLI or the experiment harness:
//! cargo run --release --example trace_inspection path/to/trace.jsonl
//!
//! # Or let the example record one itself (30 s CoPart run on H-LLC):
//! cargo run --release --example trace_inspection
//! ```

use copart_core::policies::{self, EvalOptions, PolicyKind};
use copart_core::CoPartParams;
use copart_sim::MachineConfig;
use copart_telemetry::{read_trace_file, JsonlRecorder, TraceDecision, TraceEvent, TracePhase};
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => record_demo_trace(),
    };
    let events = match read_trace_file(&path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("cannot read trace {path}: {e}");
            std::process::exit(1);
        }
    };
    if events.is_empty() {
        eprintln!("trace {path} holds no events");
        std::process::exit(1);
    }
    report(&path, &events);
}

/// Records a fresh demonstration trace and returns its path.
fn record_demo_trace() -> String {
    let path = std::env::temp_dir().join("copart-trace-inspection.jsonl");
    let path = path.to_string_lossy().into_owned();
    eprintln!("no trace given; recording a CoPart run on H-LLC to {path}");

    let machine_cfg = MachineConfig::xeon_gold_6130();
    let mix = WorkloadMix::paper_default(MixKind::HighLlc);
    let specs = mix.specs();
    let full = policies::solo_full_ips(&machine_cfg, &specs);
    let stream = StreamReference::for_machine(&machine_cfg);
    let opts = EvalOptions::default();
    let params = CoPartParams {
        seed: opts.seed,
        ..CoPartParams::default()
    };
    let recorder = Box::new(JsonlRecorder::create(&path).expect("temp file is writable"));
    let (_result, mut recorder, _metrics) = policies::evaluate(
        &machine_cfg,
        &specs,
        &full,
        &stream,
        PolicyKind::CoPart,
        &params,
        &opts,
        recorder,
    );
    recorder.flush().expect("trace flushes");
    path
}

fn report(path: &str, events: &[TraceEvent]) {
    println!("trace {path}: {} events", events.len());

    // Phase spans in first-occurrence order.
    let mut spans: Vec<(TracePhase, u64, u64)> = Vec::new();
    for e in events {
        match spans.last_mut() {
            Some((phase, _, last)) if *phase == e.phase => *last = e.epoch,
            _ => spans.push((e.phase, e.epoch, e.epoch)),
        }
    }
    println!("\nphase spans (Figure 10 order):");
    for (phase, first, last) in &spans {
        println!(
            "  {:<10} epochs {first:>4}..={last:<4} ({} epochs)",
            phase.as_str(),
            last - first + 1
        );
    }

    // Decision census.
    let count = |d: TraceDecision| events.iter().filter(|e| e.decision == d).count();
    println!("\ndecisions:");
    for d in [
        TraceDecision::Profiled,
        TraceDecision::Transfer,
        TraceDecision::ThetaRetry,
        TraceDecision::Converged,
        TraceDecision::Monitor,
        TraceDecision::ReExplore,
    ] {
        let n = count(d);
        if n > 0 {
            println!("  {:<12} {n}", d.as_str());
        }
    }
    let rounds: u64 = events.iter().map(|e| u64::from(e.matching_rounds)).sum();
    println!("  matching rounds (total): {rounds}");

    // Unfairness trajectory over the control epochs (profiling epochs
    // report 0 by construction, so skip them).
    let control: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.phase != TracePhase::Profiling)
        .collect();
    if let (Some(first), Some(last)) = (control.first(), control.last()) {
        let min = control
            .iter()
            .map(|e| e.unfairness)
            .fold(f64::INFINITY, f64::min);
        println!("\nunfairness (Eq 2, sigma/mu of slowdowns):");
        println!("  first control epoch: {:.4}", first.unfairness);
        println!("  minimum:             {min:.4}");
        println!("  final:               {:.4}", last.unfairness);
        if let Some(conv) = control
            .iter()
            .find(|e| e.decision == TraceDecision::Converged)
        {
            println!("  first convergence at epoch {}", conv.epoch);
        } else {
            println!("  (never converged within this trace)");
        }

        println!("\nfinal applied partition:");
        for (app, alloc) in last.apps.iter().zip(&last.applied) {
            println!(
                "  {:<16} {:>2} ways, MBA {:>3}%  (slowdown {:.3}, LLC {}, MBA {})",
                app.name,
                alloc.ways,
                alloc.mba_percent,
                app.slowdown,
                app.llc_state.as_str(),
                app.mba_state.as_str()
            );
        }
    }
}
