//! The parallel sweep engine's determinism contract, end to end: the
//! ST offline search and a Figure 12-style traced sweep must produce
//! byte-identical results at `--jobs 1` and `--jobs 8`.
//!
//! Both tests drive the *global* job knob (`copart_parallel::set_jobs`),
//! so they serialize on a process-wide lock — the cargo test harness
//! runs tests in this binary concurrently otherwise.

use std::fs;
use std::path::PathBuf;
use std::sync::Mutex;

use copart_core::policies::{self, static_search, EvalOptions, EvalResult, PolicyKind};
use copart_core::runtime::ConsolidationRuntime;
use copart_core::state::WaysBudget;
use copart_core::CoPartParams;
use copart_experiments::{Grid, Row};
use copart_faults::{FaultPlan, FaultTrigger, FaultyBackend};
use copart_rdt::{ClosId, RdtBackend, SimBackend};
use copart_sim::{Machine, MachineConfig};
use copart_telemetry::JsonlRecorder;
use copart_workloads::stream::StreamReference;
use copart_workloads::{MixKind, WorkloadMix};

static JOBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with the global worker count pinned to `jobs`, restoring
/// the default afterwards even if `f` panics midway.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            copart_parallel::set_jobs(None);
        }
    }
    let _reset = Reset;
    copart_parallel::set_jobs(Some(jobs));
    f()
}

/// Short search options — the contract is exact equality, so the probe
/// lengths only need to be long enough to exercise the parallel paths.
fn short_opts() -> EvalOptions {
    EvalOptions {
        total_periods: 40,
        measure_periods: 20,
        static_candidates: 8,
        static_probe_periods: 6,
        ..EvalOptions::default()
    }
}

#[test]
fn static_search_identical_at_1_and_8_jobs() {
    let machine = MachineConfig::xeon_gold_6130();
    let specs = WorkloadMix::paper_default(MixKind::HighBoth).specs();
    let full = policies::solo_full_ips(&machine, &specs);
    let budget = WaysBudget::full_machine(machine.llc_ways);
    let opts = short_opts();

    let serial = with_jobs(1, || static_search(&machine, &specs, &full, &budget, &opts));
    let parallel = with_jobs(8, || static_search(&machine, &specs, &full, &budget, &opts));
    assert_eq!(
        serial, parallel,
        "static_search must choose the same state at --jobs 1 and --jobs 8"
    );
}

/// The production fan-out `repro fig12` runs: the library grid runner,
/// with its trace hook writing each CoPart cell's JSONL decision trace.
#[test]
fn fig12_sweep_traces_identical_at_1_and_8_jobs() {
    let kinds = [MixKind::HighLlc, MixKind::HighBw, MixKind::HighBoth];
    let machine = MachineConfig::xeon_gold_6130();
    let grid = Grid::policies(
        kinds.iter().map(|&k| Row::mix(&machine, k, 4)).collect(),
        &[PolicyKind::CoPart],
        short_opts(),
    );
    let dir = std::env::temp_dir().join(format!("copart-par-det-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");

    let run = |jobs: usize| -> (Vec<Vec<EvalResult>>, Vec<PathBuf>) {
        let paths: Vec<PathBuf> = kinds
            .iter()
            .map(|k| dir.join(format!("fig12_{}_j{jobs}.jsonl", k.wire_name())))
            .collect();
        let results = with_jobs(jobs, || {
            grid.run_traced(&|row, _| {
                Some(Box::new(
                    JsonlRecorder::create(&paths[row]).expect("create trace file"),
                ))
            })
        });
        (results, paths)
    };

    let (serial_results, serial_paths) = run(1);
    let (parallel_results, parallel_paths) = run(8);

    assert_eq!(
        serial_results, parallel_results,
        "fig12 sweep results must match between --jobs 1 and --jobs 8"
    );
    for (a, b) in serial_paths.iter().zip(&parallel_paths) {
        let bytes_a = fs::read(a).expect("read serial trace");
        let bytes_b = fs::read(b).expect("read parallel trace");
        assert!(!bytes_a.is_empty(), "trace {} is empty", a.display());
        assert_eq!(
            bytes_a,
            bytes_b,
            "JSONL traces diverge between job counts: {} vs {}",
            a.display(),
            b.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The planner-scale harness at 1000 applications: the decision digest
/// (an FNV-1a fold over every epoch's decision and resulting
/// allocation) must be identical whether the shards run serially or on
/// eight workers, and identical run-to-run. Timing fields are excluded
/// — only the decision-relevant outputs are compared.
#[test]
fn planner_scale_digests_identical_at_1_and_8_jobs() {
    use copart_core::scale::{run_planner_scale, ScaleConfig, ScaleReport};

    // Decision-relevant projection of a report (drops wall-clock fields).
    fn decisions(r: &ScaleReport) -> (u64, u64, u64, u64, u64, u64, u64) {
        (
            r.digest,
            r.transfers,
            r.theta_retries,
            r.converges,
            r.matching_rounds,
            r.role_cache_hits,
            r.role_cache_misses,
        )
    }

    let cfgs: Vec<ScaleConfig> = (0..4u64)
        .map(|i| ScaleConfig::new(1000, 10, 0xA11C0 + i))
        .collect();
    let serial: Vec<_> = with_jobs(1, || copart_parallel::par_map(&cfgs, run_planner_scale))
        .iter()
        .map(decisions)
        .collect();
    let parallel: Vec<_> = with_jobs(8, || copart_parallel::par_map(&cfgs, run_planner_scale))
        .iter()
        .map(decisions)
        .collect();
    assert_eq!(
        serial, parallel,
        "1000-app planner-scale decisions must match between --jobs 1 and --jobs 8"
    );
    // The digest is not degenerate: distinct seeds take distinct paths.
    for w in serial.windows(2) {
        assert_ne!(w[0].0, w[1].0, "digests must differ across seeds");
    }
}

/// The planner-scale outputs themselves, not just their agreement across
/// job counts: 1000 applications × 200 epochs at seed 42, for the uniform
/// population, the zipf fleet mix, a full redraw every epoch and no
/// redraw at all (every plan after the first reuses every cached order),
/// plus the uniform population at 4000 applications, and the two
/// 50-epoch configurations the `explore_overhead` bench times (their
/// digests and round counts were that bench's baseline). The constants
/// were computed before the matching kernel became a serial dictatorship (the
/// 4000-app and churn-0.0 rows and the role-cache counters before its
/// orders became delta-maintained); any change to a digest, round count
/// or cache counter is a behaviour change of the planner, never a
/// re-bless.
#[test]
fn planner_scale_outputs_are_pinned() {
    use copart_core::scale::{run_planner_scale, ScaleConfig, ScalePopulation};

    let uniform = ScaleConfig::new(1000, 200, 42);
    let fleet = ScaleConfig {
        population: ScalePopulation::FleetMix,
        ..uniform.clone()
    };
    let churn = ScaleConfig {
        churn: 1.0,
        ..uniform.clone()
    };
    let still = ScaleConfig {
        churn: 0.0,
        ..uniform.clone()
    };
    let wide = ScaleConfig::new(4000, 200, 42);
    let bench_1000 = ScaleConfig::new(1000, 50, 0x00C0_FA12);
    let bench_4000 = ScaleConfig::new(4000, 50, 0x00C0_FA12);
    // (digest, matching rounds, role-cache hits, role-cache misses)
    for (name, cfg, pinned) in [
        (
            "uniform",
            uniform,
            (0xf76f_a32c_9cb7_bb72, 134_015, 194_620, 5_380),
        ),
        (
            "fleet-mix",
            fleet,
            (0x2e88_617f_e34e_f2ac, 135_632, 195_132, 4_868),
        ),
        (
            "churn 1.0",
            churn,
            (0xf764_5897_3f58_5de8, 118_966, 79_979, 120_021),
        ),
        (
            "churn 0.0",
            still,
            (0xcdf3_e98c_c06c_aed6, 138_564, 198_466, 1_534),
        ),
        (
            "4000 apps",
            wide,
            (0xa793_8790_669d_25d6, 515_177, 778_695, 21_305),
        ),
        (
            "bench 1000 apps",
            bench_1000,
            (0xebd7_c059_8642_8048, 36_264, 47_628, 2_372),
        ),
        (
            "bench 4000 apps",
            bench_4000,
            (0x2dd1_63bf_40de_87cf, 133_192, 190_553, 9_447),
        ),
    ] {
        let r = run_planner_scale(&cfg);
        assert_eq!(
            (
                r.digest,
                r.matching_rounds,
                r.role_cache_hits,
                r.role_cache_misses
            ),
            pinned,
            "{name}: digest {:#x}, {} rounds, role cache {} hits / {} misses",
            r.digest,
            r.matching_rounds,
            r.role_cache_hits,
            r.role_cache_misses
        );
    }
}

/// The fault plan the cross-jobs contract is checked under: every
/// transient site armed. (No vanish — group disappearance aborts whole
/// profiling passes, which this test is not about; `fault_soak`
/// exercises that path.)
fn sweep_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC0FA,
        counter_dropout: FaultTrigger::Prob { p: 0.05 },
        write_cbm: FaultTrigger::Prob { p: 0.1 },
        write_mba: FaultTrigger::Prob { p: 0.1 },
        vanish: FaultTrigger::Never,
        clock_stall: FaultTrigger::Prob { p: 0.02 },
    }
}

/// A traced CoPart consolidation on `kind` with the simulator wrapped in
/// the `copart-faults` injector — the controller sees dropouts, busy
/// writes and clock stalls while ground truth reads the inner machine.
fn faulty_traced_cell(kind: MixKind, path: &std::path::Path, opts: &EvalOptions) -> EvalResult {
    let machine = MachineConfig::xeon_gold_6130();
    let mix = WorkloadMix::paper_default(kind);
    let specs = mix.specs();
    let full = policies::solo_full_ips(&machine, &specs);
    let stream = StreamReference::for_machine(&machine);
    let params = CoPartParams {
        seed: opts.seed,
        ..CoPartParams::default()
    };

    let mut backend = SimBackend::new(Machine::new(MachineConfig::xeon_gold_6130()));
    let named: Vec<(ClosId, String)> = specs
        .iter()
        .map(|s| {
            let g = backend.add_workload(s.clone()).expect("mix fits");
            (g, s.name.clone())
        })
        .collect();
    let groups: Vec<ClosId> = named.iter().map(|(g, _)| *g).collect();
    let cfg = policies::dynamic_runtime_config(
        &machine,
        specs.len(),
        &stream,
        PolicyKind::CoPart,
        &params,
    );
    let faulty = FaultyBackend::new(backend, sweep_plan());
    let mut runtime =
        ConsolidationRuntime::new(faulty, named, cfg).expect("transient faults are retried");
    runtime.set_recorder(Box::new(
        JsonlRecorder::create(path).expect("create trace file"),
    ));
    runtime.profile().expect("transient faults are retried");
    let (result, mut runtime) = policies::evaluate_runtime_traced(
        runtime,
        &groups,
        &full,
        PolicyKind::CoPart,
        opts,
        |b, g| b.inner_mut().read_counters(g).expect("group is live"),
    )
    .expect("periods survive transient faults");
    assert!(
        runtime.backend().stats().total() > 0,
        "the sweep plan should actually inject"
    );
    runtime
        .set_recorder(Box::new(copart_telemetry::NullRecorder))
        .flush()
        .expect("flush trace");
    result
}

#[test]
fn faulty_sweep_traces_identical_at_1_and_8_jobs() {
    let kinds = [MixKind::HighLlc, MixKind::HighBoth];
    let opts = short_opts();
    let dir = std::env::temp_dir().join(format!("copart-fault-det-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create scratch dir");

    let run = |jobs: usize| -> (Vec<EvalResult>, Vec<PathBuf>) {
        let paths: Vec<PathBuf> = kinds
            .iter()
            .map(|k| dir.join(format!("faulty_{}_j{jobs}.jsonl", k.label())))
            .collect();
        let results = with_jobs(jobs, || {
            copart_parallel::par_map(&kinds, |&kind| {
                let i = kinds.iter().position(|&k| k == kind).unwrap();
                faulty_traced_cell(kind, &paths[i], &opts)
            })
        });
        (results, paths)
    };

    let (serial_results, serial_paths) = run(1);
    let (parallel_results, parallel_paths) = run(8);

    // A fully stalled epoch measures no work, so its timeline entry is
    // NaN — compare the Debug rendering, where NaN equals NaN, instead
    // of float equality.
    assert_eq!(
        format!("{serial_results:?}"),
        format!("{parallel_results:?}"),
        "faulty sweep results must match between --jobs 1 and --jobs 8"
    );
    for (a, b) in serial_paths.iter().zip(&parallel_paths) {
        let bytes_a = fs::read(a).expect("read serial trace");
        let bytes_b = fs::read(b).expect("read parallel trace");
        assert!(!bytes_a.is_empty(), "trace {} is empty", a.display());
        assert!(
            String::from_utf8_lossy(&bytes_a).contains("\"fault\""),
            "trace {} never recorded a fault sample",
            a.display()
        );
        assert_eq!(
            bytes_a,
            bytes_b,
            "fault injection diverges between job counts: {} vs {}",
            a.display(),
            b.display()
        );
    }
    let _ = fs::remove_dir_all(&dir);
}
