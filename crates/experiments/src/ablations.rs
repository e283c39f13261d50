//! Ablations of CoPart's design choices (DESIGN.md §6).
//!
//! Each harness runs CoPart and one degraded variant on the three highly
//! sensitive mixes and reports ground-truth unfairness side by side.

use copart_core::metrics::geomean;
use copart_core::policies::{self, EvalOptions};
use copart_core::CoPartParams;
use copart_workloads::{MixKind, WorkloadMix};

use crate::common::{default_opts, f3, Context, Table};

const KINDS: [MixKind; 3] = [MixKind::HighLlc, MixKind::HighBw, MixKind::HighBoth];

fn run_variants(title: &str, variants: &[(&str, CoPartParams)]) {
    let mut ctx = Context::new();
    let opts: EvalOptions = default_opts();
    let mut header: Vec<&str> = vec!["mix"];
    header.extend(variants.iter().map(|(n, _)| *n));
    let mut t = Table::new(&header);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    // Fan the (mix × variant) cells out on the parallel pool.
    let mixes: Vec<WorkloadMix> = KINDS
        .iter()
        .map(|&k| WorkloadMix::paper_default(k))
        .collect();
    for mix in &mixes {
        ctx.prewarm(&mix.specs());
    }
    let cells: Vec<(usize, usize)> = (0..KINDS.len())
        .flat_map(|ki| (0..variants.len()).map(move |vi| (ki, vi)))
        .collect();
    let ctx_ref = &ctx;
    let unf = copart_parallel::par_map_indexed(&cells, 1, |_, &(ki, vi)| {
        let specs = mixes[ki].specs();
        let full = ctx_ref.solo_full_shared(&specs);
        policies::evaluate_copart_with_params(
            &ctx_ref.machine,
            &specs,
            &full,
            &ctx_ref.stream,
            &variants[vi].1,
            &opts,
        )
        .unfairness
    });
    for (ki, kind) in KINDS.iter().enumerate() {
        let mut cells_row = vec![kind.label().to_string()];
        for (vi, s) in series.iter_mut().enumerate() {
            let u = unf[ki * variants.len() + vi];
            s.push(u.max(1e-6));
            cells_row.push(f3(u));
        }
        t.row(cells_row);
    }
    let mut cells = vec!["geomean".to_string()];
    for s in &series {
        cells.push(f3(geomean(s)));
    }
    t.row(cells);
    println!("{title}\n(absolute unfairness; lower is better)\n");
    t.print();
    println!();
}

/// HR matching (Algorithm 2) vs the greedy single-transfer allocator.
pub fn matching() {
    run_variants(
        "Ablation — Hospitals/Residents matching vs greedy reallocation",
        &[
            ("HR matching", CoPartParams::default()),
            (
                "greedy",
                CoPartParams {
                    use_hr_matching: false,
                    ..CoPartParams::default()
                },
            ),
        ],
    );
}

/// The §5.3 cross-resource FSM rule on vs off.
pub fn fsm_awareness() {
    run_variants(
        "Ablation — cross-resource FSM awareness",
        &[
            ("aware (paper)", CoPartParams::default()),
            (
                "unaware",
                CoPartParams {
                    cross_resource_awareness: false,
                    ..CoPartParams::default()
                },
            ),
        ],
    );
}

/// θ-retry random neighbor restarts on vs off.
pub fn retry() {
    run_variants(
        "Ablation — θ-retry random restarts",
        &[
            ("θ = 3 (paper)", CoPartParams::default()),
            (
                "θ = 0",
                CoPartParams {
                    theta_retries: 0,
                    ..CoPartParams::default()
                },
            ),
        ],
    );
}

/// The next-line prefetcher on vs off: solo anchor shifts and the H-Both
/// fairness comparison.
pub fn prefetch() {
    use copart_core::policies::{self, PolicyKind};
    use copart_sim::{MachineConfig, MbaLevel};
    use copart_workloads::stream::StreamReference;
    use copart_workloads::{measure, Benchmark};

    println!("Ablation — next-line hardware prefetcher\n");

    let base = MachineConfig::xeon_gold_6130();
    let mut with_pf = base.clone();
    with_pf.prefetch_next_line = true;

    let mut t = Table::new(&["bench", "IPS (no PF)", "IPS (PF)", "speedup"]);
    for b in [
        Benchmark::WaterNsquared,
        Benchmark::OceanCp,
        Benchmark::Cg,
        Benchmark::Sp,
    ] {
        let spec = b.spec();
        let off = measure::measure_ips(&base, &spec, base.llc_ways, MbaLevel::MAX);
        let on = measure::measure_ips(&with_pf, &spec, base.llc_ways, MbaLevel::MAX);
        t.row(vec![
            b.table2().short.to_string(),
            format!("{off:.3e}"),
            format!("{on:.3e}"),
            format!("{:.3}", on / off),
        ]);
    }
    t.print();

    // Does the controller still win with prefetching enabled?
    let mix = WorkloadMix::paper_default(MixKind::HighBoth);
    let specs = mix.specs();
    let opts = default_opts();
    for (label, cfg) in [("prefetch off", &base), ("prefetch on", &with_pf)] {
        let full = policies::solo_full_ips(cfg, &specs);
        let stream = StreamReference::for_machine(cfg);
        let eq = policies::evaluate_policy(cfg, &specs, &full, &stream, PolicyKind::Equal, &opts);
        let co = policies::evaluate_policy(cfg, &specs, &full, &stream, PolicyKind::CoPart, &opts);
        println!(
            "\nH-Both with {label}: EQ unfairness {:.4}, CoPart {:.4} ({:.0}% better)",
            eq.unfairness,
            co.unfairness,
            (1.0 - co.unfairness / eq.unfairness.max(1e-9)) * 100.0
        );
    }
    println!(
        "\n(The calibrated models assume the prefetcher's average benefit is folded\n\
         into their timing constants, so the paper anchors are pinned with it off.)"
    );
}

/// Extra comparator: utility-based static LLC partitioning (UCP/dCat
/// style, the paper's closest related work) vs CoPart across the
/// sensitive mixes.
pub fn utility() {
    use copart_core::policies::PolicyKind;

    let mut ctx = Context::new();
    let opts = default_opts();
    println!("Comparator — utility-based LLC partitioning (UCP/dCat-style) vs CoPart");
    println!("(absolute unfairness; lower is better)\n");
    let mut t = Table::new(&["mix", "EQ", "Utility", "CoPart"]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); 3];
    const POLICIES: [PolicyKind; 3] = [PolicyKind::Equal, PolicyKind::Utility, PolicyKind::CoPart];
    let mixes: Vec<WorkloadMix> = KINDS
        .iter()
        .map(|&k| WorkloadMix::paper_default(k))
        .collect();
    for mix in &mixes {
        ctx.prewarm(&mix.specs());
    }
    let cells: Vec<(usize, usize)> = (0..KINDS.len())
        .flat_map(|ki| (0..POLICIES.len()).map(move |pi| (ki, pi)))
        .collect();
    let ctx_ref = &ctx;
    let unf = copart_parallel::par_map_indexed(&cells, 1, |_, &(ki, pi)| {
        ctx_ref
            .run_policy_shared(&mixes[ki], POLICIES[pi], &opts)
            .unfairness
    });
    for (ki, kind) in KINDS.iter().enumerate() {
        let mut row = vec![kind.label().to_string()];
        for (pi, s) in series.iter_mut().enumerate() {
            let u = unf[ki * POLICIES.len() + pi];
            s.push(u.max(1e-6));
            row.push(f3(u));
        }
        t.row(row);
    }
    let mut cells = vec!["geomean".to_string()];
    for s in &series {
        cells.push(f3(geomean(s)));
    }
    t.row(cells);
    t.print();
    println!(
        "\n(Utility maximizes hit *throughput*, not fairness: it happily starves a\n\
         low-utility application — the dCat/UCP weakness CoPart's slowdown-driven\n\
         matching avoids. It also ignores memory bandwidth entirely.)"
    );
}
