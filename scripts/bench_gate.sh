#!/usr/bin/env bash
# Performance-regression gate for the CoPart reproduction.
#
# Runs the artifact-emitting benchmarks (explore_overhead, matching,
# cache_sim, persist) and the compare grid with BENCH_JSON_DIR set, then
# gates every checked-in baseline in crates/bench/baselines/ against the
# artifact this run produced, using `copart bench-report`:
#
#   - *_ns latencies may regress up to the tolerance ratio
#     (COPART_BENCH_TOLERANCE, default 3.0 — shared CI runners are
#     noisy; an order-of-magnitude blowup still fails);
#   - fields containing "allocs" are exact counts (baseline + 0.5);
#   - *_per_sec throughputs must stay above baseline / tolerance;
#   - string fields (schema, decision digests) must match exactly.
#
# Bless workflow — after an intentional perf or decision change:
#
#   UPDATE_BENCH=1 scripts/bench_gate.sh
#
# copies the fresh artifacts over the baselines; commit the diff and
# say why in the commit message. CI re-runs this script and uploads
# the fresh artifacts whether or not the gate passes.
#
# The gate judges only what this run produced: artifacts left in the
# output directory by an earlier session are deleted first, and the loop
# runs over the baselines, so a bench that stops emitting fails on its
# missing artifact instead of passing on a stale file. A fresh artifact
# with no baseline fails too, until it is blessed.
#
# BENCH_JSON_DIR overrides where fresh artifacts land (default
# target/bench). The script is std-toolchain only.

set -euo pipefail
cd "$(dirname "$0")/.."

# Absolute path: cargo bench runs the binaries with the *package*
# directory as cwd, so a relative BENCH_JSON_DIR would silently land
# under crates/bench/ and the gate would compare stale artifacts.
out_dir="${BENCH_JSON_DIR:-target/bench}"
case "$out_dir" in
/*) ;;
*) out_dir="$PWD/$out_dir" ;;
esac
baseline_dir="crates/bench/baselines"
benches=(explore_overhead matching cache_sim persist)

echo "==> running artifact benches into $out_dir"
mkdir -p "$out_dir"
rm -f "$out_dir"/BENCH_*.json
for b in "${benches[@]}"; do
    BENCH_JSON_DIR="$out_dir" cargo bench -q -p copart-bench --bench "$b" >/dev/null
done

# The head-to-head grid artifact: BENCH_compare.json's grid_digest is a
# string field, so the gate below holds the whole engine × scenario
# fairness grid byte-exact. The shape is fixed (never REPRO_FAST-scaled)
# and must stay in lockstep with scripts/compare.sh.
echo "==> running the compare grid into $out_dir"
BENCH_JSON_DIR="$out_dir" cargo run -q --release -p copart-cli -- \
    compare --seconds 6 --seed 42 --jobs 8 >/dev/null

shopt -s nullglob
artifacts=("$out_dir"/BENCH_*.json)
if [ "${#artifacts[@]}" -eq 0 ]; then
    echo "bench_gate: no BENCH_*.json produced in $out_dir" >&2
    exit 1
fi

# Absolute budget gate, independent of the relative baseline: CoPart's
# control epoch leaves roughly 1 ms for planning (DESIGN.md §13), and
# the fleet consolidates thousands of tenants, so the 4000-app planner
# p99 must stay inside that budget in absolute terms — a slow baseline
# must not grandfather a slow planner. COPART_P99_BUDGET_NS overrides
# the ceiling (nanoseconds).
budget_ns="${COPART_P99_BUDGET_NS:-1000000}"
epoch_artifact="$out_dir/BENCH_epoch.json"
if [ -f "$epoch_artifact" ]; then
    p99=$(sed -n 's/.*"scale_4000_plan_ns_p99":[[:space:]]*\([0-9][0-9]*\).*/\1/p' "$epoch_artifact")
    if [ -z "$p99" ]; then
        echo "bench_gate: scale_4000_plan_ns_p99 missing from $epoch_artifact" >&2
        exit 1
    fi
    if [ "$p99" -gt "$budget_ns" ]; then
        echo "bench_gate: FAILED — 4000-app plan p99 ${p99} ns exceeds the epoch budget (${budget_ns} ns)" >&2
        exit 1
    fi
    echo "bench_gate: 4000-app plan p99 ${p99} ns within the ${budget_ns} ns epoch budget"
else
    echo "bench_gate: $epoch_artifact not produced — budget gate has nothing to check" >&2
    exit 1
fi

if [ "${UPDATE_BENCH:-0}" = "1" ]; then
    mkdir -p "$baseline_dir"
    for f in "${artifacts[@]}"; do
        cp "$f" "$baseline_dir/$(basename "$f")"
        echo "blessed $baseline_dir/$(basename "$f")"
    done
    echo "bench_gate: baselines updated — commit the diff"
    exit 0
fi

status=0
for base in "$baseline_dir"/*.json; do
    f="$out_dir/$(basename "$base")"
    if [ ! -f "$f" ]; then
        echo "bench_gate: no fresh $(basename "$f") — its bench stopped emitting (or delete $base)" >&2
        status=1
        continue
    fi
    echo "==> gating $(basename "$f")"
    cargo run -q --release -p copart-cli -- bench-report \
        --current "$f" --baseline "$base" || status=1
done
for f in "${artifacts[@]}"; do
    if [ ! -f "$baseline_dir/$(basename "$f")" ]; then
        echo "bench_gate: missing baseline for $(basename "$f") (run UPDATE_BENCH=1 $0)" >&2
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "bench_gate: FAILED — see regressions above" >&2
    echo "bench_gate: if the change is intentional: UPDATE_BENCH=1 $0" >&2
    exit 1
fi
echo "bench_gate: all artifacts within baseline"
