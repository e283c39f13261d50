#!/usr/bin/env bash
# Fleet gate: the multi-node consolidation layer end to end.
#
#   1. a 64-node × 500-tenant churn run with per-node fault scoping,
#      twice — once at --jobs 1, once at --jobs 8 — and the two fleet
#      traces, migration-ticket trails, and metrics documents must be
#      byte-identical (`cmp`): the fleet determinism contract,
#   2. `copart trace-check --fleet` replays the trace structurally
#      (capacity bounds, placement/departure/migration consistency,
#      per-epoch summaries),
#   3. the run must contain at least one state-preserving migration —
#      a fleet gate that never migrates gates nothing,
#   4. the 1000-node × 600-tenant wide fleet under the same contract:
#      --jobs 1 and --jobs 8 must agree byte for byte on the trace, the
#      tickets, the metrics document and every node's snapshot, and the
#      trace must check out structurally,
#   5. `--state-dir`: every live node leaves a readable PR-8 snapshot.
#
# REPRO_FAST=1 shrinks the shapes for the inner loop (8×60 and 128×80).
#
# Usage: fleet.sh [debug|release]   (default release, matching CI)

set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-release}"
bindir="target/$profile"
build_flags=(-p copart-cli)
if [[ "$profile" == release ]]; then
    build_flags+=(--release)
fi
cargo build "${build_flags[@]}"

fleetdir="$(mktemp -d "${TMPDIR:-/tmp}/copart-fleet.XXXXXX")"
trap 'rm -rf "$fleetdir"' EXIT

if [[ "${REPRO_FAST:-0}" == 1 ]]; then
    nodes=8 apps=60 epochs=24 wide_nodes=128 wide_apps=80 wide_epochs=8
else
    nodes=64 apps=500 epochs=48 wide_nodes=1000 wide_apps=600 wide_epochs=12
fi
# same_at_both_job_counts <label> <jobs-1 stem> <jobs-8 stem>: the two
# runs' trace, ticket trail and report must be byte-identical.
same_at_both_job_counts() {
    local what suffix
    for what in "trace:.jsonl" "migration tickets:-tickets.jsonl" "report/metrics:.txt"; do
        suffix="${what#*:}"
        cmp "$fleetdir/$2$suffix" "$fleetdir/$3$suffix" ||
            { echo "fleet: $1${what%%:*} differs between --jobs 1 and --jobs 8" >&2; exit 1; }
    done
}

seed=1001
faults="seed=5,dropout=1/61,write=0.01,nodes=every/3"
# Aggressive rebalancing so the gate reliably covers the migration path.
rebalance=(--rebalance-threshold 0.005 --rebalance-patience 1)

echo "==> fleet: ${nodes}×${apps} churn run with per-node faults (--jobs 1)"
"$bindir/copart" fleet-run --nodes "$nodes" --apps "$apps" --seed "$seed" \
    --epochs "$epochs" --faults "$faults" "${rebalance[@]}" --jobs 1 \
    --trace-out "$fleetdir/j1.jsonl" --tickets-out "$fleetdir/j1-tickets.jsonl" \
    --metrics >"$fleetdir/j1.txt"

echo "==> fleet: the same fleet at --jobs 8"
"$bindir/copart" fleet-run --nodes "$nodes" --apps "$apps" --seed "$seed" \
    --epochs "$epochs" --faults "$faults" "${rebalance[@]}" --jobs 8 \
    --trace-out "$fleetdir/j8.jsonl" --tickets-out "$fleetdir/j8-tickets.jsonl" \
    --metrics >"$fleetdir/j8.txt"

echo "==> fleet: jobs-1 vs jobs-8 byte-identity (trace, tickets, metrics)"
same_at_both_job_counts "" j1 j8

echo "==> fleet: structural trace check"
"$bindir/copart" trace-check --fleet --path "$fleetdir/j1.jsonl" --min-events 10

echo "==> fleet: the run must cover the migration path"
grep -q '"kind":"migration"' "$fleetdir/j1.jsonl" ||
    { echo "fleet: no migration events — the gate covered nothing" >&2; exit 1; }
[ -s "$fleetdir/j1-tickets.jsonl" ] ||
    { echo "fleet: migration happened but left no ticket" >&2; exit 1; }

for jobs in 1 8; do
    echo "==> fleet: ${wide_nodes}-node wide fleet with node snapshots (--jobs $jobs)"
    "$bindir/copart" fleet-run --nodes "$wide_nodes" --apps "$wide_apps" \
        --seed 77 --epochs "$wide_epochs" --jobs "$jobs" \
        --state-dir "$fleetdir/state-j$jobs" --trace-out "$fleetdir/wide-j$jobs.jsonl" \
        --tickets-out "$fleetdir/wide-j$jobs-tickets.jsonl" --metrics |
        sed "s|$fleetdir/state-j$jobs|STATE|" >"$fleetdir/wide-j$jobs.txt"
done

echo "==> fleet: wide jobs-1 vs jobs-8 byte-identity (trace, tickets, metrics, snapshots)"
same_at_both_job_counts "wide " wide-j1 wide-j8
diff -r "$fleetdir/state-j1" "$fleetdir/state-j8" >/dev/null ||
    { echo "fleet: node snapshots differ between --jobs 1 and --jobs 8" >&2; exit 1; }

"$bindir/copart" trace-check --fleet --path "$fleetdir/wide-j1.jsonl"
grep -q "node snapshots in" "$fleetdir/wide-j1.txt" ||
    { echo "fleet: wide fleet wrote no node snapshots" >&2; exit 1; }
snapdirs=$(find "$fleetdir/state-j1" -name 'snap-*.json' | wc -l)
[ "$snapdirs" -gt 0 ] ||
    { echo "fleet: state dir holds no snap-*.json files" >&2; exit 1; }
echo "    $snapdirs node snapshots on disk"

echo "fleet: all gates passed"
