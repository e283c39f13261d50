#!/usr/bin/env bash
# Compare gate: the head-to-head fairness harness end to end.
#
#   1. `copart compare` — every registered policy engine (EQ, ST,
#      CAT-only, MBA-only, CoPart, Utility, LFOC) × every compare
#      scenario (paper mixes, diurnal LC, flash-crowd LC, bully) — run
#      twice, once at --jobs 1 and once at --jobs 8: the per-cell JSONL
#      and the stdout table must both be byte-identical (`cmp`): the
#      grid determinism contract,
#   2. the JSONL must actually cover the full grid — one line per
#      (engine, scenario) cell, no engine or scenario silently dropped,
#   3. the LFOC clustering engine must survive fault injection:
#      `sim-run --policy lfoc --faults …` runs to completion (the
#      runtime lays out shared-cluster schemata through the validity
#      assertions), its decision trace checks out, and its metrics show
#      the cluster planner actually engaged,
#   4. `repro compare-engines` — the same grid through the same library
#      runner, EQ-normalized — and `repro compare-utility` — the Utility
#      comparator on the paper's sensitive mixes, planned from the
#      checked-in way curves — at smoke length (REPRO_FAST=1): each
#      stdout must be byte-identical at --jobs 1 and --jobs 8.
#
# The grid shape (--seconds, --seed) is fixed rather than REPRO_FAST-
# scaled: it is the grid tests/compare_grid.rs pins the digest of.
#
# Usage: compare.sh [debug|release]   (default release, matching CI)

set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-release}"
bindir="target/$profile"
build_flags=(-p copart-cli -p copart-experiments)
if [[ "$profile" == release ]]; then
    build_flags+=(--release)
fi
cargo build "${build_flags[@]}"

cmpdir="$(mktemp -d "${TMPDIR:-/tmp}/copart-compare.XXXXXX")"
trap 'rm -rf "$cmpdir"' EXIT

# Fixed shape — see the header comment.
seconds=6
seed=42

echo "==> compare: full engine x scenario grid (--jobs 1)"
"$bindir/copart" compare \
    --seconds "$seconds" --seed "$seed" --jobs 1 \
    --out "$cmpdir/j1.jsonl" >"$cmpdir/t1.txt"

echo "==> compare: the same grid at --jobs 8"
"$bindir/copart" compare \
    --seconds "$seconds" --seed "$seed" --jobs 8 \
    --out "$cmpdir/j8.jsonl" >"$cmpdir/t8.txt"

echo "==> compare: jobs-1 vs jobs-8 byte-identity (JSONL, table)"
cmp "$cmpdir/j1.jsonl" "$cmpdir/j8.jsonl" ||
    { echo "compare: JSONL differs between --jobs 1 and --jobs 8" >&2; exit 1; }
cmp "$cmpdir/t1.txt" "$cmpdir/t8.txt" ||
    { echo "compare: stdout table differs between --jobs 1 and --jobs 8" >&2; exit 1; }

echo "==> compare: the grid must cover every engine and every scenario"
for engine in EQ ST CAT-only MBA-only CoPart Utility LFOC; do
    grep -q "\"engine\":\"$engine\"" "$cmpdir/j1.jsonl" ||
        { echo "compare: engine $engine missing from the grid" >&2; exit 1; }
done
for scenario in h-both m-llc diurnal-lc flash-crowd-lc bully; do
    grep -q "\"scenario\":\"$scenario\"" "$cmpdir/j1.jsonl" ||
        { echo "compare: scenario $scenario missing from the grid" >&2; exit 1; }
done
cells=$(wc -l <"$cmpdir/j1.jsonl")
[ "$cells" -eq 35 ] ||
    { echo "compare: expected 35 grid cells, got $cells" >&2; exit 1; }

echo "==> compare: LFOC clustering under fault injection"
"$bindir/copart" sim-run --mix m-both --policy lfoc --seconds 30 \
    --faults seed=7,write=0.1,dropout=0.05 \
    --trace-out "$cmpdir/lfoc-faults.jsonl" --metrics >"$cmpdir/lfoc.txt"
"$bindir/copart" trace-check --path "$cmpdir/lfoc-faults.jsonl" --min-events 10
grep -Eq '^gauge +clusters = [1-9]' "$cmpdir/lfoc.txt" ||
    { echo "compare: lfoc run reports no cluster gauge — planner never engaged" >&2; exit 1; }
grep -Eq '^counter cluster_replans = [1-9]' "$cmpdir/lfoc.txt" ||
    { echo "compare: lfoc run performed no cluster replans under faults" >&2; exit 1; }

echo "==> compare: repro compare-engines at --jobs 1 vs --jobs 8"
REPRO_FAST=1 "$bindir/repro" --jobs 1 compare-engines >"$cmpdir/e1.txt"
REPRO_FAST=1 "$bindir/repro" --jobs 8 compare-engines >"$cmpdir/e8.txt"
cmp "$cmpdir/e1.txt" "$cmpdir/e8.txt" ||
    { echo "compare: repro compare-engines differs between --jobs 1 and --jobs 8" >&2; exit 1; }

echo "==> compare: repro compare-utility at --jobs 1 vs --jobs 8"
REPRO_FAST=1 "$bindir/repro" --jobs 1 compare-utility >"$cmpdir/u1.txt"
REPRO_FAST=1 "$bindir/repro" --jobs 8 compare-utility >"$cmpdir/u8.txt"
cmp "$cmpdir/u1.txt" "$cmpdir/u8.txt" ||
    { echo "compare: repro compare-utility differs between --jobs 1 and --jobs 8" >&2; exit 1; }

echo "compare: all gates passed"
