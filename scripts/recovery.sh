#!/usr/bin/env bash
# Crash-recovery gate: kill a persisted consolidation at an epoch
# boundary, resume it from the snapshot + event log, and require the
# stitched trace to be byte-identical to an uninterrupted run (see
# DESIGN.md §16).
#
#   1. an uninterrupted `copart sim-run --state-dir` reference run,
#   2. the same scenario with --kill-at-epoch K, then --resume; the
#      resume must report a recovery and finish the remaining epochs,
#   3. `copart trace-check --reference` proves the resumed trace is
#      byte-identical to the reference (plus the usual invariants),
#   4. the same kill/resume loop under a fault plan: recovery must
#      restore the fault-stream positions too, or the continuation
#      diverges,
#   5. the snapshot's backend tag follows the fault plan ("sim" without
#      one, "faulty" with one) although both runs sit behind the same
#      decorator — which is what lets a fault-free state directory
#      written before the builds were unified still restore.
#
# Usage: recovery.sh [debug|release]   (default release, matching CI)

set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-release}"
bindir="target/$profile"
build_flags=(-p copart-cli)
if [[ "$profile" == release ]]; then
    build_flags+=(--release)
fi
cargo build "${build_flags[@]}"

recdir="$(mktemp -d "${TMPDIR:-/tmp}/copart-recovery.XXXXXX")"
trap 'rm -rf "$recdir"' EXIT

scenario=(--mix h-both --policy copart --apps 4 --epochs 24 --snapshot-every 5)

echo "==> recovery: uninterrupted reference run (24 epochs)"
"$bindir/copart" sim-run "${scenario[@]}" --metrics \
    --state-dir "$recdir/ref" | tee "$recdir/ref.txt"
grep -q "snapshots_written" "$recdir/ref.txt" ||
    { echo "recovery: reference run cut no snapshots" >&2; exit 1; }

echo "==> recovery: kill at epoch 11, then resume"
"$bindir/copart" sim-run "${scenario[@]}" --kill-at-epoch 11 \
    --state-dir "$recdir/kr" | tee "$recdir/killed.txt"
grep -q "killed at epoch 11" "$recdir/killed.txt" ||
    { echo "recovery: the kill did not land at epoch 11" >&2; exit 1; }
"$bindir/copart" sim-run "${scenario[@]}" --resume --metrics \
    --state-dir "$recdir/kr" | tee "$recdir/resumed.txt"
grep -q "recoveries" "$recdir/resumed.txt" ||
    { echo "recovery: the resume did not report a recovery" >&2; exit 1; }

echo "==> recovery: resumed trace is byte-identical to the reference"
"$bindir/copart" trace-check --path "$recdir/kr/trace.jsonl" \
    --min-events 1 --reference "$recdir/ref/trace.jsonl"

faults="seed=7,write=0.1,dropout=0.05"

echo "==> recovery: faulted reference run ($faults)"
"$bindir/copart" sim-run "${scenario[@]}" --faults "$faults" \
    --state-dir "$recdir/fref" --metrics | tee "$recdir/fref.txt"
grep -q "degraded_epochs" "$recdir/fref.txt" ||
    { echo "recovery: no degraded epochs under a 5% dropout plan" >&2; exit 1; }

echo "==> recovery: faulted kill at epoch 11, then resume"
"$bindir/copart" sim-run "${scenario[@]}" --faults "$faults" \
    --kill-at-epoch 11 --state-dir "$recdir/fkr" >/dev/null
"$bindir/copart" sim-run "${scenario[@]}" --faults "$faults" \
    --resume --state-dir "$recdir/fkr" >/dev/null

echo "==> recovery: faulted resumed trace is byte-identical too"
"$bindir/copart" trace-check --path "$recdir/fkr/trace.jsonl" \
    --min-events 1 --reference "$recdir/fref/trace.jsonl"

echo "==> recovery: the snapshot backend tag follows the fault plan"
newest() { ls "$1"/snap-*.json | sort | tail -n 1; }
grep -q '"kind":"sim"' "$(newest "$recdir/ref")" ||
    { echo "recovery: a fault-free snapshot is not tagged sim" >&2; exit 1; }
grep -q '"kind":"faulty"' "$(newest "$recdir/fref")" ||
    { echo "recovery: a fault-injected snapshot is not tagged faulty" >&2; exit 1; }

echo "recovery: kill/resume is byte-identical, clean and faulted"
