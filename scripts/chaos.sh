#!/usr/bin/env bash
# Chaos gate: run the consolidation under deterministic fault injection
# and prove the resilience layer holds (see DESIGN.md §11).
#
#   1. the fault soak + faulty-determinism test binaries (REPRO_FAST
#      shrinks the seed sweep; the plans are seeded, so there is no
#      flakiness — a failure is a regression),
#   2. `copart sim-run --faults` smoke: transient schemata writes +
#      counter dropouts on a 4-app mix, with a JSONL trace,
#   3. `copart trace-check` over the degraded trace (the fault field
#      must not break any trace invariant),
#   4. the transparency gate: every scenario runs behind the fault
#      decorator, so a plan that can never fire must leave the trace
#      byte-identical to a run without `--faults`.
#
# Usage: chaos.sh [debug|release]   (default release, matching CI)

set -euo pipefail
cd "$(dirname "$0")/.."

profile="${1:-release}"
bindir="target/$profile"
profile_flags=()
if [[ "$profile" == release ]]; then
    profile_flags+=(--release)
fi

echo "==> chaos: fault soak + faulty parallel determinism"
cargo test -q "${profile_flags[@]}" --test fault_soak --test parallel_determinism

echo "==> chaos: golden degraded-mode trace"
cargo test -q "${profile_flags[@]}" -p copart-cli --test golden_degraded

cargo build "${profile_flags[@]}" -p copart-cli

chaosdir="$(mktemp -d "${TMPDIR:-/tmp}/copart-chaos.XXXXXX")"
trap 'rm -rf "$chaosdir"' EXIT

echo "==> chaos: copart sim-run --faults (10% busy writes, 5% dropouts)"
"$bindir/copart" sim-run --mix h-llc --policy copart --apps 4 \
    --seconds 20 --faults "seed=7,write=0.1,dropout=0.05" --metrics \
    --trace-out "$chaosdir/faulty.jsonl" | tee "$chaosdir/metrics.txt"

grep -q "fault_write_retries" "$chaosdir/metrics.txt" ||
    { echo "chaos: no write retries under a 10% write-fault plan" >&2; exit 1; }
grep -q "degraded_epochs" "$chaosdir/metrics.txt" ||
    { echo "chaos: no degraded epochs under a 5% dropout plan" >&2; exit 1; }

echo "==> chaos: trace-check over the degraded trace"
"$bindir/copart" trace-check --path "$chaosdir/faulty.jsonl" --min-events 1

echo "==> chaos: a plan that never fires is byte-transparent"
transparent=(sim-run --mix h-both --apps 4 --seconds 10)
"$bindir/copart" "${transparent[@]}" --trace-out "$chaosdir/a.jsonl" >/dev/null
"$bindir/copart" "${transparent[@]}" --trace-out "$chaosdir/b.jsonl" \
    --faults "dropout=off" >/dev/null
"$bindir/copart" trace-check --path "$chaosdir/b.jsonl" \
    --reference "$chaosdir/a.jsonl"

echo "chaos: the fault plan held"
