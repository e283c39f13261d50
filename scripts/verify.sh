#!/usr/bin/env bash
# Pre-PR gate for the CoPart reproduction (see README.md).
#
# Two modes:
#   verify.sh quick   fast inner-loop gate: debug tests + an explicit
#                     doctest pass + rustfmt + clippy + rustdoc with
#                     warnings denied, then a `cargo check` of the
#                     benchmark/ workspace, so a public-API break in what
#                     it links fails here too. One debug build of the
#                     workspace, nothing else. The copart-check
#                     property suite runs inside the test pass at the
#                     quick fuzz budget (COPART_CHECK_CASES=64).
#   verify.sh [full]  everything a PR must pass: release build, release
#                     tests (sharing the release cache with the build —
#                     no debug/release double compile), rustfmt, clippy,
#                     rustdoc with warnings denied (the workspace keeps
#                     `#![warn(missing_docs)]` satisfied on every crate),
#                     the copart-check suite at the full fuzz budget
#                     (COPART_CHECK_CASES=512) with a jobs-1-vs-8 report
#                     byte-comparison, and the perf gate
#                     (`cargo bench -p copart-bench`: every bench gates
#                     its BENCH_*.json against the checked-in baseline,
#                     and the 4000-app planner p99 must fit the ~1 ms
#                     epoch budget); last, a release build of the
#                     benchmark/ workspace, whose per-layer tracer links
#                     every crate's public API.
#
# Both test passes run the end-to-end cases too: the binaries driven
# through sim-run, fleet-run, compare and trace-check, the fault plans,
# and the jobs-1-vs-8 byte identity of the compare grid and the fleet
# (DESIGN.md §8 lists them).
#
# COPART_CHECK_CASES overrides either budget from the environment.
#
# Both modes end by requiring benchmark/ and BENCHMARK.json to be exactly
# as checked out (`git status --porcelain`, skipped outside a git
# checkout): the benchmark's files are never edited by a change, and an
# offline build of benchmark/ refreshes its Cargo.lock in place, so the
# build steps put the checked-in lockfile back.
#
# The script needs no network access and no tools beyond cargo and git.

set -euo pipefail
cd "$(dirname "$0")/.."

# Runs a cargo command on the benchmark/ workspace, then restores the
# checked-in benchmark/Cargo.lock whether or not the command succeeded.
with_benchmark_lock() {
    local saved status=0
    saved="$(mktemp)"
    cp benchmark/Cargo.lock "$saved"
    "$@" || status=$?
    cp "$saved" benchmark/Cargo.lock
    rm -f "$saved"
    return "$status"
}

mode="${1:-full}"
case "$mode" in
quick)
    echo "==> cargo test -q (debug, copart-check at ${COPART_CHECK_CASES:-64} cases)"
    COPART_CHECK_CASES="${COPART_CHECK_CASES:-64}" cargo test -q --workspace

    echo "==> cargo test --doc (the API examples are executable)"
    cargo test -q --doc --workspace

    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

    echo "==> cargo check benchmark/ (its per-layer tracer links the crates' public API)"
    with_benchmark_lock cargo check -q --manifest-path benchmark/Cargo.toml
    ;;
full)
    echo "==> tier-1: cargo build --release"
    cargo build --workspace --release

    echo "==> tier-1: cargo test -q --release (copart-check at ${COPART_CHECK_CASES:-512} cases)"
    COPART_CHECK_CASES="${COPART_CHECK_CASES:-512}" cargo test -q --workspace --release

    echo "==> copart-check report determinism (jobs 1 vs 8, ${COPART_CHECK_CASES:-512} cases)"
    check_tmp="$(mktemp -d)"
    trap 'rm -rf "$check_tmp"' EXIT
    cargo run -q --release -p copart-check -- \
        --cases "${COPART_CHECK_CASES:-512}" --jobs 1 >"$check_tmp/jobs1.txt"
    cargo run -q --release -p copart-check -- \
        --cases "${COPART_CHECK_CASES:-512}" --jobs 8 >"$check_tmp/jobs8.txt"
    cmp "$check_tmp/jobs1.txt" "$check_tmp/jobs8.txt" \
        || { echo "copart-check report differs between --jobs 1 and --jobs 8" >&2; exit 1; }

    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings

    echo "==> cargo doc --no-deps (warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

    echo "==> perf gate (cargo bench: BENCH_*.json vs crates/bench/baselines)"
    cargo bench -q -p copart-bench >/dev/null

    echo "==> benchmark-builds (benchmark/ links the crates' public API)"
    with_benchmark_lock cargo build --release --manifest-path benchmark/Cargo.toml
    ;;
*)
    echo "usage: $0 [quick|full]" >&2
    exit 2
    ;;
esac

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    echo "==> benchmark/ and BENCHMARK.json are as checked out"
    dirty="$(git status --porcelain -- benchmark BENCHMARK.json)"
    if [ -n "$dirty" ]; then
        echo "verify: benchmark/ or BENCHMARK.json changed:" >&2
        echo "$dirty" >&2
        exit 1
    fi
fi

echo "verify ($mode): all gates passed"
