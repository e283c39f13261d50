#!/usr/bin/env bash
# The repo benchmark's one command. See benchmark/README.md.
#
#   benchmark/run.sh                       every workload, every metric
#   benchmark/run.sh --quick               probe sizes, under 30 s
#   benchmark/run.sh --calibrate 10        measure noise, derive bounds
#   benchmark/run.sh --against old.json    judge against a previous run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run, ending with the JSON
#                                          result line (the driver's form)
#
# Builds target/release/copart from the repo's sources and the two
# benchmark binaries from this directory's own workspace, then hands
# over to bench-e2e. In a directory without the repo's sources the first
# build fails and the script exits non-zero without printing a result.

set -euo pipefail
bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates/cli ]]; then
    echo "benchmark/run.sh: $root holds no copart sources; nothing to measure" >&2
    exit 2
fi

# One target directory for both workspaces (the driver sets it); builds
# go to stderr so stdout ends with the result line.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline -p copart-cli >&2
# The per-layer binary links the copart-* crates; if an API change breaks
# it, the end-to-end numbers must still come out.
bench_build=(cargo build --release --offline --manifest-path "$bench_dir/Cargo.toml")
layers=()
if "${bench_build[@]}" -p bench-e2e -p bench-layers >&2; then
    layers=(--layers "$target/release/bench-layers")
else
    echo "benchmark/run.sh: bench-layers did not build; the per-layer block will be missing" >&2
    "${bench_build[@]}" -p bench-e2e >&2
fi

exec "$target/release/bench-e2e" \
    --copart "$target/release/copart" "${layers[@]}" \
    --bench-dir "$bench_dir" --out "$root/.bench_out" "$@"
