#!/usr/bin/env bash
# Counts the non-test, non-comment Rust lines under crates/*/src: in
# every .rs file, the lines before its first `#[cfg(test)]`, minus blank
# lines and lines whose first non-blank characters are `//`. Prints the
# total and the total outside the copart-check crate.
#
#   scripts/loc.sh            # count the working tree at the repo root
#   scripts/loc.sh <dir>      # count another checkout
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"

# count [find predicate...]: the lines of the matching files.
count() {
    find "$root"/crates/*/src "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_test = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        in_test { next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }'
}

all=$(count)
outside=$(count -not -path "$root/crates/check/*")
echo "non-test non-comment lines under crates/*/src: $all"
echo "outside copart-check: $outside"
