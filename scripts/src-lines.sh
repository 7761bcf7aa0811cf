#!/usr/bin/env bash
# Non-test source lines: each crate's src/**/*.rs counted up to (not including) the
# file's first `#[cfg(test)]`, then a total. With file arguments, counts those files
# instead of the crates. With `--against <rev>`, prints each crate's count at <rev>
# and in the working tree, the difference, and the totals: the table a line claim
# quotes.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' "$@"; }
# Prints `crate count` per crate under the tree rooted at $1.
per_crate() {
    for crate in "$1"/crates/*/; do
        echo "dssp-$(basename "$crate") $(count $(find "$crate"src -name '*.rs'))"
    done
}
if [ "${1:-}" = --against ]; then
    rev=${2:?usage: src-lines.sh --against <rev>}
    old=$(mktemp -d)
    trap 'rm -rf "$old"' EXIT
    git archive "$rev" crates | tar -x -C "$old"
    join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(per_crate "$old" | sort) <(per_crate . | sort) |
        awk -v rev="$rev" '
            BEGIN { printf "%-24s %8s %8s %8s\n", "crate", substr(rev, 1, 8), "tree", "diff" }
            { printf "%-24s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
            END { printf "%-24s %8d %8d %+8d\n", "total", a, b, b - a }'
    exit
fi
if [ $# -gt 0 ]; then
    for f in "$@"; do printf '%-40s %6d\n' "$f" "$(count "$f")"; done
    exit
fi
per_crate . | awk '{ printf "%-40s %6d\n", $1, $2; t += $2 } END { printf "%-40s %6d\n", "total", t }'
