#!/usr/bin/env bash
# Non-test source lines: each crate's src/**/*.rs counted up to (not including) the
# file's first `#[cfg(test)]`, then a total. With arguments, counts those files
# instead of the crates. Run it at the parent and at the change to back a line claim.
set -euo pipefail
cd "$(dirname "$0")/.."
count() { awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }' "$@"; }
if [ $# -gt 0 ]; then
    for f in "$@"; do printf '%-40s %6d\n' "$f" "$(count "$f")"; done
    exit
fi
total=0
for crate in crates/*/; do
    n=$(count $(find "$crate"src -name '*.rs'))
    printf '%-40s %6d\n' "dssp-$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-40s %6d\n' total "$total"
