#!/usr/bin/env bash
# Public functions nothing reaches: every `pub fn` in the non-test part of
# crates/*/src (each file up to, not including, its first `#[cfg(test)]`, as
# scripts/src-lines.sh delimits it) whose name occurs nowhere else in the non-test
# source of crates/, benchmark/src, examples/ and src/ — comments aside, so a doc link
# does not count as a use. Matching is by bare name: a name that is also a trait method
# or a field reads as reached. Prints `file:line name` per unreached function, then the
# number of them.
#
# A gate: every name must be listed in scripts/unreached-pub.allow, one `file name` per
# line (the printed line without its line number, so moving code does not touch the
# list), and every listed name must still be unreached. It exits 1 and names each
# function the list lacks (delete it, or reach it from a program path, or list it) and
# each listed name the audit no longer finds.
set -euo pipefail
cd "$(dirname "$0")/.."
names=$(find crates/*/src benchmark/src examples src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    {
        line = $0
        sub(/\/\/.*/, "", line)
        if (FILENAME ~ /^crates\/[^\/]+\/src\// && match(line, /pub fn [A-Za-z0-9_]+/)) {
            name = substr(line, RSTART + 7, RLENGTH - 7)
            where[name] = where[name] FILENAME ":" FNR " " name "\n"
        }
        rest = line
        while (match(rest, /[A-Za-z_][A-Za-z0-9_]*/)) {
            word = substr(rest, RSTART, RLENGTH)
            rest = substr(rest, RSTART + RLENGTH)
            if (word == "fn") { defining = 1; continue }
            if (defining) { defined[word]++; defining = 0 }
            seen[word]++
        }
        defining = 0
    }
    END { for (name in where) if (seen[name] == defined[name]) printf "%s", where[name] }
' | sort)
printf '%s\n' "$names" | grep . || true
printf '%d unreached public functions\n' "$(printf '%s\n' "$names" | grep -c . || true)"
keys=$(printf '%s\n' "$names" | sed -E 's/^([^:]+):[0-9]+ /\1 /' | grep . || true)
allow=$(grep -v '^#' scripts/unreached-pub.allow | grep . || true)
unlisted=$(comm -23 <(printf '%s\n' "$keys" | sort) <(printf '%s\n' "$allow" | sort) | grep . || true)
stale=$(comm -13 <(printf '%s\n' "$keys" | sort) <(printf '%s\n' "$allow" | sort) | grep . || true)
if [ -n "$unlisted" ]; then
    printf 'public functions nothing reaches, not in scripts/unreached-pub.allow (delete, reach or list them):\n%s\n' "$unlisted"
fi
if [ -n "$stale" ]; then
    printf 'scripts/unreached-pub.allow lists names the audit no longer finds (delete the lines):\n%s\n' "$stale"
fi
[ -z "$unlisted$stale" ]
