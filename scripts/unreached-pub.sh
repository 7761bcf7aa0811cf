#!/usr/bin/env bash
# Public functions nothing reaches: every `pub fn` in the non-test part of
# crates/*/src (each file up to, not including, its first `#[cfg(test)]`, as
# scripts/src-lines.sh delimits it) whose name occurs nowhere else in the non-test
# source of crates/, benchmark/src, examples/ and src/ — comments aside, so a doc link
# does not count as a use. Matching is by bare name: a name that is also a trait method
# or a field reads as reached. Informational; prints `file:line name`, or nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src benchmark/src examples src -name '*.rs' | sort | xargs awk '
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
' | sort
