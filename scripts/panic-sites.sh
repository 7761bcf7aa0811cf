#!/usr/bin/env bash
# Panic sites in the serving crates: every `.unwrap()`, `.expect(`, `panic!` and
# `unreachable!` in the non-test part of crates/{net,coord,ps}/src (each file up to,
# not including, its first `#[cfg(test)]`, as scripts/src-lines.sh delimits it).
# Code only: a comment, doc comments included, does not count. Informational; prints
# `file:line code` per line that holds a site, then the number of sites.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/net/src crates/coord/src crates/ps/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { test = 0 }
    /#\[cfg\(test\)\]/ { test = 1 }
    test { next }
    {
        rest = $0
        sub(/\/\/.*/, "", rest)
        n = 0
        while (match(rest, /\.unwrap\(\)|\.expect\(|panic!|unreachable!/)) {
            n++
            rest = substr(rest, RSTART + RLENGTH)
        }
        if (n) {
            sites += n
            line = $0
            sub(/^[ \t]+/, "", line)
            printf "%s:%d %s\n", FILENAME, FNR, line
        }
    }
    END { printf "%d panic sites\n", sites }
'
