#!/usr/bin/env bash
# Panic sites in the serving crates: every `.unwrap()`, `.expect(`, `panic!` and
# `unreachable!` in the non-test part of crates/{net,coord,ps}/src (each file up to,
# not including, its first `#[cfg(test)]`, as scripts/src-lines.sh delimits it).
# Code only: a comment, doc comments included, does not count. Prints `file:line code`
# per line that holds a site, then the number of sites.
#
# A gate: every site must be listed in scripts/panic-sites.allow, one `file code` per
# line (the printed line without its line number, so moving code does not touch the
# list), and every listed site must still exist. It exits 1 and names each site the
# list lacks and each listed site the audit no longer finds.
set -euo pipefail
cd "$(dirname "$0")/.."
sites=$(find crates/net/src crates/coord/src crates/ps/src -name '*.rs' | sort | xargs awk '
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
            line = $0
            sub(/^[ \t]+/, "", line)
            printf "%s:%d %s\n", FILENAME, FNR, line
        }
    }
')
printf '%s\n' "$sites"
printf '%d panic sites\n' "$(printf '%s\n' "$sites" | grep -c . || true)"
keys=$(printf '%s\n' "$sites" | sed -E 's/^([^:]+):[0-9]+ /\1 /' | grep . || true)
allow=$(grep -v '^#' scripts/panic-sites.allow | grep . || true)
unlisted=$(comm -23 <(printf '%s\n' "$keys" | sort) <(printf '%s\n' "$allow" | sort) | grep . || true)
stale=$(comm -13 <(printf '%s\n' "$keys" | sort) <(printf '%s\n' "$allow" | sort) | grep . || true)
if [ -n "$unlisted" ]; then
    printf 'panic sites not in scripts/panic-sites.allow (type the failure, or list the site):\n%s\n' "$unlisted"
fi
if [ -n "$stale" ]; then
    printf 'scripts/panic-sites.allow lists sites the audit no longer finds (delete the lines):\n%s\n' "$stale"
fi
[ -z "$unlisted$stale" ]
