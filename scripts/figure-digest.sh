#!/usr/bin/env bash
# sha256 of the stdout of the figure runs a change that claims "same results" must not
# move: quick-scale `repro fig3a fig3c fig3e fig4 table1`, then `repro fig4 --full`
# (the paper's Figure 4 at full scale). The runs are deterministic per seed, so two
# trees that print the same digests trained every model to the same bits. CI diffs
# the output against scripts/figure-digests.txt; a change that moves results on
# purpose updates that file in the same commit. Builds into CARGO_TARGET_DIR if set.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --bin repro
repro="${CARGO_TARGET_DIR:-target}/release/repro"
digest() { printf '%-12s %s\n' "$*" "$("$repro" "$@" | sha256sum | cut -d' ' -f1)"; }
for figure in fig3a fig3c fig3e fig4 table1; do
    digest "$figure"
done
digest fig4 --full
