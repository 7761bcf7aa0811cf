#!/usr/bin/env bash
# Parent-vs-change pairs of benchmark workloads, judged the way a claimed gain is.
#
#   bash scripts/ab-pairs.sh <parent-rev> <workload>[,<workload>...] [pairs] [seconds]
#
# The change is this working tree, uncommitted edits included; the parent is
# <parent-rev>, extracted with `git archive` into a temporary directory. Each tree's
# benchmark is built into a CARGO_TARGET_DIR of its own once, before any run (and the
# build's writes are flushed: a run right after a build read up to 2x slow). Then, for
# each workload of the comma-separated list in turn, `pairs` (default 10) pairs of runs
# alternate, each run the contract form
# `benchmark/run.sh --workload W --seed S --seconds T --trace 0` (default 22 s): both
# runs of a pair share one seed, and which tree runs first flips from pair to pair.
# Every run's metrics are printed as they come. After each workload's pairs, for each
# end-to-end metric of BENCHMARK.json: both medians with their quartiles, the change's
# median over the parent's, the pairs the change won and tied, and whether the median
# moved the metric's better way by more than the parent's inter-quartile range. A gain
# is claimed only if both hold: at least 9 of 10 pairs won, and the median gap beyond
# that range. Then two lists: *worse*, every metric whose change median is worse than
# the parent median by more than the metric's BENCHMARK.json bound (a share of the
# parent median); *unresolved*, every metric whose parent IQR / median exceeds that
# bound, so that such a regression could hide in the noise, unless every change run
# beats every parent run. The script exits non-zero if any run fails its output checks
# or any metric is worse. No file under benchmark/ is touched.
set -euo pipefail
if [[ $# -lt 2 ]]; then
    echo "usage: $0 <parent-rev> <workload>[,<workload>...] [pairs] [seconds]" >&2
    exit 2
fi
parent_rev=$1 pairs=${3:-10} seconds=${4:-22}
IFS=, read -r -a workloads <<<"$2"
change="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$change" archive "$parent_rev" | tar -x -C "$work/parent"

tree() { if [[ $1 == parent ]]; then echo "$work/parent"; else echo "$change"; fi; }
for side in parent change; do
    CARGO_TARGET_DIR="$work/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$(tree $side)/benchmark/Cargo.toml"
done
sync

# One run of one tree: appends `<side> <pair> <result JSON>` to the workload's record.
run() {
    local workload=$1 side=$2 pair=$3 seed=$4 out
    out="$(CARGO_TARGET_DIR="$work/target-$side" bash "$(tree "$side")/benchmark/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
    local result="${out##*$'\n'}"
    printf '%s %s %s\n' "$side" "$pair" "$result" >>"$work/record-$workload"
    printf '%-13s %-6s pair %2d seed %d: %s\n' "$workload" "$side" "$pair" "$seed" "$result"
}

# The verdict table of one workload's record.
verdict() {
    python3 - "$change/BENCHMARK.json" "$work/record-$1" <<'PY'
import json
import statistics
import sys

spec = json.load(open(sys.argv[1]))
runs = {"parent": {}, "change": {}}
failed = False
for line in open(sys.argv[2]):
    side, pair, result = line.split(" ", 2)
    result = json.loads(result)
    if not result["correct"] or result["failed"]:
        print(f"{side} pair {pair}: output checks failed: {result}")
        failed = True
    runs[side][int(pair)] = {k: m["value"] for k, m in result["metrics"].items()}
pairs = sorted(runs["parent"])
print(f"\n{len(pairs)} pairs; win = the change better in its pair, gap = median change - "
      "median parent, iqr = parent's q3 - q1")
print(f"{'metric':<16} {'parent q1 / median / q3':>30} {'change q1 / median / q3':>30}"
      f" {'ratio':>7} {'wins':>5} {'ties':>5} {'gap > iqr':>9}")
claims, worse, unresolved = [], [], []
for m in spec["end_to_end"]:
    name, higher, bound = m["name"], m["better"] == "higher", m["bound"]
    p = [runs["parent"][i][name] for i in pairs]
    c = [runs["change"][i][name] for i in pairs]
    (pq1, pmed, pq3), (cq1, cmed, cq3) = (
        (q[0], statistics.median(v), q[2])
        for v, q in ((p, statistics.quantiles(p, n=4)), (c, statistics.quantiles(c, n=4))))
    wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    gap = cmed - pmed
    beats = (gap > 0) == higher and gap != 0 and abs(gap) > pq3 - pq1
    ratio = cmed / pmed if pmed else float("nan")
    print(f"{name:<16} {pq1:>9.4g} / {pmed:>8.4g} / {pq3:<9.4g} {cq1:>9.4g} / {cmed:>8.4g} / "
          f"{cq3:<9.4g} {ratio:>7.4f} {wins:>5} {ties:>5} {'yes' if beats else 'no':>9}")
    if wins >= 0.9 * len(pairs) and beats:
        claims.append(name)
    # How far the change's median is worse than the parent's, as a share of the latter.
    worsening = (pmed - cmed if higher else cmed - pmed) / pmed if pmed else float("nan")
    if worsening > bound:
        worse.append(f"{name} ({worsening:.1%} > {bound:.0%})")
    spread = (pq3 - pq1) / pmed if pmed else float("inf")
    separated = min(c) > max(p) if higher else max(c) < min(p)
    if spread > bound and not separated:
        unresolved.append(f"{name} (iqr / median {spread:.1%} > {bound:.0%})")
print("claimable gains (>= 9 of 10 pairs won and gap > iqr):", ", ".join(claims) or "none")
print("worse (median worse than the parent's by more than the bound):",
      ", ".join(worse) or "none")
print("unresolved (parent iqr / median above the bound, runs not separated):",
      ", ".join(unresolved) or "none")
sys.exit(1 if failed or worse else 0)
PY
}

status=0
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((2019 + i))
        if ((i % 2 == 0)); then
            run "$workload" parent "$i" "$seed"
            run "$workload" change "$i" "$seed"
        else
            run "$workload" change "$i" "$seed"
            run "$workload" parent "$i" "$seed"
        fi
    done
    echo
    echo "== $workload"
    verdict "$workload" || status=1
done
exit "$status"

