#!/usr/bin/env bash
# Entry point of the benchmark (the `command` of ../BENCHMARK.json).
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run, contract form
#   run.sh run W | trace W | aa | all  [--seed N] [--seconds S]
#
# Builds the benchmark package (a no-op when it is fresh) and hands over to one of its
# two binaries: `bench` for end-to-end runs, `bench-trace` (counting allocator, spans)
# for per-layer runs. `all` prints every metric of every workload by name and fails
# if any output check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_MANIFEST_DIR="$here"
bench="$target/release/bench"
bench_trace="$target/release/bench-trace"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" && "${args[i + 1]:-}" == "1" ]]; then
        trace=1
    fi
done

case "${1:-}" in
trace)
    shift
    exec "$bench_trace" "$@"
    ;;
aa)
    shift
    "$bench" aa "$@"
    exec "$bench_trace" aa "$@"
    ;;
all)
    shift
    for workload in sim_hetero tcp_comm group_comm thr_straggler; do
        "$bench" run "$workload" "$@"
        "$bench_trace" "$workload" "$@"
    done
    ;;
*)
    if [[ "$trace" == 1 ]]; then
        exec "$bench_trace" "$@"
    fi
    exec "$bench" "$@"
    ;;
esac
