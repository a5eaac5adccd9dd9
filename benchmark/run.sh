#!/usr/bin/env bash
# The one command: builds the benchmark from source, then runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1 [--out FILE]
#       one run; the last line of standard output is the JSON result
#   benchmark/run.sh [--seed N] [--out FILE]
#       every workload, untraced then traced; every metric printed with
#       its unit, one record per run appended to FILE
#       (default benchmark/results/results.jsonl)
#
# Builds into $CARGO_TARGET_DIR when set, else benchmark/target. Trace
# files go to benchmark/results/. Run from the repository root.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"

# Cargo reports on standard error, so standard output stays the run's.
cargo build --release --offline --manifest-path "$HERE/Cargo.toml"
BIN="$TARGET/release/catocs-benchmark"

args=("$@")
workload="" trace=0 seed=1 out="$HERE/results/results.jsonl"
while (($#)); do
    case "$1" in
        --workload) workload="${2-}" ;;
        --trace) trace="${2-}" ;;
        --seed) seed="${2-}" ;;
        --out) out="${2-}" ;;
    esac
    shift
done

run() { # trace flag, then the binary's arguments
    local t="$1"
    shift
    if [ "$t" = 1 ]; then
        "$BIN-traced" "$@" --results "$HERE/results"
    else
        "$BIN" "$@"
    fi
}

if [ -n "$workload" ]; then
    run "$trace" "${args[@]}"
    exit
fi

mkdir -p "$(dirname "$out")"
status=0
for w in $("$BIN" workloads); do
    for t in 0 1; do
        run "$t" --workload "$w" --trace "$t" --seed "$seed" --out "$out" || status=$?
    done
done
echo "# records appended to $out" >&2
exit "$status"
