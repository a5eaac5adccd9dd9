#!/usr/bin/env bash
# A/A gate: two sets of runs of the *same* build must agree.
#
# The sets are made in pairs: for each pass (default 10; `compare --aa`
# accepts no fewer than 5) and each workload, one run for set A and one
# for set B with one seed, in lockstep — both alive at once, taking
# turns A B A B ... at every set-up and every repetition, the side that
# goes first swapped from one pair to the next. So what varies inside a
# pair is neither the input nor what the machine was doing that minute,
# and every set-up and repetition of the one run has its twin in the
# other, made seconds apart: 30 set-up pairs and 50 repetition pairs per
# workload at ten passes.
# `compare --aa` then judges every wall-clock metric on the per-pair
# ratios — the interval that covers their median nine times in ten must
# lie within the paired bound (10 %) — and requires every metric that
# repeats per seed bit-identical:
#   exit 0  every end-to-end metric `unchanged`
#   exit 1  a false verdict: a metric improved or regressed, or a
#           deterministic one differed
#   exit 3  `unresolved` rows only: the pairs made leave the median
#           ratio uncertain by more than the bound; add passes to the
#           same sets with `more`
#
# About three minutes a pass.
#
#   benchmark/aa.sh [SEED] [PASSES] [more]
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
SEED="${1:-1}"
PASSES="${2:-10}"
OUT="$HERE/results"

cargo build --release --offline --manifest-path "$HERE/Cargo.toml"
BIN="$TARGET/release/catocs-benchmark"
mkdir -p "$OUT"
[ "${3:-}" = more ] || rm -f "$OUT/aa-A.jsonl" "$OUT/aa-B.jsonl"

pair=0
for pass in $(seq 1 "$PASSES"); do
    for w in $("$BIN" workloads); do
        if ((pair++ % 2 == 0)); then first=""; else first="--b-first"; fi
        echo "# pass $pass $w ${first:---a-first}" >&2
        "$BIN" lockstep "$BIN" "$BIN" "$OUT/aa-A.jsonl" "$OUT/aa-B.jsonl" $first \
            --workload "$w" --seed "$SEED" --trace 0
    done
done

"$BIN" compare "$OUT/aa-A.jsonl" "$OUT/aa-B.jsonl" --aa
