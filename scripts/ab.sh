#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark between two revisions.
#
#   bash scripts/ab.sh <rev-a> <rev-b> <workload> [pairs] [seconds]
#
# Exports each revision's committed tree with `git archive` into its own
# directory under a fresh temporary directory (mktemp, so $TMPDIR picks
# where), with its own CARGO_TARGET_DIR, and runs the benchmark package's
# run.sh there unchanged. Pair i (default 10 pairs of 20 s) runs both
# revisions at seed 700 + i, A first in odd pairs and B first in even
# ones (ABBA), and keeps each run's last line, the result line, in
# a.jsonl and b.jsonl. Then prints, for each end-to-end metric of this
# checkout's BENCHMARK.json, the median paired ratio B/A with a 95 %
# bootstrap interval (crates/bench/src/bin/ab_compare.rs). The results
# files stay in the temporary directory; the trees and builds are
# removed at exit.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
  echo "usage: bash scripts/ab.sh <rev-a> <rev-b> <workload> [pairs] [seconds]" >&2
  exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=${4:-10} seconds=${5:-20}
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d "${TMPDIR:-/tmp}/pllbist-ab.XXXXXX")"
trap 'rm -rf "$work/a" "$work/b"' EXIT

for side in a b; do
  rev=$rev_a
  [ "$side" = b ] && rev=$rev_b
  mkdir -p "$work/$side/tree"
  git -C "$repo" archive "$rev" | tar -x -C "$work/$side/tree"
  echo "$side = $(git -C "$repo" rev-parse --short "$rev") ($rev)" | tee -a "$work/revisions.txt"
done

# One run of `side` at `seed`; the result line goes to $work/<side>.jsonl.
run() {
  local side=$1 seed=$2 seconds=$3 out=$4
  (cd "$work/$side/tree" && CARGO_TARGET_DIR="$work/$side/target" \
    bash crates/bench/src/bin/pllbist_benchmark/run.sh \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
    | tail -n 1 >> "$out"
}

# Build both sides (and warm them) before the first timed pair.
for side in a b; do
  run "$side" 1 1 "$work/$side.warmup.jsonl"
done

: > "$work/a.jsonl"
: > "$work/b.jsonl"
for i in $(seq 1 "$pairs"); do
  seed=$((700 + i))
  order="a b"
  [ $((i % 2)) -eq 0 ] && order="b a"
  for side in $order; do
    run "$side" "$seed" "$seconds" "$work/$side.jsonl"
  done
  echo "pair $i/$pairs (seed $seed, $order) done" >&2
done

echo "$pairs pairs of $seconds s on $workload; results in $work"
cd "$repo"
cargo run --release --offline --quiet -p pllbist-bench --bin ab_compare -- \
  BENCHMARK.json "$work/a.jsonl" "$work/b.jsonl"
