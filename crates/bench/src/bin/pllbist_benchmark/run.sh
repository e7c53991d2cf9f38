#!/usr/bin/env bash
# Builds pllbist_serve and the benchmark into one target directory, so
# the service sits next to the benchmark executable, then runs the
# benchmark with the given arguments from the repository root.
#
#   bash crates/bench/src/bin/pllbist_benchmark/run.sh --workload svc_sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../../../../.." && pwd)"
cd "$repo"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path "$repo/Cargo.toml" \
    -p pllbist-sim --bin pllbist_serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/pllbist_benchmark" "$@"
