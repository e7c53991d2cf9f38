#!/usr/bin/env bash
# Full local verification: tier-1 (hermetic release build + tests),
# formatting and lints. Run from anywhere; operates on the repo root.
#
# The build is fully offline — the workspace has no external
# dependencies (randomness, property testing and benchmarking live in
# the in-tree crates/testkit) — so --offline both enforces and proves
# the hermetic-build invariant.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# The sim and core library crates deny clippy::unwrap_used /
# clippy::expect_used outside tests via crate-level attributes
# (crates/{sim,core}/src/lib.rs); this clippy pass compiles exactly the
# non-test lib targets, so a stray unwrap on a library hot path fails
# here even if the workspace pass above ever loosens.
echo "==> clippy unwrap/expect gate (sim + core lib crate attrs)"
cargo clippy --offline -p pllbist-sim -p pllbist --lib -- -D warnings

# The CampaignPlan refactor collapsed the suffix-combinatorial sweep
# API (`_supervised`/`_resumed`/`_observed`/`_on` variants) onto one
# plan-driven runner. This gate keeps it collapsed: a new public entry
# point with one of those suffixes means an option grew a name instead
# of a `CampaignPlan` builder field.
echo "==> entry-point suffix gate (no new pub fn *_supervised|_resumed|_observed|_on)"
if grep -rnE 'pub fn [a-z0-9_]*(_supervised|_resumed|_observed|_on)[[:space:]]*[<(]' crates/*/src; then
  echo "suffix gate: combinatorial sweep entry point reintroduced —"
  echo "express the option as a CampaignPlan builder field instead"
  exit 1
fi

# CpPll and EventDrivenCpPll are one LoopShell over two integrators.
# This gate keeps the loop machinery in one place: a second copy of the
# reference-edge scheduler, the feedback-edge handler or solver, or the
# sampler means an engine forked the shell instead of adding an Integrator.
echo "==> loop-shell gate (no second schedule_next_ref_edge / process_fb_edge / solve_crossing / Sampler)"
for def in 'fn schedule_next_ref_edge' 'fn process_fb_edge' 'fn solve_crossing' 'struct Sampler'; do
  n=$({ grep -rnE "\\b${def}\\b" crates/sim/src || true; } | wc -l)
  if [ "$n" -gt 1 ]; then
    echo "loop-shell gate: '${def}' is defined ${n} times under crates/sim/src —"
    echo "put loop machinery in loop_shell::LoopShell and integration in an Integrator"
    exit 1
  fi
done

# Every sweep, the Table 2 monitor included, runs on the one campaign
# runner (Scenario::run_points) over the one work-stealing executor in
# parallel.rs. This gate keeps it that way: a second thread::scope, a
# revived chunk executor, or containment hand-rolled in the core crate
# means a measurement grew its own executor instead of using the runner.
echo "==> one-executor gate (one thread::scope; no chunk executor; no containment in crates/core)"
n=$({ grep -rn 'thread::scope' crates/sim/src crates/core/src || true; } | wc -l)
if [ "$n" -gt 1 ]; then
  echo "one-executor gate: thread::scope appears ${n} times under crates/{sim,core}/src —"
  echo "schedule work through parallel::par_map_points_worker"
  exit 1
fi
for def in 'fn par_map_chunks' 'fn balanced_chunks' 'fn par_map'; do
  if grep -rnE "\\b${def}\\b" crates/sim/src crates/core/src; then
    echo "one-executor gate: '${def}' is defined again — use par_map_points_worker"
    exit 1
  fi
done
if grep -rnE 'catch_unwind|pllbist_sim::parallel::' crates/core/src; then
  echo "one-executor gate: crates/core/src contains or schedules work itself —"
  echo "run it through Scenario::run_points / supervisor::supervised_point"
  exit 1
fi

echo "==> examples/quickstart (offline)"
cargo run --release --offline --example quickstart

# Bench regression ledger: every --jsonl smoke below appends a fresh
# row to a scratch copy of the committed baseline ledger; the gate at
# the end compares fresh vs baseline under the suffix-convention policy
# (see crates/telemetry/src/ledger.rs).
ledger="target/verify-ledger.jsonl"
cp results/bench_ledger.jsonl "$ledger"
export PLLBIST_LEDGER="$ledger"

echo "==> abl09 telemetry-overhead smoke (offline, JSONL sink)"
abl09_out="target/abl09-smoke.jsonl"
PLLBIST_ABL09_SAMPLES=5 cargo run --release --offline -p pllbist-bench \
  --bin abl09_telemetry_overhead -- --jsonl "$abl09_out"
head -1 "$abl09_out" | grep -q '"type":"run"' \
  || { echo "abl09 smoke: missing JSONL run header"; exit 1; }

echo "==> abl10 checkpoint-speedup smoke (offline, JSONL sink)"
abl10_out="target/abl10-smoke.jsonl"
cargo run --release --offline -p pllbist-bench \
  --bin abl10_checkpoint_speedup -- --jsonl "$abl10_out"
head -1 "$abl10_out" | grep -q '"type":"run"' \
  || { echo "abl10 smoke: missing JSONL run header"; exit 1; }

echo "==> abl11 fault-tolerant-campaign smoke (offline, JSONL sink)"
abl11_out="target/abl11-smoke.jsonl"
cargo run --release --offline -p pllbist-bench \
  --bin abl11_fault_tolerant_campaign -- --jsonl "$abl11_out"
head -1 "$abl11_out" | grep -q '"type":"run"' \
  || { echo "abl11 smoke: missing JSONL run header"; exit 1; }

echo "==> abl12 work-stealing-campaign smoke (offline, JSONL sink)"
# Small grid, one rep: the bin itself asserts scheduler agreement and
# the forced-kill + resume byte-equality round trips (the ≥1.3× speedup
# assertion downgrades to a report on single-core hosts).
abl12_out="target/abl12-smoke.jsonl"
PLLBIST_ABL12_POINTS=8 PLLBIST_ABL12_REPS=1 cargo run --release --offline -p pllbist-bench \
  --bin abl12_work_stealing_campaign -- --jsonl "$abl12_out"
head -1 "$abl12_out" | grep -q '"type":"run"' \
  || { echo "abl12 smoke: missing JSONL run header"; exit 1; }

echo "==> abl13 campaign-observatory smoke (offline, status server + flight recorder)"
# The bin itself serves /progress over 127.0.0.1 from the campaign's
# own status server, polls it with the workspace std::net client and
# asserts monotone completion counts, byte-identity under observation
# at 1/4/16 threads, and parseable flight dumps on abort/stall.
abl13_out="target/abl13-smoke.jsonl"
PLLBIST_ABL13_POINTS=8 cargo run --release --offline -p pllbist-bench \
  --bin abl13_campaign_observatory -- --jsonl "$abl13_out"
head -1 "$abl13_out" | grep -q '"type":"run"' \
  || { echo "abl13 smoke: missing JSONL run header"; exit 1; }

echo "==> abl14 event-driven-speedup smoke (offline, JSONL sink)"
# One rep through both engine backends: the bin itself asserts the two
# land on the same Bode points and that the event-driven engine clears
# its ≥1.5× median-speedup floor over the micro-stepped engine (both
# share one Newton edge solver, so the floor measures segment
# integration alone; ~2× measured).
abl14_out="target/abl14-smoke.jsonl"
PLLBIST_ABL14_REPS=1 cargo run --release --offline -p pllbist-bench \
  --bin abl14_event_driven_speedup -- --jsonl "$abl14_out"
head -1 "$abl14_out" | grep -q '"type":"run"' \
  || { echo "abl14 smoke: missing JSONL run header"; exit 1; }

echo "==> abl15 crash-only-service smoke (offline, JSONL sink)"
# The campaign service under deterministic fire: kills mid-sweep, torn
# journal/result writes, disk-full, client disconnects and a SIGKILL
# restart. The bin asserts every recovered campaign file is
# byte-identical to the uninterrupted serial reference and that the
# resumed attempt restores lock from the checkpoint sidecar.
abl15_out="target/abl15-smoke.jsonl"
PLLBIST_ABL15_POINTS=6 cargo run --release --offline -p pllbist-bench \
  --bin abl15_crash_only_service -- --jsonl "$abl15_out"
head -1 "$abl15_out" | grep -q '"type":"run"' \
  || { echo "abl15 smoke: missing JSONL run header"; exit 1; }

echo "==> bench ledger regression gate"
cargo run --release --offline -p pllbist-bench \
  --bin bench_ledger_gate -- --ledger "$ledger"

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "verify: OK"
