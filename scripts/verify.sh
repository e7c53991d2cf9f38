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

# The frozen benchmark package is a workspace of its own, so the
# workspace test run above does not build it; its replay imports
# pllbist_sim items (FmStimulus among them), and a signature change
# there must fail here rather than in the benchmark run. Its build goes
# to the workspace target directory, not into the package.
echo "==> frozen benchmark package tests (offline)"
CARGO_TARGET_DIR=target cargo test -q --offline \
  --manifest-path crates/bench/src/bin/pllbist_benchmark/Cargo.toml

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

# All four engines find their output edges (feedback edges, VCO toggles)
# with loop_shell::solve_crossing and their reference edges with the
# stimulus's exact inverse. This gate keeps the engine-private searches
# they replaced gone: a midpoint bisection outside those two files, or a
# revived FmStimulus::time_at_phase or CosimStats, means an engine grew
# its own edge solver or work counters again.
echo "==> one-edge-solver gate (no midpoint bisection outside loop_shell.rs and stimulus.rs; no time_at_phase or CosimStats)"
if grep -rnF '0.5 * (lo + hi)' crates/sim/src | grep -vE '^crates/sim/src/(loop_shell|stimulus)\.rs:'; then
  echo "one-edge-solver gate: a bisection outside loop_shell.rs and stimulus.rs —"
  echo "find output edges with loop_shell::solve_crossing"
  exit 1
fi
if grep -rnE '\bfn time_at_phase\b|\bstruct CosimStats\b' crates/sim/src; then
  echo "one-edge-solver gate: time_at_phase or CosimStats is back — place reference"
  echo "edges with FmStimulus::solve_phase and count work in WorkStats"
  exit 1
fi

# Every engine places reference edges by the stimulus's exact phase
# inverse (FmStimulus::solve_phase). The bracket-safeguarded Newton it
# replaced survives only as the test reference in stimulus.rs, and so
# does the dwell walk the staircase phase was computed by before its
# per-dwell table. This gate keeps both there: the reference solver, its
# bracket-widening loop, the walked staircase formula or its reference
# function outside the #[cfg(test)] module means a production path went
# back to the bracketed search or the O(n) walk.
echo "==> exact-edge-inverse gate (the bracketed solver and the dwell walk only under #[cfg(test)])"
walked='reference_time_at_phase|hi \+= 0\.1 /|walked_staircase_phase|rem\.min\(dwell\)'
stim=crates/sim/src/stimulus.rs
test_from=$(grep -n -A1 '^#\[cfg(test)\]' "$stim" | grep -E '^[0-9]+-mod tests' | head -1 | cut -d- -f1)
if [ -z "$test_from" ]; then
  echo "exact-edge-inverse gate: no #[cfg(test)] mod tests in $stim"
  exit 1
fi
if grep -nE "$walked" "$stim" | awk -F: -v from="$test_from" '$1 < from' | grep .; then
  echo "exact-edge-inverse gate: a reference formula appears outside $stim's test module"
  exit 1
fi
if grep -rnE "$walked" crates/*/src src | grep -v "^$stim:"; then
  echo "exact-edge-inverse gate: a reference formula appears outside $stim"
  exit 1
fi

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

# Every measurement enters the runner through the one plan entry
# (scenario::run_plan / PlanRun): the service's attempts and the Table 2
# monitor included. This gate keeps it that way: opening a results log
# or sidecar, or calling the value-only run_points shim, anywhere but
# the runner's own modules means a caller re-implemented run_plan.
echo "==> one-plan-entry gate (no CampaignLog::open / LockSidecar::for_results_file / .run_points outside scenario.rs, campaign.rs, sidecar.rs)"
if grep -rnE 'CampaignLog::open|LockSidecar::for_results_file|\.run_points' crates/sim/src crates/core/src \
  | grep -vE '^crates/sim/src/(scenario|campaign|sidecar)\.rs:'; then
  echo "one-plan-entry gate: lower the measurement onto scenario::run_plan / PlanRun"
  echo "instead of opening the log, the sidecar or the runner by hand"
  exit 1
fi

# The crate has one HTTP surface: the campaign service's router, with
# one accept loop, whose per-job views serve the running job's live
# observer. This gate keeps it that way: a second accept loop or a
# revived StatusServer means a read-out grew its own server instead of
# a route in service.rs.
echo "==> one-HTTP-surface gate (one accept loop under crates/sim/src; no StatusServer)"
n=$({ grep -rn '\.incoming()' crates/sim/src || true; } | wc -l)
if [ "$n" -gt 1 ]; then
  echo "one-HTTP-surface gate: .incoming() appears ${n} times under crates/sim/src —"
  echo "serve it as a route in service.rs instead of a second listener"
  exit 1
fi
if grep -rnI --exclude-dir=target 'StatusServer' crates src tests examples; then
  echo "one-HTTP-surface gate: StatusServer is back — serve the observer through"
  echo "the campaign service's /jobs/<id>/{progress,workers,incidents} views"
  exit 1
fi

# Execution options that no caller set to a second value are gone: the
# telemetry config is one switch, the lock sidecar follows the results
# file, and the flight-recorder capacity and the peak guard are
# constants. This gate keeps them gone: one of these names back in the
# sources means an option returned without a caller that needs it.
echo "==> unread-option gate (no SinkConfig / sample_every / with_sampling / render_table / fn sidecar( / recorder_capacity / peak_guard_fraction; no settable supervision threshold or attempt budget)"
unread='\bSinkConfig\b|\bsample_every\b|\bwith_sampling\b|\brender_table\b|\bfn sidecar\(|\brecorder_capacity\b|\bpeak_guard_fraction\b'
if grep -rnE --include='*.rs' --exclude-dir=target "$unread" crates/*/src src; then
  echo "unread-option gate: an option with one value is back — make it a"
  echo "constant, or derive it from the option that decides it"
  exit 1
fi
# The supervision ladder and the job attempt budget are fixed: their
# thresholds are SupervisorPolicy's associated constants and the
# service's MAX_ATTEMPTS, and a supervised plan's header carries one
# "supervised" flag. A public threshold field, or a threshold key in a
# header writer or reader, means a settable ladder (and an unbounded
# value from an untrusted submission) came back.
ladder='pub(\([a-z]+\))?[[:space:]]+(max_retries|retry_step_scale|retry_settle_scale|step_budget|control_rails|rail_margin_fraction|rail_overshoot_fraction|rail_streak_limit|max_attempts)[[:space:]]*:'
if grep -rnE --include='*.rs' --exclude-dir=target "$ladder|_scale_bits|rail_margin_bits|rails_lo_bits" crates/*/src src; then
  echo "unread-option gate: a settable supervision threshold or attempt budget"
  echo "is back — the ladder is SupervisorPolicy's constants, the budget MAX_ATTEMPTS"
  exit 1
fi

# Every write to a job directory goes through durable.rs, which is also
# where the one injected crash fault (die at durable step k after b
# bytes) lives. This gate keeps it the one path: an fsync, rename,
# truncate or append-mode open elsewhere under crates/sim/src means a
# hand-rolled durable write, and a revived torn-write helper, write-fault
# hook or crash kind means a second crash model.
echo "==> one-durable-path gate (sync_all / fs::rename / set_len / .append(true) only in durable.rs; no second crash model)"
if grep -rnE 'sync_all|fs::rename|set_len|\.append\(true\)' crates/sim/src | grep -v '^crates/sim/src/durable\.rs:'; then
  echo "one-durable-path gate: write through crates/sim/src/durable.rs instead"
  exit 1
fi
if grep -rnE --include='*.rs' --exclude-dir=target \
  'journal_append_torn|set_write_fault|InjectedWriteFault|WriteFaultHook|KillTearingJournal|TornResultWrite|ResultDiskFull' \
  crates src tests examples; then
  echo "one-durable-path gate: a second crash model is back — inject crashes"
  echo "as durable::CrashFault { step, bytes }"
  exit 1
fi

# Panics the program contains by design (injected kills, quarantined
# points, guard trips) carry InjectedKill or SweepPointError payloads,
# and pllbist_sim::error::quiet_contained_panics keeps exactly those off
# stderr. This gate keeps an empty panic hook out of the binaries and
# out of the tests that seed faults on purpose: an empty hook hides a
# real bug's report along with the seeded ones.
echo "==> quiet-panic gate (no empty panic hook in src/bin, tests/supervised_sweep.rs or crash_enumeration.rs)"
if grep -rnE --include='*.rs' 'set_hook\(Box::new\(\|_[a-z_]*\|[[:space:]]*\{[[:space:]]*\}\)\)' \
  crates/*/src/bin tests/supervised_sweep.rs crates/sim/tests/crash_enumeration.rs; then
  echo "quiet-panic gate: an empty panic hook silences every panic — seed typed"
  echo "payloads and call pllbist_sim::error::quiet_contained_panics instead"
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

echo "==> abl13 campaign-observatory smoke (offline, service live views + flight recorder)"
# The bin itself asserts byte-identity under observation at 1/4/16
# threads, runs a retry-heavy job on the campaign service over
# 127.0.0.1 twice — polling /jobs/<id>/progress, /workers and
# /incidents with the workspace std::net client on one run only — and
# asserts monotone completion counts and byte-identical polled and
# unpolled results files, plus parseable flight dumps on abort/stall.
abl13_out="target/abl13-smoke.jsonl"
PLLBIST_ABL13_POINTS=8 cargo run --release --offline -p pllbist-bench \
  --bin abl13_campaign_observatory -- --jsonl "$abl13_out"
head -1 "$abl13_out" | grep -q '"type":"run"' \
  || { echo "abl13 smoke: missing JSONL run header"; exit 1; }

echo "==> abl14 event-driven-speedup smoke (offline, JSONL sink)"
# One rep through both engine backends: the bin itself asserts the two
# land on the same Bode points and that the event-driven engine clears
# its ≥1.5× median-speedup floor over the micro-stepped engine (both
# share one Newton edge solver and, on this lossless loop, commit the
# same segments, so the floor measures the cost of one segment alone;
# ~1.4× measured since `CpPll` takes held intervals whole).
abl14_out="target/abl14-smoke.jsonl"
PLLBIST_ABL14_REPS=1 cargo run --release --offline -p pllbist-bench \
  --bin abl14_event_driven_speedup -- --jsonl "$abl14_out"
head -1 "$abl14_out" | grep -q '"type":"run"' \
  || { echo "abl14 smoke: missing JSONL run header"; exit 1; }

echo "==> abl15 crash-only-service smoke (offline, JSONL sink)"
# The campaign service under deterministic fire: crashes at chosen
# durable steps (kills, a torn results line, a torn journal append),
# client disconnects and a SIGKILL restart. The bin asserts every recovered campaign file is
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
