//! **bench_ledger_gate** — the bench regression ledger's CI gate.
//!
//! Reads the ledger (`--ledger <path>` / `PLLBIST_LEDGER`, or by default
//! the committed baseline `results/bench_ledger.jsonl` together with the
//! fresh rows bins append to `target/bench_ledger.jsonl`), pairs each
//! bin's **latest baseline row** with its **latest fresh row**, and
//! compares every
//! shared metric under the suffix-convention gate policy
//! (`pllbist_telemetry::ledger`):
//!
//! * `*speedup` / `*utilization` / `*ratio` — higher is better; regress
//!   on a drop beyond the relative tolerance;
//! * `*overhead_pct` — lower is better, compared in absolute percentage
//!   points;
//! * `*_secs` — lower is better but only gated with
//!   `PLLBIST_LEDGER_GATE_SECS=1` (raw seconds don't transfer across
//!   machines);
//! * anything else — informational, never gated;
//! * a bin whose two rows ran on different `*.cores` counts is skipped
//!   wholesale.
//!
//! Exits non-zero when any metric regresses. `--promote` instead
//! rewrites the ledger (by default the committed baseline) to the latest
//! row per bin, marked as the new baseline — how
//! `results/bench_ledger.jsonl` is (re)seeded.
//!
//! Knobs: `PLLBIST_LEDGER_TOL_PCT` (relative tolerance, default 35),
//! `PLLBIST_LEDGER_SLACK_PCT_POINTS` (overhead slack, default 5),
//! `PLLBIST_LEDGER_GATE_SECS` (gate wall times, default off).

use pllbist_telemetry::ledger::{
    append_record, compare_records, parse_ledger, GatePolicy, LedgerRecord, Verdict,
    BASELINE_LEDGER_PATH, DEFAULT_LEDGER_PATH, LEDGER_ENV,
};
use std::path::PathBuf;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The ledger files to read, the first being the one `--promote`
/// rewrites: an explicit ledger, else the committed baseline plus the
/// default append file.
fn ledger_paths() -> Vec<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--ledger" {
            if let Some(path) = args.next() {
                return vec![PathBuf::from(path)];
            }
        }
        if let Some(path) = arg.strip_prefix("--ledger=") {
            return vec![PathBuf::from(path)];
        }
    }
    match std::env::var(LEDGER_ENV) {
        Ok(path) if !path.is_empty() => vec![PathBuf::from(path)],
        _ => vec![
            PathBuf::from(BASELINE_LEDGER_PATH),
            PathBuf::from(DEFAULT_LEDGER_PATH),
        ],
    }
}

/// Latest row per bin matching `baseline`, in first-seen bin order.
fn latest_per_bin(rows: &[LedgerRecord], baseline: bool) -> Vec<LedgerRecord> {
    let mut order: Vec<String> = Vec::new();
    let mut latest: std::collections::BTreeMap<String, LedgerRecord> = Default::default();
    for row in rows.iter().filter(|r| r.baseline == baseline) {
        if !latest.contains_key(&row.bin) {
            order.push(row.bin.clone());
        }
        latest.insert(row.bin.clone(), row.clone());
    }
    order
        .into_iter()
        .filter_map(|bin| latest.remove(&bin))
        .collect()
}

fn main() {
    let paths = ledger_paths();
    let path = &paths[0];
    let promote = std::env::args().skip(1).any(|a| a == "--promote");
    let mut rows = match std::fs::read_to_string(path) {
        Ok(text) => parse_ledger(&text),
        Err(err) => {
            eprintln!("bench_ledger_gate: cannot read {}: {err}", path.display());
            std::process::exit(2);
        }
    };
    // The default append file is absent until a bin has run.
    for extra in &paths[1..] {
        if let Ok(text) = std::fs::read_to_string(extra) {
            rows.extend(parse_ledger(&text));
        }
    }
    if rows.is_empty() {
        eprintln!("bench_ledger_gate: no ledger rows in {}", path.display());
        std::process::exit(2);
    }

    if promote {
        // Reseed: the latest row of every bin becomes the committed
        // baseline (fresh rows win over stale baselines).
        let mut promoted = latest_per_bin(&rows, false);
        for stale in latest_per_bin(&rows, true) {
            if !promoted.iter().any(|r| r.bin == stale.bin) {
                promoted.push(stale);
            }
        }
        let _ = std::fs::remove_file(path);
        for row in &mut promoted {
            row.baseline = true;
            append_record(path, row).expect("rewrite ledger");
        }
        println!(
            "bench_ledger_gate: promoted {} bin(s) to baseline in {}",
            promoted.len(),
            path.display()
        );
        return;
    }

    let policy = GatePolicy {
        tolerance_pct: env_f64("PLLBIST_LEDGER_TOL_PCT", 35.0),
        pct_point_slack: env_f64("PLLBIST_LEDGER_SLACK_PCT_POINTS", 5.0),
        gate_secs: std::env::var("PLLBIST_LEDGER_GATE_SECS").is_ok_and(|v| v == "1"),
    };
    let baselines = latest_per_bin(&rows, true);
    let currents = latest_per_bin(&rows, false);
    println!(
        "bench ledger gate — {} ({} baseline bin(s), {} fresh bin(s), \
         tol {}%, slack {} pct-points, secs {})\n",
        path.display(),
        baselines.len(),
        currents.len(),
        policy.tolerance_pct,
        policy.pct_point_slack,
        if policy.gate_secs { "gated" } else { "ungated" }
    );

    println!(" bin                          | metric                           | baseline     | current      | change    | verdict");
    println!(" -----------------------------+----------------------------------+--------------+--------------+-----------+--------");
    let mut regressions = 0usize;
    let mut compared_bins = 0usize;
    for base in &baselines {
        let Some(current) = currents.iter().find(|c| c.bin == base.bin) else {
            continue;
        };
        compared_bins += 1;
        for cmp in compare_records(base, current, &policy) {
            let verdict = match cmp.verdict {
                Verdict::Ok => "ok",
                Verdict::Skipped => "info",
                Verdict::Regressed => {
                    regressions += 1;
                    "REGRESSED"
                }
            };
            println!(
                " {:<28} | {:<32} | {:>12.4} | {:>12.4} | {:>+8.1}% | {verdict}",
                cmp.bin, cmp.metric, cmp.baseline, cmp.current, cmp.change_pct
            );
        }
    }
    if compared_bins == 0 {
        eprintln!(
            "\nbench_ledger_gate: no bin has both a baseline and a fresh row — \
             run the ablations with --jsonl first (or --promote to seed)"
        );
        std::process::exit(2);
    }
    if regressions > 0 {
        eprintln!("\nbench_ledger_gate: {regressions} metric(s) regressed");
        std::process::exit(1);
    }
    println!("\nbench_ledger_gate: PASS — {compared_bins} bin(s) within tolerance");
}
