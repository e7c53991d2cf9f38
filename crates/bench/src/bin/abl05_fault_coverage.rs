//! **Ablation abl05** — fault-detection coverage of the transfer-function
//! BIST: the standard parametric campaign (marginal + gross severity per
//! fault class) measured with the paper's sweep and judged against
//! golden-calibrated limits at two guard-band widths.
//!
//! Faulty devices are measured one after another; each device's tones
//! fan out across cores on the campaign runner (a work-stealing plan).
//! Each sweep runs under the sweep supervisor, so the
//! whole failure surface flows through one channel — faults that cannot
//! be wired into the chosen topology arrive as
//! `SweepPointError::FaultWiring` next to any runtime divergence or
//! lock-timeout the faulty silicon provokes, and a sick device
//! quarantines its points instead of aborting the campaign.
//!
//! `--jsonl <path>` writes the run report; `--progress` renders an
//! in-place status line as fault measurements complete.

use pllbist::estimate::{LimitComparator, ParameterEstimate};
use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_analog::fault::Fault;
use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, Scheduler, SupervisorPolicy, SweepPointError};
use pllbist_telemetry::{fields, ProgressBoard, Record, RunReport};
use std::sync::Arc;

fn main() {
    let mut report = RunReport::from_args("abl05_fault_coverage");
    let golden_cfg = PllConfig::paper_table3();
    let policy = SupervisorPolicy::default();
    let monitor = TransferFunctionMonitor::new(MonitorSettings {
        mod_frequencies_hz: pllbist_sim::bench_measure::log_spaced(1.0, 30.0, 8),
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        ..MonitorSettings::fast()
    });
    // Each device runs a supervised plan whose tones fan out across
    // every core.
    let telemetry_cfg = report.telemetry_config();
    let device_plan = |cfg: &PllConfig| {
        CampaignPlan::new(cfg.clone())
            .supervised(policy.clone())
            .scheduler(Scheduler::WorkStealing { threads: 0 })
            .telemetry(telemetry_cfg.clone())
    };
    let golden_result = monitor.measure(&device_plan(&golden_cfg));
    report.extend(golden_result.telemetry.clone());
    let golden = golden_result
        .estimate()
        .expect("golden device measures cleanly");
    let fng = golden.natural_frequency_hz.expect("golden fn");
    let zg = golden.damping.expect("golden ζ");
    println!("abl05 — fault coverage (golden: fn = {fng:.2} Hz, ζ = {zg:.3})\n");

    let tight = LimitComparator::around(fng, zg, 0.10);
    let loose = LimitComparator::around(fng, zg, 0.25);

    // One supervised faulty sweep per campaign entry, in order. Each
    // sweep's telemetry rides back with its estimate; wiring failures
    // convert into the same typed error space as runtime failures.
    let campaign = Fault::standard_campaign();
    // Coarse `--progress` feed: one board tick per faulty device (the
    // sweep inside stays unobserved — observation must not perturb it).
    let board = Arc::new(ProgressBoard::new(campaign.len(), 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl05 fault campaign",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );
    type FaultOutcome =
        Result<(Option<ParameterEstimate>, usize, usize, Vec<Record>), SweepPointError>;
    let results: Vec<(Fault, FaultOutcome)> = campaign
        .iter()
        .map(|&fault| {
            let started = std::time::Instant::now();
            let est = golden_cfg
                .with_fault(fault)
                .map_err(SweepPointError::from)
                .map(|cfg| {
                    let result = monitor.measure(&device_plan(&cfg));
                    (
                        // A fully quarantined device is a typed
                        // DegenerateFit; it fails the BIST outright
                        // below, same as an unfittable estimate.
                        result.estimate().ok(),
                        result.quarantined_count(),
                        result.incidents.len(),
                        result.telemetry,
                    )
                });
            board.point_done(0, est.is_ok(), started.elapsed().as_secs_f64());
            (fault, est)
        })
        .collect();
    drop(progress);

    println!(" fault                            | fn (Hz) |   ζ    | ±10 % | ±25 % | quar");
    println!(" ---------------------------------+---------+--------+-------+-------+-----");
    let mut caught = [0usize; 2];
    let mut total = 0usize;
    let mut quarantined_points = 0usize;
    let mut incident_count = 0usize;
    let mut skipped = Vec::new();
    for (fault, est) in results {
        let (est, quarantined, incidents, telemetry) = match est {
            Ok(ok) => ok,
            Err(e) => {
                skipped.push(format!("{fault}: [{}] {e}", e.kind()));
                continue;
            }
        };
        report.extend(telemetry);
        quarantined_points += quarantined;
        incident_count += incidents;
        total += 1;
        // A device so sick the supervised sweep cannot extract any
        // estimate fails the BIST outright at every guard band.
        let (vt_pass, vl_pass) = match &est {
            Some(e) => (tight.judge(e).pass, loose.judge(e).pass),
            None => (false, false),
        };
        if !vt_pass {
            caught[0] += 1;
        }
        if !vl_pass {
            caught[1] += 1;
        }
        let (fn_hz, damping) = est
            .as_ref()
            .map(|e| {
                (
                    e.natural_frequency_hz.unwrap_or(f64::NAN),
                    e.damping.unwrap_or(f64::NAN),
                )
            })
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            " {:<33} | {:>7.2} | {:>6.3} | {:<5} | {:<5} | {}",
            fault.to_string(),
            fn_hz,
            damping,
            if vt_pass { "pass" } else { "FAIL" },
            if vl_pass { "pass" } else { "FAIL" },
            quarantined,
        );
        report.result(
            "fault_verdict",
            fields![
                fault = fault.to_string(),
                fn_hz = fn_hz,
                damping = damping,
                pass_tight = vt_pass,
                pass_loose = vl_pass,
                quarantined = quarantined,
                incidents = incidents
            ],
        );
    }
    println!(
        "\ncoverage: ±10 % limits catch {}/{total}; ±25 % limits catch {}/{total}",
        caught[0], caught[1]
    );
    for s in &skipped {
        println!("skipped (not wireable in this topology): {s}");
    }
    if quarantined_points > 0 || incident_count > 0 {
        println!(
            "supervisor: {quarantined_points} quarantined points, \
             {incident_count} incidents across the campaign"
        );
    }
    println!(
        "shape check: gross severities are caught even with wide guard bands;\n\
         marginal ones need tight limits — the classic coverage/yield trade."
    );
    report.result(
        "coverage",
        fields![
            total = total,
            caught_tight = caught[0],
            caught_loose = caught[1],
            skipped = skipped.len(),
            quarantined_points = quarantined_points,
            incidents = incident_count
        ],
    );
    report.finish().expect("write --jsonl output");
}
