//! **Ablation abl11** — fault-tolerant campaign execution under the
//! sweep supervisor.
//!
//! Four devices run the same supervised sweeps: a healthy paper loop, a
//! numerically sick one (NaN VCO curvature poisons the control path), a
//! detuned one that can never re-acquire lock inside its timeout, and a
//! capture path with seeded panics on part of the sweep. The campaign
//! must complete **100 %** of its points — healthy points bitwise
//! identical to the unsupervised run, sick ones quarantined in place
//! with typed errors after the policy's deterministic retries — and the
//! run never aborts.
//!
//! `--jsonl <path>` records per-device quarantine counts and the full
//! incident tally alongside the usual run report; `--progress` renders
//! an in-place status line as each device's sweep lands.

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::error::quiet_contained_panics;
use pllbist_sim::lock::{wait_for_lock, LockDetector};
use pllbist_sim::scenario::Scenario;
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{
    CampaignPlan, NullCodec, PllEngine, Scheduler, SupervisorPolicy, SweepPointError,
};
use pllbist_telemetry::{fields, Collector, ProgressBoard, RunReport};
use std::sync::Arc;

fn main() {
    // The injected faults below panic by design, with typed payloads
    // the supervisor contains; keep their reports out of the campaign
    // log and let any other panic report as usual.
    quiet_contained_panics();

    let mut report = RunReport::from_args("abl11_fault_tolerant_campaign");
    let policy = SupervisorPolicy::default();
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 4.0, 8.0, 12.0, 20.0, 30.0];
    let mut failures = 0usize;
    let mut total_points = 0usize;
    let mut total_quarantined = 0usize;
    let mut total_incidents = 0usize;
    println!(
        "abl11 — fault-tolerant campaign ({} tones per device)\n",
        tones.len()
    );
    println!(" device            | points | ok | quarantined | incidents | dominant error");
    println!(" ------------------+--------+----+-------------+-----------+---------------");

    let row = |name: &str,
               points: usize,
               ok: usize,
               incidents: &[pllbist_sim::Incident],
               report: &mut RunReport| {
        let quarantined = points - ok;
        let dominant = incidents
            .iter()
            .map(|i| i.error.kind())
            .fold((None, 0usize), |best, kind| {
                let n = incidents.iter().filter(|i| i.error.kind() == kind).count();
                if n > best.1 {
                    (Some(kind), n)
                } else {
                    best
                }
            })
            .0
            .unwrap_or("-");
        println!(
            " {:<17} | {:>6} | {:>2} | {:>11} | {:>9} | {}",
            name,
            points,
            ok,
            quarantined,
            incidents.len(),
            dominant
        );
        report.result(
            "device",
            fields![
                device = name,
                points = points,
                ok = ok,
                quarantined = quarantined,
                incidents = incidents.len(),
                dominant_error = dominant
            ],
        );
        (points, quarantined, incidents.len())
    };
    // Coarse `--progress` feed: the board ticks once per device's worth
    // of points as each supervised sweep lands.
    let board = Arc::new(ProgressBoard::new(4 * tones.len(), 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl11 fault-tolerant campaign",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );
    let tick_board = Arc::clone(&board);
    let mut tally = |r: (usize, usize, usize), failed: bool| {
        tick_board.points_done_bulk(0, (r.0 - r.1) as u64, r.1 as u64);
        total_points += r.0;
        total_quarantined += r.1;
        total_incidents += r.2;
        if failed {
            failures += 1;
        }
    };

    // Device 1: healthy loop through the full BIST monitor. Supervision
    // must be invisible — bitwise identical points, zero incidents.
    let settings = MonitorSettings {
        mod_frequencies_hz: tones.to_vec(),
        settle_periods: 2.5,
        loop_settle_secs: 0.25,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);
    let telemetry_cfg = report.telemetry_config();
    let serial_plan = move |device_cfg: &PllConfig| {
        CampaignPlan::new(device_cfg.clone())
            .scheduler(Scheduler::Serial)
            .telemetry(telemetry_cfg.clone())
    };
    let ok_count = |points: &[Result<pllbist::monitor::MonitorPoint, SweepPointError>]| {
        points.iter().filter(|p| p.is_ok()).count()
    };
    let baseline = monitor.measure(&serial_plan(&cfg)).expect_healthy();
    let healthy = monitor.measure(&serial_plan(&cfg).supervised(policy.clone()));
    report.extend(healthy.telemetry.clone());
    let bitwise_ok = healthy.points.len() == baseline.points.len()
        && healthy
            .points
            .iter()
            .zip(&baseline.points)
            .all(|(got, want)| got.as_ref().ok() == Some(want));
    let r = row(
        "healthy",
        healthy.points.len(),
        ok_count(&healthy.points),
        &healthy.incidents,
        &mut report,
    );
    tally(
        r,
        !bitwise_ok || ok_count(&healthy.points) != tones.len() || !healthy.incidents.is_empty(),
    );

    // Device 2: NaN VCO curvature — the control path diverges on the
    // first guarded step; every point quarantines as
    // numerical_divergence and the sweep still finishes.
    let mut sick_cfg = cfg.clone();
    sick_cfg.vco_curvature = (f64::NAN, 0.0);
    let sick = monitor.measure(&serial_plan(&sick_cfg).supervised(policy.clone()));
    report.extend(sick.telemetry.clone());
    let sick_typed = sick
        .points
        .iter()
        .all(|p| matches!(p, Err(SweepPointError::NumericalDivergence { .. })));
    let r = row(
        "nan_vco",
        sick.points.len(),
        ok_count(&sick.points),
        &sick.incidents,
        &mut report,
    );
    tally(r, ok_count(&sick.points) != 0 || !sick_typed);

    // Device 3: lock watchdog — every point demands a re-lock onto a
    // detuning far outside the capture range, under a timeout that can
    // never be met. Retries (scaled step, extended settle) are attempted
    // deterministically, then the point quarantines as lock_timeout.
    let tel = Collector::from_config(&report.telemetry_config());
    let scenario = Scenario::with_lock_settle(&cfg, 0.1);
    let detuned = scenario.run_points::<CpPll, NullCodec<()>, _>(
        &tones,
        0,
        true,
        Some(&policy),
        &tel,
        None,
        None,
        None,
        |pll, _fm| {
            pll.set_stimulus(FmStimulus::constant(1_000.0, 150.0));
            let mut detector = LockDetector::new(20e-6, 64);
            wait_for_lock(pll, &mut detector, 0.02).map(|_| ())
        },
    );
    report.extend(tel.drain());
    let detuned_typed = detuned
        .points
        .iter()
        .all(|p| matches!(p, Err(SweepPointError::LockTimeout { .. })));
    let retried = detuned
        .incidents
        .iter()
        .filter(|i| matches!(i.action, pllbist_sim::IncidentAction::Retried))
        .count();
    let r = row(
        "lock_timeout",
        detuned.points.len(),
        detuned.ok_count(),
        &detuned.incidents,
        &mut report,
    );
    // Every point climbs the full retry ladder before quarantine.
    let want_retries = tones.len() * SupervisorPolicy::MAX_RETRIES as usize;
    tally(
        r,
        detuned.ok_count() != 0 || !detuned_typed || retried != want_retries,
    );

    // Device 4: seeded panics — the capture path panics outright on the
    // high tones. Panics are contained per point, never retried
    // (non-deterministic by definition), and the low tones still
    // measure.
    let tel = Collector::from_config(&report.telemetry_config());
    let panicky = scenario.run_points::<CpPll, NullCodec<f64>, _>(
        &tones,
        0,
        true,
        Some(&policy),
        &tel,
        None,
        None,
        None,
        |pll, fm| {
            if fm >= 20.0 {
                std::panic::panic_any(SweepPointError::WorkerPanic {
                    message: format!("seeded fault in point task at {fm} Hz"),
                });
            }
            let t = pll.time();
            pll.advance_to(t + 0.05);
            Ok(pll.control_voltage())
        },
    );
    report.extend(tel.drain());
    let seeded = tones.iter().filter(|&&fm| fm >= 20.0).count();
    let panics_typed = panicky.points.iter().zip(&tones).all(|(p, &fm)| match p {
        Ok(_) => fm < 20.0,
        Err(SweepPointError::WorkerPanic { message }) => {
            fm >= 20.0 && message.contains("seeded fault")
        }
        Err(_) => false,
    });
    let r = row(
        "seeded_panic",
        panicky.points.len(),
        panicky.ok_count(),
        &panicky.incidents,
        &mut report,
    );
    tally(
        r,
        panicky.ok_count() != tones.len() - seeded
            || !panics_typed
            || panicky.incidents.len() != seeded,
    );

    drop(progress);
    let completed = total_points == 4 * tones.len();
    println!(
        "\ncompletion: {total_points}/{} points returned ({} quarantined, {} incidents)",
        4 * tones.len(),
        total_quarantined,
        total_incidents
    );
    println!(
        "healthy bitwise identical to unsupervised: {}",
        if bitwise_ok { "yes" } else { "NO" }
    );
    report.result(
        "campaign",
        fields![
            devices = 4u64,
            points = total_points,
            quarantined = total_quarantined,
            incidents = total_incidents,
            bitwise_identical = bitwise_ok,
            failures = failures
        ],
    );
    report.finish().expect("write --jsonl output");
    assert!(completed, "campaign must complete every point");
    assert_eq!(failures, 0, "per-device supervision contract violated");
    println!("abl11: PASS — zero aborts, all failures typed and quarantined");
}
