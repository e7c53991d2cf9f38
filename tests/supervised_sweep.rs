//! Cross-crate contract tests for the supervised campaign pipeline:
//! panic containment at every thread count, bitwise identity of healthy
//! runs (bench sweep and BIST monitor, telemetry on), full quarantine of
//! a numerically sick device, and a seeded property over random fault
//! placements — all phrased as [`CampaignPlan`]s lowered onto the single
//! `run_plan` executor.

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_sim::bench_measure::{run_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::error::quiet_contained_panics;
use pllbist_sim::{
    run_plan, CampaignPlan, ClosedFormPll, NullCodec, PllEngine, Scheduler, SupervisorPolicy,
    SweepPointError,
};
use pllbist_telemetry::TelemetryConfig;
use pllbist_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Seeds a contained worker panic: a typed payload, so the supervisor
/// records it as a `WorkerPanic` incident and
/// [`quiet_contained_panics`] keeps it out of the test log, while any
/// other panic (a failed assertion included) still reports.
fn seeded_panic(message: String) -> ! {
    std::panic::panic_any(SweepPointError::WorkerPanic { message })
}

fn sched(threads: usize) -> Scheduler {
    if threads <= 1 {
        Scheduler::Serial
    } else {
        Scheduler::WorkStealing { threads }
    }
}

#[test]
fn injected_panic_is_contained_at_every_thread_count() {
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 4.0, 8.0, 16.0, 32.0];
    let mut runs = Vec::new();
    quiet_contained_panics();
    for threads in [1usize, 4] {
        let plan = CampaignPlan::new(cfg.clone())
            .engine::<ClosedFormPll>()
            .lock_settle(0.1)
            .supervised(SupervisorPolicy::default())
            .scheduler(sched(threads));
        let swept = run_plan(&plan, &tones, NullCodec::<f64>::new(), "panic-test", {
            |pll, _index, fm, _tel| {
                if fm == 8.0 {
                    seeded_panic(format!("seeded panic at {fm} Hz"));
                }
                let t = pll.time();
                pll.advance_to(t + 0.05);
                Ok(pll.control_voltage())
            }
        })
        .expect("no campaign log in play");
        assert_eq!(swept.points.len(), tones.len(), "threads {threads}");
        for (point, &fm) in swept.points.iter().zip(&tones) {
            match point {
                Ok(v) => {
                    assert!(fm != 8.0 && v.is_finite(), "threads {threads}, tone {fm}")
                }
                Err(SweepPointError::WorkerPanic { message }) => {
                    assert_eq!(fm, 8.0, "threads {threads}");
                    assert!(message.contains("seeded panic"), "{message}");
                }
                Err(other) => panic!("threads {threads}: unexpected error {other}"),
            }
        }
        // Panics are never retried: exactly one incident.
        assert_eq!(swept.incidents.len(), 1, "threads {threads}");
        runs.push(swept);
    }
    // Healthy points are bitwise identical across thread counts.
    for (a, b) in runs[0].points.iter().zip(&runs[1].points) {
        if let (Ok(x), Ok(y)) = (a, b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn supervised_bench_sweep_is_bitwise_identical_with_telemetry_on() {
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 8.0, 20.0];
    let settings = BenchSettings {
        settle_periods: 2.0,
        measure_periods: 2.0,
        ..BenchSettings::default()
    };
    for threads in [1usize, 4] {
        let plan = CampaignPlan::new(cfg.clone())
            .scheduler(sched(threads))
            .telemetry(TelemetryConfig::enabled());
        let legacy = run_sweep(&plan, &tones, &settings).expect("healthy sweep");
        let supervised = run_sweep(
            &plan.clone().supervised(SupervisorPolicy::default()),
            &tones,
            &settings,
        )
        .expect("healthy sweep");
        assert!(supervised.incidents.is_empty(), "threads {threads}");
        assert_eq!(supervised.points.len(), legacy.points.len());
        for (got, want) in supervised.ok_points().iter().zip(&legacy.ok_points()) {
            assert_eq!(got.f_mod_hz, want.f_mod_hz);
            assert_eq!(
                got.gain.to_bits(),
                want.gain.to_bits(),
                "threads {threads}: gain at {} Hz",
                want.f_mod_hz
            );
            assert_eq!(
                got.phase.to_bits(),
                want.phase.to_bits(),
                "threads {threads}: phase at {} Hz",
                want.f_mod_hz
            );
        }
    }
}

#[test]
fn supervised_monitor_is_bitwise_identical_with_telemetry_on() {
    let cfg = PllConfig::paper_table3();
    for threads in [1usize, 4] {
        let settings = MonitorSettings {
            mod_frequencies_hz: vec![1.0, 8.0, 25.0],
            settle_periods: 2.5,
            loop_settle_secs: 0.25,
            capture_transcript: true,
            ..MonitorSettings::fast()
        };
        let plan = CampaignPlan::new(cfg.clone())
            .scheduler(sched(threads))
            .telemetry(TelemetryConfig::enabled());
        let monitor = TransferFunctionMonitor::new(settings);
        let baseline = monitor.measure(&plan).expect_healthy();
        let supervised = monitor.measure(&plan.clone().supervised(SupervisorPolicy::default()));
        assert!(supervised.incidents.is_empty(), "threads {threads}");
        assert_eq!(supervised.nominal, Ok(baseline.nominal));
        for (got, want) in supervised.points.iter().zip(&baseline.points) {
            assert_eq!(got.as_ref().ok(), Some(want), "threads {threads}");
        }
        assert_eq!(
            supervised.transcript, baseline.transcript,
            "threads {threads}"
        );
    }
}

#[test]
fn nan_device_is_fully_quarantined_without_aborting() {
    let mut cfg = PllConfig::paper_table3();
    cfg.vco_curvature = (f64::NAN, 0.0);
    let tones = [2.0, 8.0, 20.0];
    let settings = BenchSettings {
        settle_periods: 2.0,
        measure_periods: 2.0,
        ..BenchSettings::default()
    };
    let plan = CampaignPlan::new(cfg)
        .scheduler(Scheduler::WorkStealing { threads: 2 })
        .supervised(SupervisorPolicy::default());
    quiet_contained_panics();
    let run = run_sweep(&plan, &tones, &settings).expect("quarantine, not abort");
    assert_eq!(run.points.len(), tones.len());
    assert_eq!(run.quarantined_count(), tones.len());
    assert!(run
        .points
        .iter()
        .all(|p| matches!(p, Err(SweepPointError::NumericalDivergence { .. }))));
    // An all-quarantined sweep is a typed DegenerateFit, not an empty
    // plot a downstream fitter would silently accept.
    assert!(matches!(
        run.to_bode(),
        Err(SweepPointError::DegenerateFit { .. })
    ));
    // Every point exhausted its deterministic retry budget.
    assert_eq!(
        run.incidents.len(),
        tones.len() * (SupervisorPolicy::MAX_RETRIES as usize + 1)
    );
}

#[test]
fn supervised_sweep_always_completes_with_random_fault_placement() {
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 3.0, 9.0, 27.0];
    quiet_contained_panics();
    prop_check!(cases: 16, |g| {
        // One case flavor injects NaN into the device itself (the
        // behavioral engine's guarded state diverges); the others
        // seed a panic or a typed failure into one capture.
        if g.u32_range(0, 3) == 0 {
            let mut nan_cfg = cfg.clone();
            nan_cfg.vco_curvature = (f64::NAN, 0.0);
            let threads = g.pick(&[1usize, 2, 4]);
            let policy = SupervisorPolicy::default();
            let plan = CampaignPlan::new(nan_cfg)
                .lock_settle(0.1)
                .supervised(policy.clone())
                .scheduler(sched(threads));
            let swept =
                run_plan(&plan, &tones, NullCodec::<f64>::new(), "prop-nan", |pll, _, _fm, _| {
                    let t = pll.time();
                    pll.advance_to(t + 0.02);
                    Ok(pll.control_voltage())
                })
                .expect("no campaign log in play");
            prop_assert_eq!(swept.points.len(), tones.len());
            prop_assert_eq!(
                swept.points.iter().filter(|p| p.is_err()).count(),
                tones.len()
            );
            for point in &swept.points {
                let kind = point.as_ref().err().map(|e| e.kind());
                prop_assert_eq!(kind, Some("numerical_divergence"));
            }
            prop_assert_eq!(
                swept.incidents.len(),
                tones.len() * (SupervisorPolicy::MAX_RETRIES as usize + 1)
            );
            return Ok(());
        }
        let sick = g.usize_range(0, tones.len() - 1);
        let threads = g.pick(&[1usize, 2, 4]);
        let as_panic = g.bool();
        let policy = SupervisorPolicy::default();
        let plan = CampaignPlan::new(cfg.clone())
            .engine::<ClosedFormPll>()
            .lock_settle(0.1)
            .supervised(policy.clone())
            .scheduler(sched(threads));
        let swept =
            run_plan(&plan, &tones, NullCodec::<f64>::new(), "prop-fault", |pll, _, fm, _| {
                if fm == tones[sick] {
                    if as_panic {
                        seeded_panic("seeded panic".to_string());
                    }
                    return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
                }
                let t = pll.time();
                pll.advance_to(t + 0.02);
                Ok(pll.control_voltage())
            })
            .expect("no campaign log in play");
        prop_assert_eq!(swept.points.len(), tones.len());
        prop_assert_eq!(swept.points.iter().filter(|p| p.is_err()).count(), 1);
        for (point, &fm) in swept.points.iter().zip(&tones) {
            if fm == tones[sick] {
                prop_assert!(point.is_err());
                let kind = point.as_ref().err().map(|e| e.kind());
                if as_panic {
                    prop_assert_eq!(kind, Some("worker_panic"));
                } else {
                    prop_assert_eq!(kind, Some("degenerate_fit"));
                }
            } else {
                prop_assert!(point.is_ok());
            }
        }
        // Retryable faults burn the retry budget; panics never retry.
        let want_incidents = if as_panic {
            1
        } else {
            SupervisorPolicy::MAX_RETRIES as usize + 1
        };
        prop_assert_eq!(swept.incidents.len(), want_incidents);
        Ok(())
    });
}
