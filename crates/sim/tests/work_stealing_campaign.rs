//! Contract tests for the work-stealing campaign stack: bitwise
//! identity of supervised sweeps at every thread count (telemetry on),
//! agreement between the work-stealing and serial schedulers with
//! contained failures, and byte-identical resume of a killed campaign
//! results file — including quarantined points — across thread counts.

use pllbist_sim::bench_measure::{run_sweep, BenchSettings};
use pllbist_sim::campaign::CampaignLog;
use pllbist_sim::config::PllConfig;
use pllbist_sim::scenario::Scenario;
use pllbist_sim::{
    CampaignPlan, ClosedFormPll, PllEngine, Scheduler, SupervisorPolicy, SweepPointError,
    VoltsCodec,
};
use pllbist_telemetry::{Collector, TelemetryConfig};
use std::path::PathBuf;

fn quick_settings() -> BenchSettings {
    BenchSettings {
        settle_periods: 1.0,
        measure_periods: 2.0,
        samples_per_period: 32,
        ..BenchSettings::default()
    }
}

fn quick_plan(cfg: &PllConfig, threads: usize) -> CampaignPlan {
    let scheduler = if threads == 1 {
        Scheduler::Serial
    } else {
        Scheduler::WorkStealing { threads }
    };
    CampaignPlan::new(cfg.clone())
        .scheduler(scheduler)
        .supervised(SupervisorPolicy::default())
        .telemetry(TelemetryConfig::enabled())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pllbist_campaign_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn supervised_campaign_is_bitwise_identical_at_threads_1_4_16() {
    // The standing invariant, now under the work-stealing scheduler:
    // telemetry + supervision enabled, any thread count, same bits.
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 5.0, 11.0, 24.0];
    let baseline = run_sweep(&quick_plan(&cfg, 1), &tones, &quick_settings()).unwrap();
    assert_eq!(baseline.quarantined_count(), 0);
    for threads in [4usize, 16] {
        let run = run_sweep(&quick_plan(&cfg, threads), &tones, &quick_settings()).unwrap();
        assert!(run.incidents.is_empty(), "threads {threads}");
        assert!(!run.telemetry.is_empty(), "threads {threads}");
        for (i, (a, b)) in baseline.points.iter().zip(&run.points).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(
                a.gain.to_bits(),
                b.gain.to_bits(),
                "threads {threads}: gain at point {i}"
            );
            assert_eq!(
                a.phase.to_bits(),
                b.phase.to_bits(),
                "threads {threads}: phase at point {i}"
            );
        }
    }
}

/// Two supervised sweeps must agree outcome-for-outcome: healthy values
/// bit-for-bit, quarantined errors variant-for-variant.
fn assert_same_outcomes(
    a: &[Result<f64, SweepPointError>],
    b: &[Result<f64, SweepPointError>],
    label: &str,
) {
    assert_eq!(a.len(), b.len(), "{label}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (Ok(vx), Ok(vy)) => assert_eq!(vx.to_bits(), vy.to_bits(), "{label}: point {i}"),
            (Err(ex), Err(ey)) => assert_eq!(ex, ey, "{label}: point {i}"),
            _ => panic!("{label}: point {i} ok/err disagreement"),
        }
    }
}

#[test]
fn stealing_scheduler_matches_serial_with_contained_failures() {
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let policy = SupervisorPolicy::default();
    let scenario = Scenario::with_lock_settle(&cfg, 0.1);
    let capture = |pll: &mut pllbist_sim::Supervised<ClosedFormPll>,
                   fm: f64|
     -> Result<f64, SweepPointError> {
        let t = pll.time();
        pll.advance_to(t + 0.02);
        if fm == 8.0 {
            // Typed, retryable: every thread count walks the same
            // deterministic retry ladder before quarantining.
            return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
        }
        Ok(pll.control_voltage())
    };
    let tel = Collector::disabled();
    let run = |threads: usize| {
        scenario.run_points::<ClosedFormPll, pllbist_sim::NullCodec<f64>, _>(
            &tones,
            threads,
            true,
            Some(&policy),
            &tel,
            None,
            None,
            None,
            capture,
        )
    };
    let serial = run(1);
    assert_eq!(serial.quarantined_count(), 1);
    assert_eq!(
        serial.incidents.len(),
        SupervisorPolicy::MAX_RETRIES as usize + 1
    );
    for threads in [4usize, 16] {
        let stealing = run(threads);
        assert_same_outcomes(
            &serial.points,
            &stealing.points,
            &format!("threads {threads}"),
        );
        assert_eq!(stealing.incidents.len(), serial.incidents.len());
    }
}

#[test]
fn killed_bench_campaign_resumes_byte_identically_at_every_thread_count() {
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 6.0, 14.0, 28.0];
    let path = tmp("bench_kill_resume.jsonl");
    // The lock sidecar too, so the reference run settles from cold.
    let sidecar = path.with_extension("ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);

    // Uninterrupted reference run.
    let reference_run = run_sweep(
        &quick_plan(&cfg, 1).resume_from(&path),
        &tones,
        &quick_settings(),
    )
    .expect("reference run");
    assert_eq!(reference_run.quarantined_count(), 0);
    let reference = std::fs::read(&path).expect("results file");
    let lines: Vec<String> = std::str::from_utf8(&reference)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 2 + tones.len());

    for (kill_after, resume_threads) in [(1usize, 4usize), (2, 16), (3, 1)] {
        // A kill mid-write leaves a clean prefix plus one torn line.
        let mut killed = lines[..2 + kill_after].join("\n");
        killed.push('\n');
        killed.push_str("{\"type\":\"result\",\"name\":\"campaign.po");
        std::fs::write(&path, &killed).expect("write killed file");

        let resumed = run_sweep(
            &quick_plan(&cfg, resume_threads).resume_from(&path),
            &tones,
            &quick_settings(),
        )
        .expect("resumed run");
        for (a, b) in reference_run.points.iter().zip(&resumed.points) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.gain.to_bits(), b.gain.to_bits());
            assert_eq!(a.phase.to_bits(), b.phase.to_bits());
        }
        assert_eq!(
            std::fs::read(&path).expect("resumed file"),
            reference,
            "killed after {kill_after}, resumed on {resume_threads} threads"
        );
    }
    std::fs::remove_file(&path).expect("cleanup");
    let _ = std::fs::remove_file(&sidecar);
}

#[test]
fn resumed_campaign_with_quarantined_points_stays_byte_identical() {
    // Quarantined outcomes are part of the results file; a resume must
    // reproduce their lines exactly too.
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 3.0, 9.0, 27.0, 81.0];
    let policy = SupervisorPolicy::default();
    let scenario = Scenario::with_lock_settle(&cfg, 0.1);
    let digest = "abl12test00000001".chars().take(16).collect::<String>();
    let path = tmp("sick_kill_resume.jsonl");
    let _ = std::fs::remove_file(&path);
    let capture = |pll: &mut pllbist_sim::Supervised<ClosedFormPll>,
                   fm: f64|
     -> Result<f64, SweepPointError> {
        let t = pll.time();
        pll.advance_to(t + 0.02);
        if fm == 9.0 {
            return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
        }
        Ok(pll.control_voltage())
    };
    let run = |threads: usize| {
        let log =
            CampaignLog::open(&path, VoltsCodec, digest.clone(), tones.len()).expect("open log");
        let tel = Collector::disabled();
        let swept = scenario.run_points::<ClosedFormPll, VoltsCodec, _>(
            &tones,
            threads,
            true,
            Some(&policy),
            &tel,
            Some(&log),
            None,
            None,
            capture,
        );
        log.finish(true).expect("complete");
        swept
    };

    let reference_run = run(1);
    assert_eq!(reference_run.quarantined_count(), 1);
    let reference = std::fs::read(&path).expect("results file");
    let lines: Vec<String> = std::str::from_utf8(&reference)
        .expect("utf8")
        .lines()
        .map(str::to_string)
        .collect();

    // Kill right after the quarantined point's line landed, so the
    // resume must both skip a quarantined record and recompute healthy
    // ones — then again before it, so it must recompute the failure.
    for (kill_after, resume_threads) in [(3usize, 4usize), (2, 16), (1, 1)] {
        let mut killed = lines[..2 + kill_after].join("\n");
        killed.push('\n');
        killed.push_str("{\"type\":\"result\",\"na");
        std::fs::write(&path, &killed).expect("write killed file");
        let resumed = run(resume_threads);
        assert_same_outcomes(
            &reference_run.points,
            &resumed.points,
            &format!("kill {kill_after}, threads {resume_threads}"),
        );
        assert_eq!(
            std::fs::read(&path).expect("resumed file"),
            reference,
            "killed after {kill_after}, resumed on {resume_threads} threads"
        );
    }
    std::fs::remove_file(&path).expect("cleanup");
}
