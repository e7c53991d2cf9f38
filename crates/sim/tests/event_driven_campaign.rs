//! Contract tests for the behavioural backend on its closed-form
//! (event-driven) segments under the full campaign stack: supervision, telemetry, checkpointing, observation and
//! resumable results files must neither steer the physics nor break the
//! standing invariant — healthy runs are bitwise identical at every
//! thread count, and a killed campaign resumes byte-identically.

use std::path::PathBuf;
use std::sync::Arc;

use pllbist_sim::bench_measure::{measure_sweep_points, run_sweep, BenchSettings};
use pllbist_sim::campaign::CampaignLog;
use pllbist_sim::config::PllConfig;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::scenario::Scenario;
use pllbist_sim::CpPll;
use pllbist_sim::{
    CampaignPlan, PllEngine, Scheduler, SupervisorPolicy, SweepPointError, VoltsCodec,
};
use pllbist_telemetry::{Collector, TelemetryConfig};

fn quick_settings() -> BenchSettings {
    BenchSettings {
        settle_periods: 1.0,
        measure_periods: 2.0,
        samples_per_period: 32,
        ..BenchSettings::default()
    }
}

fn event_plan(cfg: &PllConfig, threads: usize) -> CampaignPlan<CpPll> {
    let scheduler = if threads == 1 {
        Scheduler::Serial
    } else {
        Scheduler::WorkStealing { threads }
    };
    CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .scheduler(scheduler)
        .supervised(SupervisorPolicy::default())
        .telemetry(TelemetryConfig::enabled())
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pllbist_event_campaign_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn supervised_event_campaign_is_bitwise_identical_at_threads_1_4_16() {
    // The standing invariant on the new backend: supervision + telemetry
    // + lock checkpointing enabled, any thread count, same bits.
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 5.0, 11.0, 24.0];
    let baseline = run_sweep(&event_plan(&cfg, 1), &tones, &quick_settings()).unwrap();
    assert_eq!(baseline.quarantined_count(), 0);
    // Supervision itself observes without steering: the bare sweep
    // produces the same bits.
    let bare_plan = event_plan(&cfg, 1).unsupervised();
    let bare = measure_sweep_points(&bare_plan, &tones, &quick_settings());
    for (a, b) in baseline.points.iter().zip(&bare) {
        let a = a.as_ref().unwrap();
        assert_eq!(a.gain.to_bits(), b.gain.to_bits());
        assert_eq!(a.phase.to_bits(), b.phase.to_bits());
    }
    for threads in [4usize, 16] {
        let run = run_sweep(&event_plan(&cfg, threads), &tones, &quick_settings()).unwrap();
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

#[test]
fn killed_event_campaign_resumes_byte_identically_at_every_thread_count() {
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 6.0, 14.0, 28.0];
    let path = tmp("event_kill_resume.jsonl");
    // The lock sidecar too, so the reference run settles from cold.
    let sidecar = path.with_extension("ckpt");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&sidecar);

    let reference_run = run_sweep(
        &event_plan(&cfg, 1).resume_from(&path),
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
        let mut killed = lines[..2 + kill_after].join("\n");
        killed.push('\n');
        killed.push_str("{\"type\":\"result\",\"name\":\"campaign.po");
        std::fs::write(&path, &killed).expect("write killed file");

        let resumed = run_sweep(
            &event_plan(&cfg, resume_threads).resume_from(&path),
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

const TONES: [f64; 6] = [1.0, 3.0, 7.0, 9.0, 21.0, 55.0];
const SICK_TONE: f64 = 9.0;

fn capture(pll: &mut pllbist_sim::Supervised<CpPll>, fm: f64) -> Result<f64, SweepPointError> {
    let t = pll.time();
    pll.advance_to(t + 0.02);
    if fm == SICK_TONE {
        // One typed, deterministic failure so the observed run carries
        // real retry and quarantine traffic on the closed-form path too.
        return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
    }
    Ok(pll.control_voltage())
}

fn run_observed(path: &PathBuf, threads: usize, observer: Option<&CampaignObserver>) -> usize {
    let cfg = PllConfig::paper_table3();
    let scenario = Scenario::with_lock_settle(&cfg, 0.1);
    let policy = SupervisorPolicy::default();
    let tel = Collector::disabled();
    let log = CampaignLog::open(path, VoltsCodec, "evobs00000000001".into(), TONES.len())
        .expect("open log");
    let swept = scenario.run_points::<CpPll, VoltsCodec, _>(
        &TONES,
        threads,
        true,
        Some(&policy),
        &tel,
        Some(&log),
        None,
        observer,
        capture,
    );
    log.finish(true).expect("complete");
    swept.quarantined_count()
}

#[test]
fn observed_event_campaign_is_byte_identical_to_unobserved() {
    // The observed work-stealing path on the new backend: progress board
    // + flight recorder attached, a sick point quarantining on every
    // run, and the results file must still match the unobserved
    // single-thread reference byte for byte.
    let reference_path = tmp("event_plain.jsonl");
    let _ = std::fs::remove_file(&reference_path);
    assert_eq!(run_observed(&reference_path, 1, None), 1);
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    for threads in [1usize, 4, 16] {
        let path = tmp(&format!("event_observed_t{threads}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let observer = Arc::new(CampaignObserver::new(
            TONES.len(),
            threads,
            ObservatoryConfig::default(),
        ));
        let quarantined = run_observed(&path, threads, Some(&observer));
        assert_eq!(quarantined, 1, "threads {threads}");
        assert_eq!(
            std::fs::read(&path).expect("observed bytes"),
            reference,
            "threads {threads}: observation must not steer"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
    std::fs::remove_file(&reference_path).expect("cleanup");
}
