//! **Ablation abl12** — the work-stealing campaign scheduler vs a serial
//! schedule, plus the resumable results file.
//!
//! Part A (scheduling): a retry-heavy grid — every expensive point
//! clustered at the front, where a naive contiguous split would strand
//! the retry ladder on one worker. The same supervised sweep runs under
//! a serial plan (`threads = 1`) and the per-point work-stealing
//! scheduler (`threads = 0`, one worker per core); outcomes must be
//! identical and the stealing schedule must be ≥1.3× faster (median
//! over reps) on a multi-core host. On a single-core host both take the
//! serial path and the ratio is reported without the assertion.
//!
//! Part B (resume): the same campaign streams to a results file via the
//! campaign-log path of the plan runner. The run is "killed" at several
//! depths (file truncated to a prefix plus a torn trailing line — what
//! a real kill mid-write leaves) and resumed at *different* thread
//! counts. The resumed file must be **byte-identical** to the
//! uninterrupted run's, quarantined points included.
//!
//! Knobs: `PLLBIST_ABL12_MIN_SPEEDUP` (default 1.3),
//! `PLLBIST_ABL12_REPS` (default 3), `PLLBIST_ABL12_POINTS`
//! (default 16). `--jsonl <path>` writes the run report; `--progress`
//! renders an in-place status line over the timed runs.

use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::campaign::{config_digest, CampaignLog};
use pllbist_sim::config::PllConfig;
use pllbist_sim::parallel::available_parallelism;
use pllbist_sim::scenario::{PlanOutcome, Scenario};
use pllbist_sim::supervisor::Supervised;
use pllbist_sim::{PllEngine, SupervisorPolicy, SweepPointError, VoltsCodec};
use pllbist_telemetry::{fields, Collector, ProgressBoard, RunReport};
use std::sync::Arc;
use std::time::Instant;

/// Lock-settle for the campaign scenario: long enough that a retry's
/// extended re-settle dominates a healthy point's cost.
const LOCK_SETTLE: f64 = 0.2;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The campaign's capture: healthy tones settle briefly and read the
/// control voltage; tones at or below `sick_cutoff` burn their attempt
/// and fail typed-retryable, so the supervisor re-locks and re-settles
/// them through the full deterministic retry ladder — the expensive,
/// front-clustered work Part A's schedules fight over.
fn capture(
    pll: &mut Supervised<CpPll>,
    f_mod: f64,
    sick_cutoff: f64,
) -> Result<f64, SweepPointError> {
    let t = pll.time();
    pll.advance_to(t + 0.01);
    if f_mod <= sick_cutoff {
        return Err(SweepPointError::DegenerateFit { f_mod_hz: f_mod });
    }
    Ok(pll.control_voltage())
}

/// Asserts two supervised sweeps produced identical outcomes: healthy
/// values bit-for-bit, quarantined errors variant-for-variant.
fn assert_same_outcomes(a: &PlanOutcome<f64>, b: &PlanOutcome<f64>, label: &str) {
    assert_eq!(a.points.len(), b.points.len(), "{label}: point count");
    for (i, (x, y)) in a.points.iter().zip(&b.points).enumerate() {
        match (x, y) {
            (Ok(vx), Ok(vy)) => assert_eq!(
                vx.to_bits(),
                vy.to_bits(),
                "{label}: point {i} value diverged"
            ),
            (Err(ex), Err(ey)) => assert_eq!(ex, ey, "{label}: point {i} error diverged"),
            _ => panic!("{label}: point {i} ok/err disagreement"),
        }
    }
}

fn main() {
    let mut report = RunReport::from_args("abl12_work_stealing_campaign");
    let cfg = PllConfig::paper_table3();
    let policy = SupervisorPolicy::default();
    let points = env_usize("PLLBIST_ABL12_POINTS", 16).max(4);
    let reps = env_usize("PLLBIST_ABL12_REPS", 3).max(1);
    let min_speedup = env_f64("PLLBIST_ABL12_MIN_SPEEDUP", 1.3);
    let cores = available_parallelism();

    // Retry-heavy grid: the first quarter of the tones is sick, i.e.
    // clustered exactly where a contiguous schedule hurts most.
    let tones: Vec<f64> = (0..points).map(|i| 1.0 + i as f64).collect();
    let n_sick = (points / 4).max(1);
    let sick_cutoff = tones[n_sick - 1];
    let scenario = Scenario::with_lock_settle(&cfg, LOCK_SETTLE);
    println!(
        "abl12 — work-stealing campaign ({points} points, {n_sick} retry-heavy, \
         {cores} core(s), {reps} rep(s))\n"
    );

    // ---- Part A: serial vs work-stealing wall clock --------------------
    let run_at = |threads: usize, tel: &Collector| {
        scenario.run_points::<CpPll, pllbist_sim::NullCodec<f64>, _>(
            &tones,
            threads,
            true,
            Some(&policy),
            tel,
            None,
            None,
            None,
            |pll, fm| capture(pll, fm, sick_cutoff),
        )
    };

    // Coarse `--progress` feed: one board tick per timed sweep / resume
    // round trip (the timed regions themselves stay unobserved).
    let board = Arc::new(ProgressBoard::new(2 * reps + 4, 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl12 work-stealing campaign",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    // Warm-up so neither timed run pays first-touch costs.
    let reference = run_at(0, &Collector::disabled());
    assert_eq!(reference.points.len(), points);
    assert_eq!(reference.quarantined_count(), n_sick);

    let mut serial_secs = Vec::with_capacity(reps);
    let mut stealing_secs = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t0 = Instant::now();
        let serial = run_at(1, &Collector::disabled());
        serial_secs.push(t0.elapsed().as_secs_f64());
        board.point_done(0, true, serial_secs[rep]);

        let t1 = Instant::now();
        let stealing = run_at(0, &Collector::disabled());
        stealing_secs.push(t1.elapsed().as_secs_f64());
        board.point_done(0, true, stealing_secs[rep]);

        assert_same_outcomes(&reference, &serial, "serial");
        assert_same_outcomes(&reference, &stealing, "stealing");
        println!(
            " rep {rep}: serial {:>7.3}s | stealing {:>7.3}s",
            serial_secs[rep], stealing_secs[rep]
        );
    }
    let serial_median = median(&mut serial_secs);
    let stealing_median = median(&mut stealing_secs);
    let speedup = serial_median / stealing_median;
    println!(
        "\nmedian: serial {serial_median:.3}s, stealing {stealing_median:.3}s \
         → {speedup:.2}× on {cores} core(s)"
    );
    if cores == 1 {
        println!("(single-core host: both schedules take the serial path, ~1.0× expected)");
    } else {
        assert!(
            speedup >= min_speedup,
            "work stealing must be ≥{min_speedup}× over serial on a retry-heavy \
             grid ({cores} cores): got {speedup:.2}×"
        );
    }
    report.result(
        "schedule",
        fields![
            cores = cores,
            points = points,
            sick_points = n_sick,
            reps = reps,
            serial_secs = serial_median,
            stealing_secs = stealing_median,
            speedup = speedup
        ],
    );

    // ---- Part B: kill-and-resume byte identity -------------------------
    let digest = config_digest(
        &cfg,
        &tones,
        &format!("abl12-voltage-campaign|settle:{LOCK_SETTLE}|sick:{sick_cutoff}|{policy:?}"),
    );
    let path = std::env::temp_dir().join(format!(
        "pllbist_abl12_campaign_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let run_resumable = |threads: usize| {
        let log = CampaignLog::open(&path, VoltsCodec, digest.clone(), tones.len())
            .expect("open campaign log");
        let skipped = log.completed_count();
        let tel = Collector::disabled();
        let swept = scenario.run_points::<CpPll, VoltsCodec, _>(
            &tones,
            threads,
            true,
            Some(&policy),
            &tel,
            Some(&log),
            None,
            None,
            |pll, fm| capture(pll, fm, sick_cutoff),
        );
        log.finish(true).expect("campaign completes");
        (swept, skipped)
    };

    let (uninterrupted, _) = run_resumable(0);
    board.point_done(0, true, 0.0);
    assert_same_outcomes(&reference, &uninterrupted, "resumable");
    let reference_bytes = std::fs::read(&path).expect("read results file");
    let reference_lines: Vec<&str> = std::str::from_utf8(&reference_bytes)
        .expect("utf8 results file")
        .lines()
        .collect();
    assert_eq!(reference_lines.len(), 2 + points, "header + one line/point");

    println!("\nkill-and-resume round trips (results file: {points} points + header):");
    let mut round_trips = 0usize;
    for (kill_after, resume_threads) in [(1usize, 1usize), (points / 2, 2), (points - 1, 4)] {
        // A kill mid-write leaves a clean prefix plus one torn line.
        let mut killed = reference_lines[..2 + kill_after].join("\n");
        killed.push('\n');
        killed.push_str("{\"type\":\"result\",\"name\":\"campaign.po");
        std::fs::write(&path, &killed).expect("write killed file");

        let (resumed, skipped) = run_resumable(resume_threads);
        board.point_done(0, true, 0.0);
        assert_eq!(
            skipped, kill_after,
            "resume must skip exactly the surviving prefix"
        );
        assert_same_outcomes(&reference, &resumed, "resumed");
        let resumed_bytes = std::fs::read(&path).expect("read resumed file");
        assert_eq!(
            resumed_bytes, reference_bytes,
            "resumed file must be byte-identical (killed after {kill_after}, \
             resumed on {resume_threads} threads)"
        );
        println!(
            " killed after {kill_after:>3} point(s), resumed on {resume_threads} \
             thread(s): skipped {skipped}, file byte-identical"
        );
        round_trips += 1;
    }
    let _ = std::fs::remove_file(&path);
    drop(progress);
    report.result(
        "resume",
        fields![
            round_trips = round_trips,
            points = points,
            quarantined = reference.quarantined_count(),
            byte_identical = true
        ],
    );
    report.finish().expect("write --jsonl output");
    println!(
        "\nabl12: PASS — schedules agree outcome-for-outcome, resumed files \
         byte-identical across thread counts"
    );
}
