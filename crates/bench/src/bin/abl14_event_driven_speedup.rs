//! **Ablation abl14** — wall-clock payoff of the event-driven engine.
//!
//! The same Table 2-sized bench sweep (twelve log-spaced tones across
//! the loop bandwidth) runs through the micro-stepped behavioural
//! engine (`CpPll`) and through the per-event closed-form engine
//! (`EventDrivenCpPll`) on one thread, so the ratio isolates the
//! advancement strategy from core-count scaling. The behavioural engine
//! steps the filter state vector exactly, micro-stepping only where the
//! filter moves and taking each held interval between pump pulses
//! whole; the event engine commits one exact closed-form segment per PFD
//! switching event. On the paper's lossless loop (5 kHz VCO, first-order
//! lag filter) the pump pulses are shorter than the micro-step, so both
//! commit the same segments, and both find feedback edges with the same
//! safeguarded-Newton solver: the ratio measures the cost of one segment
//! alone, a boxed filter step, the VCO curve and a trapezoid against one
//! closed-form exponential. That is about 1.4× on a shared 2-vCPU host,
//! under the 1.5× floor (it was about 2× while `CpPll` cut every held
//! interval into quarter-period micro-steps).
//!
//! The bin asserts two things: the two backends land on the same
//! transfer-function points (gain within 5 %, phase within 0.08 rad —
//! the same physics, a faster path), and the median speedup over
//! `PLLBIST_ABL14_REPS` repetitions clears `PLLBIST_ABL14_MIN_SPEEDUP`
//! (default 1.5). `--jsonl <path>` writes the run report
//! (and a bench-ledger row); `--progress` renders an in-place status
//! line over the timed runs.

use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::bench_measure::{log_spaced, run_sweep};
use pllbist_sim::bench_measure::{BenchPoint, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::event_driven::EventDrivenCpPll;
use pllbist_sim::{CampaignPlan, Scheduler};
use pllbist_telemetry::{fields, ProgressBoard, RunReport};
use std::sync::Arc;
use std::time::Instant;

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

/// Both backends must read the same Bode points — the event engine is a
/// faster path through the same physics, not a looser model. The 5 % /
/// 0.08 rad tolerances are half the slack either backend gets against
/// the analytic closed form (`engines_agree`): past the loop bandwidth
/// the response is small and each backend's own discretisation (sine-fit
/// sampling vs micro-step width) contributes a few percent.
fn assert_same_physics(behavioral: &[BenchPoint], event: &[BenchPoint], tones: &[f64]) {
    assert_eq!(behavioral.len(), event.len(), "point count");
    for ((b, e), fm) in behavioral.iter().zip(event).zip(tones) {
        assert!(
            (b.gain - e.gain).abs() / b.gain.max(1e-9) < 0.05,
            "f = {fm} Hz: gain behavioral {} vs event {}",
            b.gain,
            e.gain
        );
        assert!(
            (b.phase - e.phase).abs() < 0.08,
            "f = {fm} Hz: phase behavioral {} vs event {} rad",
            b.phase,
            e.phase
        );
    }
}

fn main() {
    let mut report = RunReport::from_args("abl14_event_driven_speedup");
    let cfg = PllConfig::paper_table3();
    let tones = log_spaced(1.0, 40.0, 12);
    let reps = env_usize("PLLBIST_ABL14_REPS", 3).max(1);
    let min_speedup = env_f64("PLLBIST_ABL14_MIN_SPEEDUP", 1.5);
    let settings = BenchSettings::default();
    // Serial plans either way: the ratio isolates the advancement
    // strategy from core-count scaling. The engine is the only knob
    // that differs, and it lives on the plan.
    let behavioral_plan = CampaignPlan::new(cfg.clone())
        .scheduler(Scheduler::Serial)
        .telemetry(report.telemetry_config());
    let event_plan = behavioral_plan.clone().engine::<EventDrivenCpPll>();
    println!(
        "abl14 — event-driven engine speedup ({} tones at 1–40 Hz, {reps} rep(s), serial)\n",
        tones.len()
    );

    // Coarse `--progress` feed: one board tick per timed sweep (the
    // timed regions themselves stay unobserved).
    let board = Arc::new(ProgressBoard::new(2 * reps, 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl14 event-driven speedup",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    // Warm-up pass so neither timed run pays first-touch costs.
    let _ = run_sweep::<CpPll>(&behavioral_plan, &tones[..2], &settings);
    let _ = run_sweep::<EventDrivenCpPll>(&event_plan, &tones[..2], &settings);

    let mut behavioral_secs = Vec::with_capacity(reps);
    let mut event_secs = Vec::with_capacity(reps);
    let mut behavioral_steps = 0u64;
    let mut event_steps = 0u64;
    for rep in 0..reps {
        let t0 = Instant::now();
        let behavioral =
            run_sweep::<CpPll>(&behavioral_plan, &tones, &settings).expect("behavioral sweep");
        behavioral_secs.push(t0.elapsed().as_secs_f64());
        board.point_done(0, true, behavioral_secs[rep]);

        let t1 = Instant::now();
        let event =
            run_sweep::<EventDrivenCpPll>(&event_plan, &tones, &settings).expect("event sweep");
        event_secs.push(t1.elapsed().as_secs_f64());
        board.point_done(0, true, event_secs[rep]);

        assert_same_physics(&behavioral.ok_points(), &event.ok_points(), &tones);
        if rep == 0 {
            behavioral_steps = sum_steps(&behavioral.telemetry);
            event_steps = sum_steps(&event.telemetry);
        }
        report.extend(behavioral.telemetry);
        report.extend(event.telemetry);
        println!(
            " rep {rep}: behavioral {:>8.3}s | event-driven {:>8.3}s  ({:.2}×)",
            behavioral_secs[rep],
            event_secs[rep],
            behavioral_secs[rep] / event_secs[rep]
        );
    }
    let behavioral_median = median(&mut behavioral_secs);
    let event_median = median(&mut event_secs);
    let speedup = behavioral_median / event_median;
    println!(
        "\nmedian: behavioral {behavioral_median:.3}s, event-driven {event_median:.3}s \
         → {speedup:.2}× (threshold {min_speedup:.2}×)"
    );
    if behavioral_steps > 0 && event_steps > 0 {
        println!(
            "work units (rep 0): {behavioral_steps} behavioural vs {event_steps} \
             event-driven committed segments ({:.1}× fewer)",
            behavioral_steps as f64 / event_steps as f64
        );
    }
    drop(progress);
    report.result(
        "event_speedup",
        fields![
            tones = tones.len(),
            reps = reps,
            behavioral_secs = behavioral_median,
            event_secs = event_median,
            behavioral_steps = behavioral_steps,
            event_steps = event_steps,
            median_speedup = speedup,
            min_speedup = min_speedup
        ],
    );
    report.finish().expect("write --jsonl output");
    assert!(
        speedup >= min_speedup,
        "event-driven engine should pay ≥{min_speedup:.2}× on this sweep, \
         measured {speedup:.2}×"
    );
    println!("\nabl14: PASS — identical physics, {speedup:.2}× less wall clock");
}

/// Sums the `sim.steps` counters out of drained sweep telemetry — the
/// engine's own work unit, committed segments.
fn sum_steps(records: &[pllbist_telemetry::Record]) -> u64 {
    use pllbist_telemetry::Record;
    records
        .iter()
        .filter_map(|r| match r {
            Record::Counter { name, value } if name == "sim.steps" => Some(*value),
            _ => None,
        })
        .sum()
}
