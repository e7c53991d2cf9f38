//! Bench-style transfer-function measurement (the paper's fig. 3).
//!
//! This is the **conventional laboratory method** the BIST replaces: apply
//! sinusoidal FM to the reference, *probe the analogue loop-filter node
//! directly* (or, equivalently, the VCO instantaneous frequency), and
//! extract gain and phase at the modulation frequency by least-squares sine
//! fitting. It requires exactly the analogue access an embedded PLL does
//! not have — which is why it serves as the accuracy baseline the on-chip
//! monitor is compared against (ablation abl06).
//!
//! The sweep executes a [`CampaignPlan`] on the one plan entry,
//! [`run_plan`]: engine, checkpointing, supervision, scheduling, resume
//! and observation are plan options, and the result is the one
//! [`PlanOutcome`]. This module contributes only the capture physics
//! ([`BenchSettings`]) and the [`BenchPointCodec`] that makes campaign
//! files round-trip measurements bit-for-bit.

use crate::campaign::{bits_hex, f64_from_bits_hex, json_str_field, PointCodec};
use crate::config::PllConfig;
use crate::engine::{AnalogAccess, PllEngine, WorkStats};
use crate::error::{CampaignError, SweepPointError};
use crate::plan::CampaignPlan;
use crate::scenario::{run_plan, PlanOutcome, Scenario};
use crate::stimulus::FmStimulus;
use pllbist_numeric::bode::{BodePlot, BodePoint};
use pllbist_numeric::fit::sine_fit;
use pllbist_telemetry::span;
use pllbist_telemetry::{Fields, Value};
use std::f64::consts::{FRAC_PI_2, TAU};

/// One bench measurement at a single modulation frequency.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchPoint {
    /// Modulation frequency in Hz.
    pub f_mod_hz: f64,
    /// Measured feedback-referred gain `|H(jω)|/N` (linear).
    pub gain: f64,
    /// Measured phase of the response in radians (negative = output lags).
    pub phase: f64,
}

/// The physics of one bench capture — what to stimulate and how long to
/// sample. Execution policy (engine, threads, checkpointing, supervision,
/// resume, telemetry) lives on the [`CampaignPlan`], not here: these
/// fields all change the measured numbers, plan options never do.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSettings {
    /// Peak reference deviation in Hz.
    pub deviation_hz: f64,
    /// Modulation periods to discard after the tone is programmed (on top
    /// of the loop's own lock-settle wait, [`crate::scenario::settle_time`]).
    pub settle_periods: f64,
    /// Modulation periods to fit over.
    pub measure_periods: f64,
    /// Samples per modulation period.
    pub samples_per_period: usize,
}

impl Default for BenchSettings {
    fn default() -> Self {
        Self {
            deviation_hz: 10.0,
            settle_periods: 3.0,
            measure_periods: 4.0,
            samples_per_period: 64,
        }
    }
}

/// Measures one point of the closed-loop response with full analogue
/// access on engine backend `E` (any [`AnalogAccess`] implementor — the
/// behavioural [`crate::behavioral::CpPll`] or the event-driven
/// [`crate::event_driven::EventDrivenCpPll`]).
///
/// The loop is settled at lock (the [`crate::scenario::settle_time`]
/// heuristic), driven with pure sinusoidal FM at `f_mod_hz`, allowed
/// `settle_periods` modulation periods for the tone's own transient, and
/// then the VCO instantaneous frequency is sine-fitted against the known
/// stimulus.
///
/// # Errors
///
/// [`SweepPointError::DegenerateFit`] when the captured record cannot
/// support a sine fit, [`SweepPointError::NumericalDivergence`] when the
/// fitted gain/phase comes out non-finite.
///
/// # Panics
///
/// Panics if `f_mod_hz` is not positive or the settings are degenerate.
pub fn measure_point<E: AnalogAccess>(
    config: &PllConfig,
    f_mod_hz: f64,
    settings: &BenchSettings,
) -> Result<BenchPoint, SweepPointError> {
    Ok(measure_point_with_stats::<E>(config, f_mod_hz, settings)?.0)
}

/// [`measure_point`] plus the solver work it cost ([`WorkStats`]),
/// for telemetry attribution. The measured point is identical.
///
/// # Errors
///
/// Same as [`measure_point`].
pub fn measure_point_with_stats<E: AnalogAccess>(
    config: &PllConfig,
    f_mod_hz: f64,
    settings: &BenchSettings,
) -> Result<(BenchPoint, WorkStats), SweepPointError> {
    let scenario = Scenario::new(config);
    let mut pll: E = scenario.settle_fresh();
    capture_point(&mut pll, f_mod_hz, settings)
}

/// The capture stage of the pipeline: `pll` arrives already settled at
/// lock; this programs the tone, waits out its transient, samples the VCO
/// frequency over whole reference periods and sine-fits gain and phase.
///
/// Returns the point plus the work done *by this point* (a clean delta
/// even when `pll` was restored from a checkpoint that already carries
/// the settle work).
///
/// Generic over [`AnalogAccess`] so the same capture runs bare or under
/// a [`crate::supervisor::Supervised`] wrapper.
fn capture_point<E: AnalogAccess>(
    pll: &mut E,
    f_mod_hz: f64,
    settings: &BenchSettings,
) -> Result<(BenchPoint, WorkStats), SweepPointError> {
    assert!(f_mod_hz > 0.0, "modulation frequency must be positive");
    assert!(
        settings.measure_periods >= 1.0 && settings.samples_per_period >= 8,
        "measurement window too small"
    );
    let config = PllEngine::config(pll);
    let (f_ref_hz, f_vco_hz, divider_n) = (config.f_ref_hz, config.f_vco_hz(), config.divider_n);
    let before = PllEngine::work_stats(pll);
    let t_mod = 1.0 / f_mod_hz;
    Scenario::stimulate(
        pll,
        FmStimulus::pure_sine(f_ref_hz, settings.deviation_hz, f_mod_hz),
        settings.settle_periods * t_mod,
    );

    // Sample on a grid commensurate with the reference period: the
    // control-node correction-pulse ripple is (quasi-)periodic at f_ref,
    // so a boxcar over whole reference periods rejects it exactly —
    // the same reason the paper's frequency counter gates over whole
    // cycles. The frequency estimate between samples is the phase
    // difference over the interval (a gated-counter readout with the
    // quantisation removed; the BIST layer adds the quantisation back).
    let t_ref = 1.0 / f_ref_hz;
    let periods_per_sample = (t_mod / (settings.samples_per_period as f64 * t_ref))
        .round()
        .max(1.0);
    let sample_dt = periods_per_sample * t_ref;
    pll.enable_sampling(sample_dt);
    let t = pll.time();
    pll.advance_to(t + settings.measure_periods * t_mod);
    let samples = pll.take_samples();

    let omega = TAU * f_mod_hz;
    let pairs: Vec<(f64, f64)> = samples
        .windows(2)
        .map(|w| {
            let f = (w[1].phase_cycles - w[0].phase_cycles) / (w[1].t - w[0].t);
            (0.5 * (w[0].t + w[1].t), f - f_vco_hz)
        })
        .collect();
    let fit = sine_fit(&pairs, omega).ok_or(SweepPointError::DegenerateFit { f_mod_hz })?;

    // The boxcar attenuates the modulation tone by sinc(π·f_mod·dt);
    // compensate so the gain is unbiased even at coarse sampling.
    let x = std::f64::consts::PI * f_mod_hz * sample_dt;
    let sinc = if x.abs() < 1e-12 { 1.0 } else { x.sin() / x };

    // The stimulus deviation is Δf·sin(ωt) = Δf·cos(ωt − π/2); the fit
    // reports A·cos(ωt + φ_out). Output-referred gain is A/(N·Δf).
    let n = divider_n as f64;
    let gain = fit.amplitude() / sinc / (n * settings.deviation_hz);
    let mut phase = fit.phase() + FRAC_PI_2;
    // Normalise to (−π, π].
    while phase > std::f64::consts::PI {
        phase -= TAU;
    }
    while phase <= -std::f64::consts::PI {
        phase += TAU;
    }
    if !gain.is_finite() || !phase.is_finite() {
        return Err(SweepPointError::NumericalDivergence {
            t: pll.time(),
            quantity: "bench_fit_gain",
            value: gain,
        });
    }
    Ok((
        BenchPoint {
            f_mod_hz,
            gain,
            phase,
        },
        PllEngine::work_stats(pll).since(&before),
    ))
}

impl PlanOutcome<BenchPoint> {
    /// Bode plot over the surviving points (phases unwrapped).
    ///
    /// # Errors
    ///
    /// [`SweepPointError::DegenerateFit`] (with the device-level
    /// sentinel `f_mod_hz = 0.0`) when **every** point was quarantined —
    /// downstream fitting tolerates gaps but cannot conjure a curve from
    /// nothing, and an empty plot silently accepted by a fitter is
    /// exactly the kind of false "pass" the BIST exists to prevent.
    pub fn to_bode(&self) -> Result<BodePlot, SweepPointError> {
        let ok = self.ok_points();
        if ok.is_empty() {
            return Err(SweepPointError::DegenerateFit { f_mod_hz: 0.0 });
        }
        Ok(bode_of(ok))
    }
}

/// The Bode plot of `points`, phases unwrapped across the sweep.
fn bode_of(points: Vec<BenchPoint>) -> BodePlot {
    let mut plot: BodePlot = points
        .into_iter()
        .map(|p| BodePoint {
            omega: TAU * p.f_mod_hz,
            magnitude: p.gain,
            phase: p.phase,
        })
        .collect();
    plot.unwrap_phase();
    plot
}

/// The bench workload's digest salt: the capture physics that determine
/// the measured numbers. The plan folds in the backend tag, lock-settle
/// override and supervision policy ([`CampaignPlan::digest`]); scheduling
/// knobs never enter.
fn bench_salt(settings: &BenchSettings) -> String {
    format!(
        "bench|dev:{}|settle:{}|measure:{}|spp:{}",
        bits_hex(settings.deviation_hz),
        bits_hex(settings.settle_periods),
        bits_hex(settings.measure_periods),
        settings.samples_per_period,
    )
}

/// The campaign digest a bench sweep stamps into its results file:
/// everything that determines the measured numbers — backend, config,
/// grid, capture settings, supervision policy — but **not** threads,
/// checkpointing, observation or telemetry, which never change results.
/// A campaign killed on 16 threads may therefore resume on 1 and still
/// produce the byte-identical file.
pub fn campaign_digest<E: PllEngine>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    settings: &BenchSettings,
) -> String {
    plan.digest(f_mod_hz, &bench_salt(settings))
}

/// **The** bench sweep: `plan` over the modulation grid with the capture
/// physics in `settings`, on [`run_plan`]. On a healthy device the points
/// are bitwise identical under every plan option; with supervision a sick
/// point quarantines in place, without it each point still gets one
/// contained attempt.
///
/// # Errors
///
/// Those of [`run_plan`]: an out-of-class plan, or a results file that
/// belongs to another campaign, is corrupted or fails on the filesystem.
pub fn run_sweep<E: AnalogAccess>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    settings: &BenchSettings,
) -> Result<PlanOutcome<BenchPoint>, CampaignError> {
    run_plan(
        plan,
        f_mod_hz,
        BenchPointCodec,
        &bench_salt(settings),
        |pll, _, fm, tel| {
            let _point = span!(tel, "bench.point", f_mod_hz = fm);
            let (point, stats) = capture_point(pll, fm, settings)?;
            if tel.is_enabled() {
                tel.add("sim.steps", stats.steps);
                tel.add("sim.step_rejections", stats.step_rejections);
                tel.add("sim.ref_edges", stats.ref_edges);
                tel.add("sim.fb_edges", stats.fb_edges);
            }
            Ok(point)
        },
    )
}

/// Fail-fast sweep: [`run_sweep`] unwrapped to plain [`BenchPoint`]s in
/// input order — the historical bench contract where any failed point
/// aborts the sweep.
///
/// # Panics
///
/// Panics on the first quarantined point (`"bench point at … Hz
/// failed"`) or on a campaign-file error. Route through [`run_sweep`]
/// with a supervised plan to get per-point quarantine instead.
pub fn measure_sweep_points<E: AnalogAccess>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    settings: &BenchSettings,
) -> Vec<BenchPoint> {
    let run = run_sweep(plan, f_mod_hz, settings)
        .unwrap_or_else(|e| panic!("bench campaign failed: {e}"));
    let points = run.points.into_iter().zip(f_mod_hz);
    points
        .map(|(p, fm)| p.unwrap_or_else(|e| panic!("bench point at {fm} Hz failed: {e}")))
        .collect()
}

/// Fail-fast sweep assembled into a Bode plot (phases unwrapped across
/// the sweep).
///
/// # Panics
///
/// Same as [`measure_sweep_points`].
pub fn measure_sweep<E: AnalogAccess>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    settings: &BenchSettings,
) -> BodePlot {
    bode_of(measure_sweep_points(plan, f_mod_hz, settings))
}

/// The [`PointCodec`] for bench sweep results: every `f64` of a
/// [`BenchPoint`] stored as its exact bit pattern, so the campaign file
/// round-trips measurements bit-for-bit.
#[derive(Clone, Copy, Debug, Default)]
pub struct BenchPointCodec;

impl PointCodec for BenchPointCodec {
    type Point = BenchPoint;

    fn encode(&self, point: &BenchPoint) -> Fields {
        vec![
            (
                "f_mod_bits".to_string(),
                Value::Str(bits_hex(point.f_mod_hz)),
            ),
            ("gain_bits".to_string(), Value::Str(bits_hex(point.gain))),
            ("phase_bits".to_string(), Value::Str(bits_hex(point.phase))),
        ]
    }

    fn decode(&self, line: &str) -> Option<BenchPoint> {
        Some(BenchPoint {
            f_mod_hz: f64_from_bits_hex(&json_str_field(line, "f_mod_bits")?)?,
            gain: f64_from_bits_hex(&json_str_field(line, "gain_bits")?)?,
            phase: f64_from_bits_hex(&json_str_field(line, "phase_bits")?)?,
        })
    }
}

/// Log-spaced modulation frequencies for a sweep (helper shared with the
/// BIST monitor so baseline and monitor measure the same points).
///
/// # Panics
///
/// Panics if the bounds are not `0 < lo < hi` or `n < 2`.
pub fn log_spaced(lo_hz: f64, hi_hz: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo_hz > 0.0 && hi_hz > lo_hz, "invalid sweep spec");
    let ratio = (hi_hz / lo_hz).ln();
    (0..n)
        .map(|i| lo_hz * (ratio * i as f64 / (n - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;
    use crate::event_driven::EventDrivenCpPll;
    use crate::plan::Scheduler;
    use crate::supervisor::SupervisorPolicy;
    use pllbist_telemetry::{Record, TelemetryConfig};

    fn quick() -> BenchSettings {
        BenchSettings {
            deviation_hz: 10.0,
            settle_periods: 3.0,
            measure_periods: 3.0,
            samples_per_period: 32,
        }
    }

    fn serial_plan(cfg: &PllConfig) -> CampaignPlan {
        CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial)
    }

    #[test]
    fn sweep_run_telemetry_observes_without_steering() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0, 20.0];
        let quiet = measure_sweep_points(&serial_plan(&cfg), &freqs, &quick());
        let loud = serial_plan(&cfg).telemetry(TelemetryConfig::enabled());
        let run = run_sweep(&loud, &freqs, &quick()).expect("in-memory sweep");
        assert_eq!(run.ok_points(), quiet, "telemetry must not change results");
        let point_spans = run
            .telemetry
            .iter()
            .filter(|r| matches!(r, Record::Span { name, .. } if name == "bench.point"))
            .count();
        assert_eq!(point_spans, 3);
        assert!(run.telemetry.iter().any(
            |r| matches!(r, Record::Counter { name, value } if name == "sim.steps" && *value > 0)
        ));
        // Disabled telemetry yields no records at all.
        let silent = run_sweep(&serial_plan(&cfg), &freqs, &quick()).expect("in-memory sweep");
        assert!(silent.telemetry.is_empty());
        assert_eq!(silent.ok_points(), quiet);
    }

    #[test]
    fn checkpointed_sweep_is_bitwise_identical_to_fresh() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0, 20.0];
        let fresh = measure_sweep_points(&serial_plan(&cfg).checkpoint(false), &freqs, &quick());
        let ckpt = measure_sweep_points(&serial_plan(&cfg), &freqs, &quick());
        assert_eq!(ckpt, fresh, "checkpointing must not change results");
    }

    #[test]
    fn in_band_point_has_unity_gain_and_small_lag() {
        let cfg = PllConfig::paper_table3();
        let p = measure_point::<CpPll>(&cfg, 1.0, &quick()).expect("bench point");
        assert!((p.gain - 1.0).abs() < 0.05, "gain {}", p.gain);
        assert!(p.phase.abs() < 0.25, "phase {}", p.phase);
    }

    #[test]
    fn resonance_point_matches_linear_model() {
        let cfg = PllConfig::paper_table3();
        let a = cfg.analysis();
        let h = a.feedback_transfer();
        let p = measure_point::<CpPll>(&cfg, 8.0, &quick()).expect("bench point");
        let want = h.eval_jw(TAU * 8.0);
        assert!(
            (p.gain - want.abs()).abs() / want.abs() < 0.05,
            "gain {} vs {}",
            p.gain,
            want.abs()
        );
        assert!(
            (p.phase - want.arg()).abs() < 0.12,
            "phase {} vs {}",
            p.phase,
            want.arg()
        );
    }

    #[test]
    fn out_of_band_point_rolls_off() {
        let cfg = PllConfig::paper_table3();
        let p = measure_point::<CpPll>(&cfg, 60.0, &quick()).expect("bench point");
        let want = cfg.analysis().feedback_transfer().eval_jw(TAU * 60.0);
        assert!(p.gain < 0.5, "rolled off: {}", p.gain);
        assert!((p.gain - want.abs()).abs() / want.abs() < 0.15);
    }

    #[test]
    fn sweep_produces_unwrapped_monotone_plot() {
        let cfg = PllConfig::paper_table3();
        let freqs = log_spaced(1.0, 40.0, 6);
        let plot = measure_sweep(&serial_plan(&cfg), &freqs, &quick());
        assert_eq!(plot.len(), 6);
        for w in plot.points().windows(2) {
            assert!(w[1].phase <= w[0].phase + 0.2, "phase roughly decreasing");
        }
    }

    #[test]
    fn supervised_sweep_matches_legacy_on_healthy_device() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0, 20.0];
        let legacy = measure_sweep_points(&serial_plan(&cfg), &freqs, &quick());
        for threads in [1usize, 4] {
            let plan = CampaignPlan::new(cfg.clone())
                .supervised(SupervisorPolicy::default())
                .scheduler(Scheduler::WorkStealing { threads })
                .telemetry(TelemetryConfig::enabled());
            let run = run_sweep(&plan, &freqs, &quick()).expect("in-memory sweep");
            assert_eq!(run.quarantined_count(), 0, "threads = {threads}");
            assert!(run.incidents.is_empty());
            assert_eq!(run.ok_points(), legacy, "threads = {threads}");
            let bode = run.to_bode().expect("healthy sweep has a curve");
            assert_eq!(bode.len(), freqs.len());
        }
    }

    #[test]
    fn bench_codec_round_trips_points_exactly() {
        use crate::campaign::{decode_point_line, encode_point_line};
        let p = BenchPoint {
            f_mod_hz: 8.0,
            gain: 0.987_654_321,
            phase: -0.123_456_789,
        };
        let line = encode_point_line(&BenchPointCodec, 5, &Ok(p));
        let (index, back) = decode_point_line(&BenchPointCodec, &line).expect("decodes");
        assert_eq!(index, 5);
        assert_eq!(back.expect("ok point"), p);
        // Re-encoding the decoded point reproduces the exact line — the
        // byte-identity guarantee resume depends on.
        assert_eq!(encode_point_line(&BenchPointCodec, 5, &Ok(p)), line);
    }

    #[test]
    fn bench_digest_ignores_scheduling_but_not_settings() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0];
        let base = CampaignPlan::new(cfg.clone()).supervised(SupervisorPolicy::default());
        let a = campaign_digest(&base, &freqs, &quick());
        // Thread count, checkpointing and telemetry never change results,
        // so they must not change the digest (resume across thread counts).
        let rescheduled = CampaignPlan::new(cfg.clone())
            .supervised(SupervisorPolicy::default())
            .scheduler(Scheduler::WorkStealing { threads: 16 })
            .checkpoint(false)
            .telemetry(TelemetryConfig::enabled());
        assert_eq!(a, campaign_digest(&rescheduled, &freqs, &quick()));
        // Anything result-affecting must.
        let detuned = BenchSettings {
            deviation_hz: 11.0,
            ..quick()
        };
        assert_ne!(a, campaign_digest(&base, &freqs, &detuned));
        // Dropping supervision entirely is also a different campaign.
        assert_ne!(
            a,
            campaign_digest(&CampaignPlan::new(cfg.clone()), &freqs, &quick())
        );
    }

    #[test]
    fn resumable_sweep_matches_in_memory_and_reloads_from_file() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0, 20.0];
        let path = std::env::temp_dir().join("pllbist_bench_resumable_inline.jsonl");
        let sidecar = path.with_extension("ckpt");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&sidecar);
        let resumable = serial_plan(&cfg)
            .supervised(SupervisorPolicy::default())
            .resume_from(&path);
        let run = run_sweep(&resumable, &freqs, &quick()).expect("resumable");
        let plain = run_sweep(
            &serial_plan(&cfg).supervised(SupervisorPolicy::default()),
            &freqs,
            &quick(),
        )
        .expect("in-memory sweep");
        assert_eq!(run.points, plain.points);
        let first = std::fs::read_to_string(&path).expect("results file");
        // A second run over the completed file recomputes nothing: every
        // outcome loads from disk and the file is untouched.
        let again = run_sweep(&resumable, &freqs, &quick()).expect("resume");
        assert_eq!(again.points, run.points);
        assert_eq!(std::fs::read_to_string(&path).expect("results file"), first);
        // Cut back to a one-point prefix, the run restores its lock from
        // the sidecar next to the file instead of settling again.
        let prefix: String = first.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, prefix).expect("cut results file");
        let resumed = run_sweep(
            &resumable.clone().telemetry(TelemetryConfig::enabled()),
            &freqs,
            &quick(),
        )
        .expect("resume from prefix");
        let sidecar_hits = resumed.telemetry.iter().find_map(|r| match r {
            Record::Counter { name, value } if name == "campaign.sidecar_hits" => Some(*value),
            _ => None,
        });
        assert_eq!(sidecar_hits, Some(1));
        assert_eq!(resumed.points, run.points);
        assert_eq!(std::fs::read_to_string(&path).expect("results file"), first);
        std::fs::remove_file(&path).expect("cleanup");
        std::fs::remove_file(&sidecar).expect("cleanup sidecar");
    }

    #[test]
    fn event_driven_backend_measures_the_same_response() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0, 20.0];
        let beh = measure_sweep_points(&serial_plan(&cfg), &freqs, &quick());
        let ev = measure_sweep_points(
            &serial_plan(&cfg).engine::<EventDrivenCpPll>(),
            &freqs,
            &quick(),
        );
        for (a, b) in ev.iter().zip(&beh) {
            assert!(
                (a.gain - b.gain).abs() / b.gain < 0.02,
                "gain at {} Hz: {} vs {}",
                a.f_mod_hz,
                a.gain,
                b.gain
            );
            assert!(
                (a.phase - b.phase).abs() < 0.05,
                "phase at {} Hz: {} vs {}",
                a.f_mod_hz,
                a.phase,
                b.phase
            );
        }
    }

    #[test]
    fn resumable_file_refuses_a_different_backend() {
        let cfg = PllConfig::paper_table3();
        let freqs = [2.0, 8.0];
        let path = std::env::temp_dir().join("pllbist_bench_cross_engine.jsonl");
        let _ = std::fs::remove_file(&path);
        let ev_plan = serial_plan(&cfg)
            .engine::<EventDrivenCpPll>()
            .supervised(SupervisorPolicy::default())
            .resume_from(&path);
        run_sweep(&ev_plan, &freqs, &quick()).expect("event-driven campaign");
        // The same grid on the behavioural backend must refuse the file:
        // the engines agree physically but not bit for bit, and a resume
        // that mixed their rounding would break byte-identity.
        let beh_plan = serial_plan(&cfg)
            .supervised(SupervisorPolicy::default())
            .resume_from(&path);
        let err = run_sweep(&beh_plan, &freqs, &quick())
            .expect_err("cross-engine resume must be refused");
        assert!(matches!(err, CampaignError::HeaderMismatch { .. }), "{err}");
        std::fs::remove_file(&path).expect("cleanup");
        std::fs::remove_file(path.with_extension("ckpt")).expect("cleanup sidecar");
    }

    #[test]
    fn log_spacing_endpoints() {
        let f = log_spaced(1.0, 100.0, 5);
        assert!((f[0] - 1.0).abs() < 1e-12);
        assert!((f[4] - 100.0).abs() < 1e-9);
        assert!((f[2] - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "invalid sweep spec")]
    fn bad_sweep_rejected() {
        let _ = log_spaced(10.0, 1.0, 5);
    }
}
