//! The automated closed-loop transfer-function monitor (the paper's
//! complete technique: figs. 4, 6, 7 + Table 2 + eqs. 7–8).
//!
//! For each modulation frequency the monitor executes the Table 2
//! sequence on a simulated PLL:
//!
//! 1. apply discrete FM through the DCO path (stage 1) and settle;
//! 2. arm the phase counter at the **input**-modulation peak — the
//!    sequencer controls the DCO mux so it knows that instant exactly —
//!    and watch the peak detector (stage 2);
//! 3. on `MFREQ` (output-frequency maximum) engage the loop-break hold
//!    (stage 3), freezing the VCO;
//! 4. read the reciprocal frequency counter and the phase counter
//!    (stage 4): eq. 7 turns held-frequency deviations into referenced
//!    magnitudes, eq. 8 turns the counter interval into phase lag;
//! 5. release, move to the next tone (stage 5).
//!
//! No analogue node is touched: the measurement uses only edges, counters
//! and the mux — the paper's digital-only test goal.

use crate::counter::{FrequencyCounter, FrequencyReading, PhaseCounter, PhaseReading};
use crate::dco::DcoDesign;
use crate::estimate::ParameterEstimate;
use crate::peak_detect::{PeakDetector, PeakKind};
use crate::sequencer::{TestSequencer, Transition};
use pllbist_numeric::bode::{BodePlot, BodePoint};
use pllbist_sim::campaign::NullCodec;
use pllbist_sim::config::PllConfig;
use pllbist_sim::error::SweepPointError;
use pllbist_sim::plan::CampaignPlan;
use pllbist_sim::scenario::{PlanRun, Scenario};
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::supervisor::{supervised_point, Incident};
use pllbist_sim::PllEngine;
use pllbist_telemetry::{span, Collector, Record, TelemetryConfig};
use std::f64::consts::TAU;

/// Fraction of a modulation period before the input peak in which an
/// output peak is still accepted (protects the in-band, near-zero-lag
/// points against edge jitter).
const PEAK_GUARD_FRACTION: f64 = 0.05;

/// Which FM approximation drives the reference (the fig. 11/12
/// comparison).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StimulusKind {
    /// Ideal sinusoidal FM (the bench reference case).
    PureSine,
    /// Two-tone FSK (square deviation).
    TwoTone,
    /// Multi-tone FSK with ideal (unquantised) levels.
    MultiTone {
        /// Steps per modulation period.
        steps: usize,
    },
    /// Multi-tone FSK through the real DCO tone grid of fig. 4 —
    /// deviation levels quantised to `f_master/k`.
    QuantizedDco {
        /// Steps per modulation period.
        steps: usize,
        /// DCO master clock in Hz.
        f_master_hz: f64,
    },
}

/// How the peak output deviation is captured once `MFREQ` fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CaptureMode {
    /// The paper's novel technique: break the loop (Table 2 stage 3),
    /// freeze the VCO on the filter's capacitor state, and count at
    /// leisure with full resolution. Reads the **hold-referred** response
    /// (`LoopAnalysis::hold_referred_transfer`) — on feed-through filter
    /// topologies this is the no-zero second order.
    HoldAndCount,
    /// The conventional alternative the paper argues against: count on
    /// the free-running output in a short gate around the peak. Includes
    /// the feed-through path (follows the full response) but trades
    /// resolution against gate length — quantified by ablation abl03.
    GatedCount {
        /// Gate length as a fraction of the modulation period.
        gate_fraction: f64,
    },
}

/// Monitor configuration (the BIST test plan).
#[derive(Clone, Debug, PartialEq)]
pub struct MonitorSettings {
    /// Stimulus class.
    pub stimulus: StimulusKind,
    /// Peak-capture mode.
    pub capture: CaptureMode,
    /// Peak reference deviation in Hz.
    pub deviation_hz: f64,
    /// Modulation frequencies to sweep, ascending; the first must lie well
    /// inside the loop bandwidth (it is the eq. 7 reference point).
    pub mod_frequencies_hz: Vec<f64>,
    /// Modulation periods to wait after each stimulus change.
    pub settle_periods: f64,
    /// Fixed additional settling time per tone in seconds (covers the
    /// loop's own transient; a test-plan constant in real BIST). Any
    /// value ≤ 0 means *auto*: use the workspace
    /// [`pllbist_sim::scenario::settle_time`] heuristic for the device
    /// configuration — see
    /// [`resolved_loop_settle`](Self::resolved_loop_settle).
    pub loop_settle_secs: f64,
    /// Test clock for both counters in Hz.
    pub test_clock_hz: f64,
    /// Frequency-counter gate length in measured-signal cycles.
    pub gate_cycles: u64,
    /// Tap point (fig. 6): `true` counts the divided output, `false` the
    /// full-rate VCO.
    pub count_divided_output: bool,
    /// Whether to record the Table 2 sequencer transcript into
    /// [`MonitorResult::transcript`]. On in [`paper`](Self::paper) (the
    /// transcript *is* the paper's Table 2 artefact), off in
    /// [`fast`](Self::fast): a transcript grows by five [`Transition`]s
    /// per tone forever, which long sweeps cannot afford.
    ///
    /// Execution policy — engine backend, scheduling, checkpointing,
    /// supervision, telemetry — is **not** a monitor setting: it lives
    /// on the [`CampaignPlan`] passed to
    /// [`TransferFunctionMonitor::measure`]. `MonitorSettings` holds only
    /// what changes the measured values.
    pub capture_transcript: bool,
}

impl MonitorSettings {
    /// The paper's fig. 11/12 test plan: ten-step multi-tone FSK, ±10 Hz
    /// deviation, 1 MHz test clock.
    pub fn paper() -> Self {
        Self {
            stimulus: StimulusKind::MultiTone { steps: 10 },
            capture: CaptureMode::HoldAndCount,
            deviation_hz: 10.0,
            mod_frequencies_hz: crate::paper::fig11_sweep(),
            settle_periods: 4.0,
            loop_settle_secs: 0.5,
            test_clock_hz: 1e6,
            gate_cycles: 200,
            count_divided_output: false,
            capture_transcript: true,
        }
    }

    /// A reduced plan for unit tests: fewer tones, shorter settling.
    pub fn fast() -> Self {
        Self {
            stimulus: StimulusKind::MultiTone { steps: 10 },
            capture: CaptureMode::HoldAndCount,
            deviation_hz: 10.0,
            mod_frequencies_hz: vec![1.0, 4.0, 8.0, 12.0, 30.0],
            settle_periods: 3.0,
            loop_settle_secs: 0.3,
            test_clock_hz: 1e6,
            gate_cycles: 100,
            count_divided_output: false,
            capture_transcript: false,
        }
    }

    /// The per-tone loop-settle wait for `config`: `loop_settle_secs`
    /// when positive, otherwise the workspace
    /// [`pllbist_sim::scenario::settle_time`] heuristic.
    pub fn resolved_loop_settle(&self, config: &PllConfig) -> f64 {
        if self.loop_settle_secs > 0.0 {
            self.loop_settle_secs
        } else {
            pllbist_sim::scenario::settle_time(config)
        }
    }
}

/// One completed tone measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MonitorPoint {
    /// Modulation frequency in Hz.
    pub f_mod_hz: f64,
    /// Held-peak frequency reading.
    pub frequency: FrequencyReading,
    /// Peak output deviation `ΔF` from the measured nominal, in Hz (at
    /// the configured tap point).
    pub delta_f_hz: f64,
    /// Eq. 8 phase reading.
    pub phase: PhaseReading,
    /// Input-modulation peak instant (phase-counter start).
    pub t_input_peak: f64,
    /// Detected output peak instant (`MFREQ`).
    pub t_output_peak: f64,
    /// `false` when no lead/lag flip was seen and the point fell back to
    /// zero lag (deeply attenuated or dead-zone-swallowed response).
    pub peak_found: bool,
}

/// The full sweep result.
#[derive(Clone, Debug)]
pub struct MonitorResult {
    /// Nominal (unmodulated) frequency reading at the tap point.
    pub nominal: FrequencyReading,
    /// Per-tone measurements, in sweep order.
    pub points: Vec<MonitorPoint>,
    /// The Table 2 sequencer transcript (empty unless
    /// `MonitorSettings::capture_transcript` is on).
    pub transcript: Vec<Transition>,
    /// The capture mode the sweep ran with (selects the estimator's
    /// response family).
    pub capture: CaptureMode,
    /// Drained telemetry records (empty unless telemetry was on: the
    /// plan's [`CampaignPlan::telemetry`] for
    /// [`TransferFunctionMonitor::measure`], the `telemetry` argument of
    /// [`TransferFunctionMonitor::measure_device`]): per-tone stage spans,
    /// MFREQ/gate/hold counters, solver statistics, worker utilization.
    pub telemetry: Vec<Record>,
}

impl MonitorResult {
    /// The measured magnitude/phase plot, referenced per eq. 7 to the
    /// first (in-band) point: `A_F = 20·log10(ΔF_max / ΔF_ref_max)`.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty or the reference deviation is zero.
    pub fn to_bode(&self) -> BodePlot {
        assert!(!self.points.is_empty(), "sweep produced no points");
        let reference = self.points[0].delta_f_hz.abs();
        assert!(reference > 0.0, "in-band reference deviation is zero");
        let mut plot: BodePlot = self
            .points
            .iter()
            .map(|p| BodePoint {
                omega: TAU * p.f_mod_hz,
                magnitude: p.delta_f_hz.abs() / reference,
                phase: p.phase.phase_degrees.to_radians(),
            })
            .collect();
        plot.unwrap_phase();
        plot
    }

    /// Extracts (ωn, ζ, ω3dB) from the measured plot, using the response
    /// family that matches the capture mode (hold readout ⇒ no-zero
    /// model).
    pub fn estimate(&self) -> ParameterEstimate {
        let model = match self.capture {
            CaptureMode::HoldAndCount => crate::estimate::ResponseModel::NoZero,
            CaptureMode::GatedCount { .. } => crate::estimate::ResponseModel::WithZero,
        };
        ParameterEstimate::from_plot_with_model(&self.to_bode(), model)
    }
}

/// A supervised sweep's result: the per-tone outcomes (quarantined
/// tones stay in place as typed errors), the device-qualification
/// outcome, the incident log, and everything [`MonitorResult`] carries.
///
/// Produced by [`TransferFunctionMonitor::measure`]; on a healthy
/// device the surviving points are bitwise identical across every plan
/// combination (supervised or not, at any thread count).
#[derive(Clone, Debug)]
pub struct SupervisedMonitorResult {
    /// Nominal (unmodulated) frequency reading, or the error that
    /// quarantined the whole device (in which case every point carries
    /// the same error and the sweep never ran).
    pub nominal: Result<FrequencyReading, SweepPointError>,
    /// One outcome per configured modulation frequency, in sweep order.
    pub points: Vec<Result<MonitorPoint, SweepPointError>>,
    /// Concatenated Table 2 transcripts of the surviving tones.
    pub transcript: Vec<Transition>,
    /// The capture mode the sweep ran with.
    pub capture: CaptureMode,
    /// Every supervisor incident: device-level qualification failures
    /// (reported with `f_mod_hz = 0.0`), per-tone retries, quarantines.
    pub incidents: Vec<Incident>,
    /// Drained telemetry records (includes `supervisor.*` records).
    pub telemetry: Vec<Record>,
}

impl SupervisedMonitorResult {
    /// Number of surviving (non-quarantined) tones.
    pub fn ok_count(&self) -> usize {
        self.points.iter().filter(|p| p.is_ok()).count()
    }

    /// Number of quarantined tones.
    pub fn quarantined_count(&self) -> usize {
        self.points.len() - self.ok_count()
    }

    /// The eq. 7 magnitude/phase plot over the surviving tones.
    ///
    /// # Errors
    ///
    /// [`SweepPointError::DegenerateFit`] when no usable reference
    /// survives — every tone quarantined (tagged with the
    /// [`DEVICE_INCIDENT_F_MOD`] sentinel), or the first surviving
    /// deviation is zero/non-finite (tagged with that tone's frequency).
    /// The estimator tolerates gaps but cannot normalise without an
    /// in-band reference, and a silently empty plot is exactly the kind
    /// of false "pass" the BIST exists to prevent.
    pub fn to_bode(&self) -> Result<BodePlot, SweepPointError> {
        let ok: Vec<&MonitorPoint> = self.points.iter().filter_map(|p| p.as_ref().ok()).collect();
        let first = ok.first().ok_or(SweepPointError::DegenerateFit {
            f_mod_hz: DEVICE_INCIDENT_F_MOD,
        })?;
        let reference = first.delta_f_hz.abs();
        if !reference.is_finite() || reference == 0.0 {
            return Err(SweepPointError::DegenerateFit {
                f_mod_hz: first.f_mod_hz,
            });
        }
        let mut plot: BodePlot = ok
            .iter()
            .map(|p| BodePoint {
                omega: TAU * p.f_mod_hz,
                magnitude: p.delta_f_hz.abs() / reference,
                phase: p.phase.phase_degrees.to_radians(),
            })
            .collect();
        plot.unwrap_phase();
        Ok(plot)
    }

    /// Extracts (ωn, ζ, ω3dB) from the surviving tones.
    ///
    /// # Errors
    ///
    /// Same as [`to_bode`](Self::to_bode): a typed
    /// [`SweepPointError::DegenerateFit`] when there is nothing to fit.
    pub fn estimate(&self) -> Result<ParameterEstimate, SweepPointError> {
        let model = match self.capture {
            CaptureMode::HoldAndCount => crate::estimate::ResponseModel::NoZero,
            CaptureMode::GatedCount { .. } => crate::estimate::ResponseModel::WithZero,
        };
        self.to_bode()
            .map(|plot| ParameterEstimate::from_plot_with_model(&plot, model))
    }

    /// Unwraps a run the caller asserts was healthy into a plain
    /// [`MonitorResult`] — the ergonomic tail for golden-device call
    /// sites (`monitor.measure(&plan).expect_healthy()`).
    ///
    /// # Panics
    ///
    /// Panics if the device was quarantined wholesale or any tone came
    /// back as a typed error. Keep the [`SupervisedMonitorResult`] and
    /// inspect `points`/`incidents` instead when quarantine is an
    /// expected outcome.
    pub fn expect_healthy(self) -> MonitorResult {
        let nominal = match self.nominal {
            Ok(nominal) => nominal,
            Err(e) => panic!("monitor device quarantined: {e}"),
        };
        let points = self
            .points
            .into_iter()
            .map(|p| match p {
                Ok(point) => point,
                Err(e) => panic!("monitor tone quarantined: {e}"),
            })
            .collect();
        MonitorResult {
            nominal,
            points,
            transcript: self.transcript,
            capture: self.capture,
            telemetry: self.telemetry,
        }
    }
}

/// The `f_mod_hz` tag incidents use for device-level (nominal
/// qualification) failures, which precede any tone.
pub const DEVICE_INCIDENT_F_MOD: f64 = 0.0;

/// The automated monitor.
#[derive(Clone, Debug)]
pub struct TransferFunctionMonitor {
    settings: MonitorSettings,
}

impl TransferFunctionMonitor {
    /// Creates a monitor with the given test plan.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-ascending frequency list, or non-positive
    /// deviation.
    pub fn new(settings: MonitorSettings) -> Self {
        assert!(
            !settings.mod_frequencies_hz.is_empty(),
            "sweep needs at least one modulation frequency"
        );
        assert!(
            settings.mod_frequencies_hz.windows(2).all(|w| w[0] < w[1]),
            "modulation frequencies must be strictly ascending"
        );
        assert!(settings.deviation_hz > 0.0, "deviation must be positive");
        Self { settings }
    }

    /// The test plan.
    pub fn settings(&self) -> &MonitorSettings {
        &self.settings
    }

    /// Runs the serial sweep on an existing (already constructed) loop —
    /// lets callers pre-stress or pre-fault the device *state*, which a
    /// [`CampaignPlan`] (a pure description built from a configuration)
    /// cannot express. The caller's loop takes the nominal reading and
    /// then walks every tone in order on one engine, so the transcript is
    /// on one clock. A plan measures each tone on its own settled loop
    /// instead: the nominal reading is identical, the tones agree in
    /// physics but differ in low-order bits (different settle history).
    ///
    /// For everything else — scheduling, checkpointing, supervision,
    /// engine choice — use [`measure`](Self::measure) with a plan.
    pub fn measure_device<E: PllEngine>(
        &self,
        pll: &mut E,
        telemetry: &TelemetryConfig,
    ) -> MonitorResult {
        let s = &self.settings;
        let tel = Collector::from_config(telemetry);
        let fc = FrequencyCounter::new(s.test_clock_hz, s.gate_cycles);
        let config = pll.config().clone();
        let loop_settle = s.resolved_loop_settle(&config).max(0.1);

        // Lock and take the nominal reading (held for a clean gate).
        let nominal = {
            let _settle = span!(tel, "monitor.nominal");
            let t = pll.time();
            pll.advance_to(t + loop_settle);
            pll.set_hold(true);
            let nominal = fc.measure(pll, s.count_divided_output);
            pll.set_hold(false);
            nominal
        };
        let (points, transcript) = self.sweep_chunk(pll, &s.mod_frequencies_hz, &nominal, &tel);
        if tel.is_enabled() {
            tel.gauge(
                "monitor.transcript_bytes",
                (transcript.len() * std::mem::size_of::<Transition>()) as f64,
            );
        }
        MonitorResult {
            nominal,
            points,
            transcript,
            capture: s.capture,
            telemetry: tel.drain(),
        }
    }

    /// **The** monitor entry point: runs the full Table 2 sweep as
    /// described by `plan` on the one plan entry ([`PlanRun`]). The
    /// nominal reading is one [`supervised_point`] on the run's
    /// collector; the run's capture is the Table 2 sequence on one tone.
    /// Both start from a loop settled for
    /// [`MonitorSettings::resolved_loop_settle`] (at least 0.1 s), which
    /// overrides the plan's `lock_settle`.
    ///
    /// Per plan option:
    ///
    /// * **supervision** — `Some(policy)`: guardrails on every advance,
    ///   panic isolation per tone, deterministic quarantine-and-retry;
    ///   a device that cannot even produce a nominal reading
    ///   quarantines wholesale (incidents tagged
    ///   [`DEVICE_INCIDENT_F_MOD`]). `None`: one contained attempt per
    ///   tone on an unguarded engine — no retries, no `supervisor.*`
    ///   telemetry, but a panicking tone still quarantines in place.
    /// * **scheduler** — identical bits at every thread count: each tone
    ///   is measured on its own settled loop. The one-engine continuous
    ///   walk is [`measure_device`](Self::measure_device).
    /// * **checkpoint** — settle once and restore per tone
    ///   ([`PllEngine::restore`] is bit-exact) instead of re-locking.
    /// * **observed** — one claim and one outcome per tone (the nominal
    ///   reading is not a tone).
    /// * **resume_from** — ignored ([`PlanRun::in_memory`]): no results
    ///   file or lock sidecar is opened or created until a tone outcome
    ///   has a codec.
    ///
    /// On a healthy device the surviving points and the transcript are
    /// bitwise identical across every supervision/checkpoint/observer/
    /// telemetry/thread-count combination. Retries are a pure function of
    /// `(config, tone)` on the fixed supervision ladder, so failing
    /// campaigns replay incident for incident.
    pub fn measure<E: PllEngine>(&self, plan: &CampaignPlan<E>) -> SupervisedMonitorResult {
        let s = &self.settings;
        let plan = plan
            .clone()
            .lock_settle(s.resolved_loop_settle(plan.config()).max(0.1));
        let run = PlanRun::<E, NullCodec<(MonitorPoint, Vec<Transition>)>>::in_memory(
            &plan,
            &s.mod_frequencies_hz,
        );
        let fc = FrequencyCounter::new(s.test_clock_hz, s.gate_cycles);

        // Device qualification: the nominal reading, held for a clean
        // gate. A device that cannot produce one quarantines wholesale.
        let nominal = {
            let _nominal = span!(run.telemetry(), "monitor.nominal");
            supervised_point::<E, _, _>(
                &plan.scenario(),
                None,
                plan.supervision(),
                DEVICE_INCIDENT_F_MOD,
                run.telemetry(),
                |pll| {
                    pll.set_hold(true);
                    let reading = fc.measure(pll, s.count_divided_output);
                    pll.set_hold(false);
                    Ok(reading)
                },
            )
        };
        let mut incidents = nominal.incidents;
        let nominal = match nominal.result {
            Ok(nominal) => nominal,
            Err(error) => {
                return SupervisedMonitorResult {
                    nominal: Err(error.clone()),
                    points: vec![Err(error); s.mod_frequencies_hz.len()],
                    transcript: Vec::new(),
                    capture: s.capture,
                    incidents,
                    telemetry: run.telemetry().drain(),
                };
            }
        };

        let swept = run
            .run(|pll, tone_index, f_mod, tel| {
                let (mut points, mut transcript) = self.sweep_chunk(pll, &[f_mod], &nominal, tel);
                transcript
                    .iter_mut()
                    .for_each(|t| t.tone_index = tone_index);
                let point = points.pop();
                point
                    .map(|point| (point, transcript))
                    .ok_or(SweepPointError::DegenerateFit { f_mod_hz: f_mod })
            })
            .unwrap_or_else(|e| panic!("an in-memory run closes no results file: {e}"));
        incidents.extend(swept.incidents);
        let mut transcript = Vec::new();
        let points = swept
            .points
            .into_iter()
            .map(|outcome| {
                outcome.map(|(point, tone)| {
                    transcript.extend(tone);
                    point
                })
            })
            .collect();
        let mut telemetry = swept.telemetry;
        if plan.telemetry_config().enabled {
            telemetry.push(Record::Gauge {
                name: "monitor.transcript_bytes".to_string(),
                value: (transcript.len() * std::mem::size_of::<Transition>()) as f64,
            });
        }
        SupervisedMonitorResult {
            nominal: Ok(nominal),
            points,
            transcript,
            capture: s.capture,
            incidents,
            telemetry,
        }
    }

    /// Walks one contiguous run of modulation frequencies on `pll`,
    /// returning the measured points and the chunk's Table 2 transcript.
    /// The first tone's stage 1 is stamped at the engine's current time.
    fn sweep_chunk<E: PllEngine>(
        &self,
        pll: &mut E,
        mod_frequencies_hz: &[f64],
        nominal: &FrequencyReading,
        tel: &Collector,
    ) -> (Vec<MonitorPoint>, Vec<Transition>) {
        let s = &self.settings;
        let fc = FrequencyCounter::new(s.test_clock_hz, s.gate_cycles);
        let pc = PhaseCounter::new(s.test_clock_hz);

        let mut seq = if s.capture_transcript {
            TestSequencer::new(mod_frequencies_hz.len(), pll.time())
        } else {
            TestSequencer::silent(mod_frequencies_hz.len(), pll.time())
        };
        let mut points = Vec::with_capacity(mod_frequencies_hz.len());
        let f_ref = pll.config().f_ref_hz;
        let loop_settle = s.resolved_loop_settle(pll.config());

        for &f_mod in mod_frequencies_hz {
            let _tone = span!(tel, "monitor.tone", f_mod_hz = f_mod);
            let stats_tone = pll.work_stats();
            let t_mod = 1.0 / f_mod;
            // Stage 5 → stage 1 wrap for every tone after the first.
            if seq.stage() == crate::sequencer::Stage::NextTone {
                seq.advance(pll.time());
            }
            // Stage 1: apply the modulation and settle.
            let stimulus = {
                let _settle = span!(tel, "monitor.settle");
                let stimulus = self.build_stimulus(f_ref, f_mod);
                Scenario::stimulate(
                    pll,
                    stimulus.clone(),
                    s.settle_periods * t_mod + loop_settle,
                );
                seq.advance(pll.time());
                stimulus
            };

            // Stage 2: next input-modulation peak, then watch for MFREQ.
            let capture = span!(tel, "monitor.capture");
            let tp0 = stimulus.deviation_peak_time();
            let now = pll.time();
            let k = ((now - tp0) / t_mod).ceil().max(0.0);
            let mut t_input_peak = tp0 + k * t_mod;
            if t_input_peak < now {
                t_input_peak += t_mod;
            }
            let guard = PEAK_GUARD_FRACTION * t_mod;
            let chunk = 1.0 / f_ref; // MFREQ resolution: one reference cycle
            let deadline = t_input_peak + 3.0 * t_mod;
            let mut detector = PeakDetector::new();
            let mut t_output_peak = None;
            let mut mfreq_strobes = 0u64;
            pll.take_events();
            pll.collect_events(true);
            'detect: while pll.time() < deadline {
                pll.advance_to(pll.time() + chunk);
                for event in pll.take_events() {
                    if let Some(peak) = detector.on_event(event) {
                        if peak.kind == PeakKind::Max {
                            mfreq_strobes += 1;
                            if peak.t >= t_input_peak - guard {
                                t_output_peak = Some(peak.t);
                                break 'detect;
                            }
                        }
                    }
                }
            }
            pll.collect_events(false);
            pll.take_events();
            drop(capture);
            let peak_found = t_output_peak.is_some();
            let t_output_peak = t_output_peak.unwrap_or(t_input_peak);

            // Stage 3: hold (or skip, in the no-hold comparison mode).
            seq.advance(pll.time());
            let count = span!(tel, "monitor.count");
            let frequency = match s.capture {
                CaptureMode::HoldAndCount => {
                    pll.set_hold(true);
                    seq.advance(pll.time());
                    let reading = fc.measure(pll, s.count_divided_output);
                    pll.set_hold(false);
                    reading
                }
                CaptureMode::GatedCount { gate_fraction } => {
                    // Count on the free-running output: the gate must stay
                    // short relative to the modulation period or the peak
                    // is averaged away.
                    seq.advance(pll.time());
                    let f_tap = if s.count_divided_output {
                        pll.config().f_ref_hz
                    } else {
                        pll.config().f_vco_hz()
                    };
                    let cycles = ((gate_fraction * t_mod * f_tap).floor() as u64).max(1);
                    FrequencyCounter::new(s.test_clock_hz, cycles)
                        .measure(pll, s.count_divided_output)
                }
            };
            drop(count);
            if tel.is_enabled() {
                let d = pll.work_stats().since(&stats_tone);
                tel.add("monitor.mfreq_strobes", mfreq_strobes);
                tel.add("monitor.counter_gates", 1);
                tel.add("monitor.hold_engagements", d.hold_engagements);
                tel.add("sim.steps", d.steps);
                tel.add("sim.step_rejections", d.step_rejections);
                tel.add("sim.ref_edges", d.ref_edges);
                tel.add("sim.fb_edges", d.fb_edges);
                tel.add("sim.kernel_events", d.kernel_events);
                tel.add("pfd.dead_zone_glitches", d.pfd_glitches);
            }
            let delta_f_hz = frequency.frequency_hz - nominal.frequency_hz;
            // A physical lag lies within one modulation period. If the
            // detector slipped a period (a spurious lead/lag wiggle just
            // before the window silenced the true crossing — the same
            // failure a level-based MFREQ flag has in hardware), the
            // counter interval exceeds T_mod by exactly k·T_mod; folding
            // recovers the true phase.
            let raw_delay = (t_output_peak - t_input_peak).max(0.0);
            let folded = raw_delay.rem_euclid(t_mod);
            let phase = pc.reading(0.0, folded, t_mod);

            // Stage 5.
            seq.advance(pll.time());
            points.push(MonitorPoint {
                f_mod_hz: f_mod,
                frequency,
                delta_f_hz,
                phase,
                t_input_peak,
                t_output_peak,
                peak_found,
            });
        }

        (points, seq.transcript().to_vec())
    }

    fn build_stimulus(&self, f_ref_hz: f64, f_mod_hz: f64) -> FmStimulus {
        let dev = self.settings.deviation_hz;
        match self.settings.stimulus {
            StimulusKind::PureSine => FmStimulus::pure_sine(f_ref_hz, dev, f_mod_hz),
            StimulusKind::TwoTone => FmStimulus::two_tone(f_ref_hz, dev, f_mod_hz),
            StimulusKind::MultiTone { steps } => {
                FmStimulus::multi_tone(f_ref_hz, dev, f_mod_hz, steps)
            }
            StimulusKind::QuantizedDco { steps, f_master_hz } => {
                DcoDesign::new(f_master_hz, f_ref_hz)
                    .quantized_multi_tone(dev, f_mod_hz, steps)
                    .0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_sim::behavioral::CpPll;
    use pllbist_sim::error::quiet_contained_panics;
    use pllbist_sim::plan::Scheduler;
    use pllbist_sim::supervisor::{IncidentAction, SupervisorPolicy};

    fn tiny_settings() -> MonitorSettings {
        MonitorSettings {
            mod_frequencies_hz: vec![1.0, 8.0, 25.0],
            settle_periods: 2.5,
            loop_settle_secs: 0.25,
            capture_transcript: true,
            ..MonitorSettings::fast()
        }
    }

    fn serial_plan(cfg: &PllConfig) -> CampaignPlan {
        CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial)
    }

    fn plan_at(cfg: &PllConfig, threads: usize) -> CampaignPlan {
        let scheduler = if threads <= 1 {
            Scheduler::Serial
        } else {
            Scheduler::WorkStealing { threads }
        };
        CampaignPlan::new(cfg.clone()).scheduler(scheduler)
    }

    #[test]
    fn monitor_measures_in_band_unity_gain() {
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let result = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        assert_eq!(result.points.len(), 3);
        // Nominal reading near 5 kHz (VCO tap).
        assert!((result.nominal.frequency_hz - 5_000.0).abs() < 2.0);
        // In-band point: ΔF ≈ N·Δf_ref = 50 Hz.
        let p0 = &result.points[0];
        assert!(p0.peak_found, "in-band peak detected");
        assert!((p0.delta_f_hz - 50.0).abs() < 5.0, "ΔF = {}", p0.delta_f_hz);
        // In-band lag is small.
        assert!(p0.phase.phase_degrees > -30.0, "{}", p0.phase.phase_degrees);
    }

    #[test]
    fn monitor_sees_the_resonant_peak() {
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let result = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        let bode = result.to_bode();
        let pts = bode.points();
        // 8 Hz (resonance) above the 1 Hz reference; 25 Hz attenuated.
        assert!(pts[1].magnitude > 1.02, "peak {}", pts[1].magnitude);
        assert!(pts[2].magnitude < 0.8, "rolloff {}", pts[2].magnitude);
        // Phase increasingly lags.
        assert!(pts[1].phase < pts[0].phase);
        assert!(pts[2].phase < pts[1].phase);
    }

    #[test]
    fn monitor_matches_hold_referred_model_within_tolerance() {
        // The hold-and-count readout follows the hold-referred (no-zero)
        // response, not the full divided-output one — see
        // LoopAnalysis::hold_referred_transfer.
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let result = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        let h = cfg.analysis().hold_referred_transfer();
        let h_ref = h.magnitude(TAU * 1.0);
        for p in &result.points {
            let want = h.magnitude(TAU * p.f_mod_hz) / h_ref;
            let got = p.delta_f_hz.abs() / result.points[0].delta_f_hz.abs();
            assert!(
                (got - want).abs() / want < 0.25,
                "f={} got {got} want {want}",
                p.f_mod_hz
            );
        }
    }

    #[test]
    fn transcript_covers_every_stage() {
        // Every tone walks stages 1–5 once, in order, on its own clock:
        // stage 1 is entered when the tone's settled engine starts, and
        // time never decreases within a tone.
        let cfg = PllConfig::paper_table3();
        let settings = tiny_settings();
        let start = Scenario::with_lock_settle(&cfg, settings.resolved_loop_settle(&cfg).max(0.1))
            .settle_fresh::<CpPll>()
            .time();
        let monitor = TransferFunctionMonitor::new(settings);
        for threads in [1, 2] {
            let result = monitor.measure(&plan_at(&cfg, threads)).expect_healthy();
            assert_eq!(result.transcript.len(), 3 * 5);
            for (tone_index, tone) in result.transcript.chunks(5).enumerate() {
                let stages: Vec<u8> = tone.iter().map(|tr| tr.stage.number()).collect();
                assert_eq!(stages, [1, 2, 3, 4, 5], "tone {tone_index}");
                assert!(tone.iter().all(|tr| tr.tone_index == tone_index));
                assert_eq!(tone[0].t.to_bits(), start.to_bits(), "tone {tone_index}");
                assert!(tone.windows(2).all(|w| w[0].t <= w[1].t));
            }
        }
    }

    #[test]
    fn stimulus_kinds_build() {
        let kinds = [
            StimulusKind::PureSine,
            StimulusKind::TwoTone,
            StimulusKind::MultiTone { steps: 10 },
            StimulusKind::QuantizedDco {
                steps: 10,
                f_master_hz: 1e6,
            },
        ];
        for kind in kinds {
            let monitor = TransferFunctionMonitor::new(MonitorSettings {
                stimulus: kind,
                ..MonitorSettings::fast()
            });
            let stim = monitor.build_stimulus(1_000.0, 5.0);
            assert!((stim.peak_deviation_hz() - 10.0).abs() < 1.1, "{kind:?}");
        }
    }

    #[test]
    fn device_walk_matches_serial_plan_physics() {
        // measure_device walks every tone on one engine, a plan settles
        // each tone separately: the settle histories differ, so only
        // low-order bits may differ. The walk's transcript is on one
        // clock and never runs backwards.
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let planned = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        let mut pll = CpPll::new_locked(&cfg);
        let device = monitor.measure_device(&mut pll, &TelemetryConfig::disabled());
        assert_eq!(device.nominal, planned.nominal);
        assert_eq!(device.points.len(), planned.points.len());
        for (a, b) in device.points.iter().zip(&planned.points) {
            assert_eq!(a.f_mod_hz, b.f_mod_hz);
            let rel = (a.delta_f_hz - b.delta_f_hz).abs() / a.delta_f_hz.abs().max(1.0);
            assert!(
                rel < 0.05,
                "f = {}: device ΔF {} vs plan ΔF {}",
                a.f_mod_hz,
                a.delta_f_hz,
                b.delta_f_hz
            );
        }
        assert_eq!(device.transcript.len(), planned.transcript.len());
        assert!(device.transcript.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(
            device.transcript[0].t > 0.0,
            "stage 1 starts after the nominal reading"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_physics() {
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let serial = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        let parallel = monitor.measure(&plan_at(&cfg, 2)).expect_healthy();
        // Same tones, same order, full Table 2 transcript, and the same
        // physics. (The two plans are in fact bit-identical — the plan
        // matrix in tests/monitor_plan_matrix.rs pins that.)
        assert_eq!(serial.points.len(), parallel.points.len());
        assert_eq!(parallel.transcript.len(), 3 * 5);
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.f_mod_hz, b.f_mod_hz);
            let rel = (a.delta_f_hz - b.delta_f_hz).abs() / a.delta_f_hz.abs().max(1.0);
            assert!(
                rel < 0.05,
                "f = {}: serial ΔF {} vs parallel ΔF {}",
                a.f_mod_hz,
                a.delta_f_hz,
                b.delta_f_hz
            );
        }
    }

    #[test]
    fn parallel_sweep_is_deterministic_per_worker_count() {
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let a = monitor.measure(&plan_at(&cfg, 2)).expect_healthy();
        let b = monitor.measure(&plan_at(&cfg, 2)).expect_healthy();
        assert_eq!(a.points, b.points);
    }

    #[test]
    fn checkpoint_off_parallel_sweep_is_identical() {
        // The parallel path's per-tone snapshot restore is bit-exact, so
        // turning checkpointing off (every tone re-locks from scratch)
        // changes wall-clock time only.
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let ckpt = monitor.measure(&plan_at(&cfg, 2)).expect_healthy();
        let fresh = monitor
            .measure(&plan_at(&cfg, 2).checkpoint(false))
            .expect_healthy();
        assert_eq!(ckpt.points, fresh.points);
    }

    #[test]
    fn fast_settings_skip_the_transcript() {
        let cfg = PllConfig::paper_table3();
        let mut settings = tiny_settings();
        settings.capture_transcript = false;
        let result = TransferFunctionMonitor::new(settings)
            .measure(&serial_plan(&cfg))
            .expect_healthy();
        assert!(result.transcript.is_empty());
        assert_eq!(result.points.len(), 3);
        // Telemetry disabled by default: no records either.
        assert!(result.telemetry.is_empty());
    }

    #[test]
    fn telemetry_records_monitor_stages_without_steering() {
        use pllbist_telemetry::{Record, TelemetryConfig};
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let baseline = monitor.measure(&serial_plan(&cfg)).expect_healthy();
        let observed = monitor
            .measure(&serial_plan(&cfg).telemetry(TelemetryConfig::enabled()))
            .expect_healthy();
        // Observation never steers the physics.
        assert_eq!(baseline.points, observed.points);
        // One tone span per modulation frequency, plus stage spans.
        let span_names: Vec<&str> = observed
            .telemetry
            .iter()
            .filter_map(|r| match r {
                Record::Span { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(
            span_names.iter().filter(|n| **n == "monitor.tone").count(),
            3
        );
        for stage in [
            "monitor.nominal",
            "monitor.settle",
            "monitor.capture",
            "monitor.count",
        ] {
            assert!(span_names.contains(&stage), "missing span {stage}");
        }
        // Work counters present with plausible magnitudes.
        let counter = |want: &str| {
            observed.telemetry.iter().find_map(|r| match r {
                Record::Counter { name, value } if name == want => Some(*value),
                _ => None,
            })
        };
        assert_eq!(counter("monitor.counter_gates"), Some(3));
        assert!(counter("sim.steps").unwrap() > 100);
        assert!(counter("sim.ref_edges").unwrap() > 10);
        assert!(counter("monitor.hold_engagements").unwrap() >= 3);
        // Unsupervised plans emit no supervisor.* records.
        assert!(!observed
            .telemetry
            .iter()
            .any(|r| matches!(r, Record::Counter { name, .. } if name.starts_with("supervisor."))));
        // Transcript memory gauge reported.
        assert!(observed.telemetry.iter().any(|r| matches!(
            r,
            Record::Gauge { name, .. } if name == "monitor.transcript_bytes"
        )));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_sweep_rejected() {
        let mut s = MonitorSettings::fast();
        s.mod_frequencies_hz = vec![8.0, 1.0];
        let _ = TransferFunctionMonitor::new(s);
    }

    #[test]
    fn supervised_measure_is_bitwise_identical_on_healthy_device() {
        let cfg = PllConfig::paper_table3();
        for threads in [1usize, 2] {
            let monitor = TransferFunctionMonitor::new(tiny_settings());
            let baseline = monitor.measure(&plan_at(&cfg, threads)).expect_healthy();
            let supervised =
                monitor.measure(&plan_at(&cfg, threads).supervised(SupervisorPolicy::default()));
            assert!(supervised.incidents.is_empty(), "threads {threads}");
            assert_eq!(supervised.quarantined_count(), 0);
            assert_eq!(
                supervised.nominal,
                Ok(baseline.nominal),
                "threads {threads}"
            );
            assert_eq!(supervised.points.len(), baseline.points.len());
            for (got, want) in supervised.points.iter().zip(&baseline.points) {
                assert_eq!(
                    got.as_ref().ok(),
                    Some(want),
                    "threads {threads}: supervised point diverged"
                );
            }
            assert_eq!(supervised.transcript, baseline.transcript);
            let bode = supervised.to_bode().expect("healthy sweep has a bode");
            assert_eq!(bode.points().len(), baseline.to_bode().points().len());
        }
    }

    #[test]
    fn supervised_measure_quarantines_a_nan_device_without_aborting() {
        // A VCO with a NaN curvature coefficient poisons the control
        // path immediately; the supervisor must quarantine the whole
        // device (nominal + every tone) instead of crashing.
        let mut cfg = PllConfig::paper_table3();
        cfg.vco_curvature = (f64::NAN, 0.0);
        quiet_contained_panics();
        let result = TransferFunctionMonitor::new(tiny_settings())
            .measure(&serial_plan(&cfg).supervised(SupervisorPolicy::default()));
        assert!(result.nominal.is_err(), "NaN device has no nominal");
        assert_eq!(result.ok_count(), 0);
        assert_eq!(result.quarantined_count(), 3);
        assert!(result
            .points
            .iter()
            .all(|p| matches!(p, Err(SweepPointError::NumericalDivergence { .. }))));
        // An all-quarantined device yields a *typed* degenerate-fit
        // error carrying the device-level sentinel, not a silent None.
        assert!(matches!(
            result.to_bode(),
            Err(SweepPointError::DegenerateFit { f_mod_hz }) if f_mod_hz == DEVICE_INCIDENT_F_MOD
        ));
        assert!(matches!(
            result.estimate(),
            Err(SweepPointError::DegenerateFit { .. })
        ));
        // Device-level incidents are tagged with the sentinel tone and
        // end in quarantine after the policy's retries.
        assert!(!result.incidents.is_empty());
        assert!(result
            .incidents
            .iter()
            .all(|i| i.f_mod_hz == DEVICE_INCIDENT_F_MOD));
        assert!(matches!(
            result.incidents.last().map(|i| &i.action),
            Some(IncidentAction::Quarantined)
        ));
    }

    #[test]
    fn supervised_measure_is_deterministic() {
        let mut cfg = PllConfig::paper_table3();
        cfg.vco_curvature = (f64::NAN, 0.0);
        quiet_contained_panics();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let plan = serial_plan(&cfg).supervised(SupervisorPolicy::default());
        let a = monitor.measure(&plan);
        let b = monitor.measure(&plan);
        assert_eq!(a.incidents.len(), b.incidents.len());
        for (x, y) in a.incidents.iter().zip(&b.incidents) {
            assert_eq!(x.attempt, y.attempt);
            assert_eq!(x.error.kind(), y.error.kind());
        }
    }

    #[test]
    fn resume_and_sidecar_are_ignored_and_create_no_file() {
        let cfg = PllConfig::paper_table3();
        let monitor = TransferFunctionMonitor::new(tiny_settings());
        let dir = std::env::temp_dir().join("pllbist_monitor_resume");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("ckpt"));
        let plain = monitor.measure(&plan_at(&cfg, 2));
        let resumed = monitor.measure(&plan_at(&cfg, 2).resume_from(&path));
        // Debug renders every f64 round-trip exactly: equal text, equal bits.
        let bits = |r: &SupervisedMonitorResult| {
            format!("{:?} {:?} {:?}", r.nominal, r.points, r.transcript)
        };
        assert_eq!(bits(&plain), bits(&resumed));
        assert!(!path.exists(), "the monitor must not open a results file");
        assert!(!path.with_extension("ckpt").exists(), "nor a sidecar");
    }
}
