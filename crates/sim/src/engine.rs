//! The backend-generic closed-loop engine abstraction.
//!
//! The paper's central claim (§5, Table 2) is that one digital BIST
//! sequence characterises the closed loop *regardless of how the loop is
//! realised*. [`PllEngine`] is that claim as a trait: everything the
//! Table 2 sequencer, the counters and the sweep pipeline need from a
//! loop — time, stimulus programming, the hold mechanism, edge events,
//! counter-style phase readout — with three loop models:
//!
//! * [`crate::behavioral::CpPll`] — the behavioural loop (PFD, hold mux,
//!   edges, counters, checkpointing, in [`crate::loop_shell`]) over one
//!   integrator: an exact closed-form segment per PFD switching event
//!   wherever the filter has a scalar reduction and the VCO is linear,
//!   micro-steps of the filter state vector elsewhere (ripple
//!   capacitors, VCO curvature/clamping, cold start);
//! * [`crate::cosim::MixedSignalPll`] — the gate-level co-simulation;
//! * [`ClosedFormPll`] (here) — a thin adapter over
//!   [`crate::linear::LoopAnalysis`] producing the closed-form
//!   steady-state response, the analytic reference curve the others
//!   are judged against.
//!
//! The three keep their own phase models but find their output edges
//! with one root finder, `loop_shell::solve_crossing` (feedback
//! edges; the gate-level engine's VCO toggles), and place their
//! reference edges by the stimulus's exact phase inverse.
//!
//! Each engine also exposes **lock-state checkpointing**
//! ([`PllEngine::checkpoint`] / [`PllEngine::restore`]): a snapshot of
//! the settled loop that sweeps clone per point instead of re-locking —
//! see [`crate::scenario`]. Restoring is bit-exact: a restored engine
//! continues precisely as the snapshotted one would have.

use crate::behavioral::LoopEvent;
use crate::config::PllConfig;
use crate::loop_shell::{solve_crossing, Segment};
use crate::stimulus::{FmStimulus, PhasePoint};
use pllbist_numeric::tf::TransferFunction;
use std::f64::consts::TAU;

/// Backend-agnostic work counters, the same on every engine.
/// Plain `u64`s, polled at stage boundaries and diffed with
/// [`WorkStats::since`] so telemetry observes without steering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Committed integration segments (or closed-form evaluations).
    pub steps: u64,
    /// Trial segments shortened because an output edge (a feedback edge,
    /// or a VCO toggle on the gate-level engine) fell inside them.
    pub step_rejections: u64,
    /// Reference edges processed.
    pub ref_edges: u64,
    /// Feedback (divided-output) edges processed.
    pub fb_edges: u64,
    /// Hold-mechanism engagements (off→on transitions).
    pub hold_engagements: u64,
    /// PFD dead-zone glitches (behavioural engine only; zero elsewhere).
    pub pfd_glitches: u64,
    /// Digital-kernel events dispatched (gate-level engine only; zero
    /// elsewhere).
    pub kernel_events: u64,
}

impl WorkStats {
    /// Component-wise `self − earlier` (saturating), turning two
    /// cumulative snapshots into a per-stage delta.
    pub fn since(&self, earlier: &WorkStats) -> WorkStats {
        WorkStats {
            steps: self.steps.saturating_sub(earlier.steps),
            step_rejections: self.step_rejections.saturating_sub(earlier.step_rejections),
            ref_edges: self.ref_edges.saturating_sub(earlier.ref_edges),
            fb_edges: self.fb_edges.saturating_sub(earlier.fb_edges),
            hold_engagements: self
                .hold_engagements
                .saturating_sub(earlier.hold_engagements),
            pfd_glitches: self.pfd_glitches.saturating_sub(earlier.pfd_glitches),
            kernel_events: self.kernel_events.saturating_sub(earlier.kernel_events),
        }
    }

    /// Component-wise accumulation of another stats block.
    pub fn absorb(&mut self, other: &WorkStats) {
        self.steps += other.steps;
        self.step_rejections += other.step_rejections;
        self.ref_edges += other.ref_edges;
        self.fb_edges += other.fb_edges;
        self.hold_engagements += other.hold_engagements;
        self.pfd_glitches += other.pfd_glitches;
        self.kernel_events += other.kernel_events;
    }
}

/// A closed-loop PLL engine the BIST pipeline can drive.
///
/// The contract mirrors what the on-chip monitor of figs. 4/6 can
/// actually do to an embedded loop: program the FM stimulus (the DCO
/// mux), engage the loop-break hold, observe reference/feedback edges,
/// and read the accumulated output phase (what the gated counters
/// quantise). No method grants analogue node access beyond
/// [`control_voltage`](Self::control_voltage), which exists for
/// bench-style baselines and assertions, not for the BIST itself.
///
/// # Checkpointing
///
/// [`checkpoint`](Self::checkpoint) captures the full dynamic state;
/// [`restore`](Self::restore) overwrites an engine **built from the same
/// configuration** with it, bit for bit — the restored engine continues
/// precisely as the snapshotted one would have, work counters included
/// (so checkpointed and from-scratch sweeps report identical telemetry).
/// Event collection and engine-specific instrumentation (samplers,
/// transcripts) are *not* part of a checkpoint: a restored engine starts
/// with collection off and empty buffers. Restoring a checkpoint into an
/// engine built from a different configuration is a contract violation
/// (the result is unspecified but memory-safe).
pub trait PllEngine {
    /// A cloneable snapshot of the engine's dynamic state.
    type Checkpoint: Clone + Send + Sync;

    /// Builds the loop preset at its lock point (the paper's Table 2
    /// sequence assumes "the PLL is initially locked").
    fn new_locked(config: &PllConfig) -> Self
    where
        Self: Sized;

    /// The configuration this loop was built from.
    fn config(&self) -> &PllConfig;

    /// Current simulation time in seconds.
    fn time(&self) -> f64;

    /// Advances the simulation to absolute time `t_end`.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is in the past or not finite.
    fn advance_to(&mut self, t_end: f64);

    /// Current control (loop-filter output) voltage.
    fn control_voltage(&self) -> f64;

    /// Current instantaneous VCO frequency in Hz.
    fn vco_frequency_hz(&self) -> f64;

    /// Accumulated VCO phase in cycles — the ideal-counter readout the
    /// BIST layer quantises.
    fn vco_phase_cycles(&self) -> f64;

    /// Replaces the reference stimulus **phase-continuously**: the edge
    /// stream carries on without a phase step, exactly what reprogramming
    /// the DCO mux of fig. 4 does in hardware.
    fn set_stimulus(&mut self, stimulus: FmStimulus);

    /// Engages or releases the hold mechanism (paper §4, Table 2 stage
    /// 3): the loop stops correcting and the control state freezes.
    fn set_hold(&mut self, hold: bool);

    /// `true` while the hold mechanism is engaged.
    fn is_held(&self) -> bool;

    /// Starts or stops collecting [`LoopEvent`]s (reference/feedback
    /// edges — the peak detector's diet).
    fn collect_events(&mut self, on: bool);

    /// Drains collected events (time-ordered).
    fn take_events(&mut self) -> Vec<LoopEvent>;

    /// Snapshots the engine's dynamic state.
    fn checkpoint(&self) -> Self::Checkpoint;

    /// Overwrites this engine's dynamic state with a snapshot taken from
    /// an engine of the same configuration (see the trait docs for the
    /// exactness contract).
    fn restore(&mut self, snapshot: &Self::Checkpoint);

    /// Rescales the engine's internal work granularity to `scale ×` its
    /// configuration default, so the supervisor's retry ladder always
    /// tightens *something real*:
    ///
    /// * the behavioural loop shrinks the longest segment it commits
    ///   where the filter moves: the micro-step, and the
    ///   **event-subdivision guard** of its closed-form segments, whose
    ///   physics is unchanged but whose re-attempts commit more, shorter
    ///   segments (an interval the filter holds still stays one
    ///   segment);
    /// * the closed-form adapter has no work granularity at all and
    ///   ignores it (the default).
    ///
    /// A `scale` of exactly `1.0` must be a no-op bit for bit.
    fn set_step_scale(&mut self, _scale: f64) {}

    /// Stable, human-readable backend tag (`"cp_pll"`, `"closed_form"`,
    /// `"mixed_signal"`). Campaign digests fold it in so a resumable
    /// results file produced by one backend is never silently resumed by
    /// another (backends agree physically but not bit for bit).
    fn backend_name() -> &'static str
    where
        Self: Sized;

    /// The engine's name in campaign digests: its
    /// [`backend_name`](Self::backend_name), with a revision suffix once
    /// its bits have moved for unchanged inputs, so a results file or
    /// sidecar written with the earlier bits is refused
    /// (`HeaderMismatch`) and recomputed, never resumed into new bits.
    fn digest_tag() -> &'static str
    where
        Self: Sized,
    {
        Self::backend_name()
    }

    /// Serialises a checkpoint as a compact single-line token (floats
    /// as bit hex; no quotes, braces or backslashes) for the on-disk
    /// lock-state sidecar, or `None` when this backend's state cannot
    /// be persisted bit-exactly (the default — sweeps then re-settle as
    /// before). [`decode_checkpoint`](Self::decode_checkpoint) must be
    /// the exact inverse of every `Some` this returns.
    fn encode_checkpoint(_snapshot: &Self::Checkpoint) -> Option<String>
    where
        Self: Sized,
    {
        None
    }

    /// Rebuilds a checkpoint from
    /// [`encode_checkpoint`](Self::encode_checkpoint) output.
    /// `None` on malformed/torn input
    /// *or* when the backend does not support persistence — callers
    /// fall back to re-settling, never error.
    fn decode_checkpoint(_token: &str) -> Option<Self::Checkpoint>
    where
        Self: Sized,
    {
        None
    }

    /// Cumulative work counters since construction.
    ///
    /// `steps` counts the engine's own unit of committed work — committed
    /// segments (closed-form or micro-step) on
    /// [`crate::behavioral::CpPll`] — so a supervisor step budget is an
    /// engine-appropriate work budget on every backend.
    fn work_stats(&self) -> WorkStats;
}

/// Analogue-node access beyond what [`PllEngine`] grants: the sampled
/// control-voltage/VCO trace the fig. 3 *bench-style* baseline fits its
/// sine to. Only engines with a real analogue state implement it (the
/// behavioural [`crate::loop_shell::LoopShell`] does, for both
/// integrators; supervision wrappers forward it), which is what lets
/// [`crate::bench_measure`] run under the supervisor without widening
/// the BIST-visible surface.
pub trait AnalogAccess: PllEngine {
    /// Starts sampling the analogue state every `interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    fn enable_sampling(&mut self, interval: f64);

    /// Drains collected samples.
    fn take_samples(&mut self) -> Vec<crate::behavioral::Sample>;
}

/// First-harmonic steady-state response of one transfer function to the
/// current stimulus: `dev(t) = dc + amp·sin(ω·t + phase)`, output-referred
/// Hz.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct HarmonicResponse {
    omega: f64,
    amp_hz: f64,
    phase: f64,
    dc_hz: f64,
}

impl HarmonicResponse {
    /// Output-referred frequency deviation at time `t`, in Hz.
    fn deviation_at(&self, t: f64) -> f64 {
        if self.omega == 0.0 || self.amp_hz == 0.0 {
            self.dc_hz
        } else {
            self.dc_hz + self.amp_hz * (self.omega * t + self.phase).sin()
        }
    }

    /// Exact integral of [`deviation_at`](Self::deviation_at) over
    /// `[t, t + dt]`, in cycles.
    fn phase_cycles_over(&self, t: f64, dt: f64) -> f64 {
        if self.omega == 0.0 || self.amp_hz == 0.0 {
            return self.dc_hz * dt;
        }
        let w = self.omega;
        self.dc_hz * dt
            - self.amp_hz / w * ((w * (t + dt) + self.phase).cos() - (w * t + self.phase).cos())
    }
}

/// Quadrature points used to project a stimulus onto its fundamental.
/// Fixed (never adaptive) so the projection is a pure deterministic
/// function of the stimulus alone.
const PROJECTION_POINTS: usize = 512;

/// Projects `stimulus.deviation_at` onto `dc + a1·sin(ωt) + b1·cos(ωt)`
/// over one modulation period (midpoint quadrature — exact to rounding
/// for [`FmStimulus::pure_sine`], a well-converged Fourier projection
/// for the staircase and multi-tone kinds).
fn fundamental_of(stimulus: &FmStimulus) -> (f64, f64, f64) {
    let f_mod = stimulus.f_mod_hz();
    let omega = TAU * f_mod;
    let n = PROJECTION_POINTS;
    let (mut dc, mut a1, mut b1) = (0.0f64, 0.0f64, 0.0f64);
    for j in 0..n {
        let t = (j as f64 + 0.5) / (n as f64 * f_mod);
        let d = stimulus.deviation_at(t);
        dc += d;
        a1 += d * (omega * t).sin();
        b1 += d * (omega * t).cos();
    }
    let scale = 1.0 / n as f64;
    (dc * scale, 2.0 * a1 * scale, 2.0 * b1 * scale)
}

/// The closed-form reference engine: a [`PllEngine`] whose output is the
/// *analytic steady-state* response of the linearised loop
/// ([`crate::linear::LoopAnalysis`]), with reference and feedback edges
/// synthesised from the closed-form phases: each reference edge by the
/// stimulus's exact inverse, each feedback edge by
/// `loop_shell::solve_crossing` on the output phase. Both edge streams are
/// live whether or not events are collected, so the counts in
/// [`work_stats`](PllEngine::work_stats) are the recorded edges.
///
/// Two transfer functions drive it:
///
/// * the **full** feedback-referred response `H(jω)/N` shapes the live
///   output frequency (and therefore the feedback edges and the MFREQ
///   peak timing);
/// * the **hold-referred** response (no feed-through zero) supplies the
///   frozen value when [`set_hold`](PllEngine::set_hold) engages —
///   mirroring the physics of the hold capacitor, which never carried
///   the resistive feed-through path.
///
/// Transients are *not* modelled: a stimulus change switches the output
/// to the new steady state instantly (settle waits are physically free),
/// which is exactly what makes this the accuracy reference — whatever
/// the BIST measures on it should match the model curves to counter
/// resolution.
#[derive(Clone)]
pub struct ClosedFormPll {
    config: PllConfig,
    /// Full feedback-referred closed-loop response `H(jω)/N`.
    h_full: TransferFunction,
    /// Hold-referred response (what the hold capacitor state follows).
    h_hold: TransferFunction,
    f_center_hz: f64,
    divider_n: f64,
    stimulus: FmStimulus,
    stim_phase_base: f64,
    /// Steady-state output deviation under the current stimulus.
    resp_full: HarmonicResponse,
    resp_hold: HarmonicResponse,
    t: f64,
    out_phase_cycles: f64,
    hold: bool,
    /// Output frequency frozen at hold engagement, in Hz.
    held_freq_hz: f64,
    collect: bool,
    events: Vec<LoopEvent>,
    /// The pending reference edge's integer phase target (cycles, incl.
    /// base).
    next_ref_target: f64,
    /// The stimulus evaluated at the pending reference edge; it seeds
    /// the next edge's solve.
    next_ref: PhasePoint,
    /// Next feedback-edge output-phase target (multiples of N).
    next_fb_target: f64,
    stats: WorkStats,
}

impl ClosedFormPll {
    /// Builds the reference engine for `config`, already at its lock
    /// point (steady state is instantaneous here).
    pub fn new(config: &PllConfig) -> Self {
        let analysis = config.analysis();
        let stimulus = FmStimulus::constant(config.f_ref_hz, 0.0);
        let next_ref = stimulus.solve_phase(1.0, stimulus.eval(0.0));
        let mut engine = Self {
            config: config.clone(),
            h_full: analysis.feedback_transfer(),
            h_hold: analysis.hold_referred_transfer(),
            f_center_hz: config.f_vco_hz(),
            divider_n: config.divider_n as f64,
            stimulus,
            stim_phase_base: 0.0,
            resp_full: HarmonicResponse::default(),
            resp_hold: HarmonicResponse::default(),
            t: 0.0,
            out_phase_cycles: 0.0,
            hold: false,
            held_freq_hz: config.f_vco_hz(),
            collect: false,
            events: Vec::new(),
            next_ref_target: 1.0,
            next_ref,
            next_fb_target: config.divider_n as f64,
            stats: WorkStats::default(),
        };
        engine.project_responses();
        engine
    }

    /// Recomputes both steady-state responses for the current stimulus.
    fn project_responses(&mut self) {
        let (dc_in, a1, b1) = fundamental_of(&self.stimulus);
        let omega = TAU * self.stimulus.f_mod_hz();
        let amp_in = (a1 * a1 + b1 * b1).sqrt();
        let phi_in = b1.atan2(a1);
        let n = self.divider_n;
        let project = |h: &TransferFunction| {
            let h0 = h.eval_jw(0.0);
            let hw = h.eval_jw(omega);
            HarmonicResponse {
                omega,
                amp_hz: n * amp_in * hw.abs(),
                phase: phi_in + hw.arg(),
                dc_hz: n * dc_in * h0.re,
            }
        };
        self.resp_full = project(&self.h_full);
        self.resp_hold = project(&self.h_hold);
    }

    /// Output frequency at time `t` in the current regime, in Hz.
    fn output_frequency_at(&self, t: f64) -> f64 {
        if self.hold {
            self.held_freq_hz
        } else {
            self.f_center_hz + self.resp_full.deviation_at(t)
        }
    }

    /// The output segment over `[self.t, self.t + dt]` (closed form;
    /// valid while the regime does not change), with the output
    /// frequency at its end.
    pub(crate) fn segment(&self, dt: f64) -> (Segment<()>, f64) {
        let dphase = if self.hold {
            self.held_freq_hz * dt
        } else {
            self.f_center_hz * dt + self.resp_full.phase_cycles_over(self.t, dt)
        };
        let seg = Segment {
            dt,
            dphase,
            end: (),
        };
        (seg, self.output_frequency_at(self.t + dt))
    }

    fn commit(&mut self, seg: Segment<()>) {
        self.out_phase_cycles += seg.dphase;
        self.t += seg.dt;
        self.stats.steps += 1;
    }

    fn record(&mut self, event: LoopEvent) {
        if self.collect {
            self.events.push(event);
        }
    }
}

impl PllEngine for ClosedFormPll {
    /// The engine is plain data, so the checkpoint is the engine itself
    /// (with the event buffer cleared and collection off).
    type Checkpoint = ClosedFormPll;

    fn new_locked(config: &PllConfig) -> Self {
        Self::new(config)
    }

    fn config(&self) -> &PllConfig {
        &self.config
    }

    fn time(&self) -> f64 {
        self.t
    }

    fn advance_to(&mut self, t_end: f64) {
        assert!(
            t_end.is_finite() && t_end >= self.t,
            "t_end must be ahead of the current time"
        );
        while self.t < t_end {
            let is_ref_edge = self.next_ref.t <= t_end;
            let dt_seg = if is_ref_edge { self.next_ref.t } else { t_end } - self.t;
            if dt_seg > 0.0 {
                let (seg, _) = self.segment(dt_seg);
                if self.out_phase_cycles + seg.dphase >= self.next_fb_target {
                    // A feedback edge falls inside the segment: it is
                    // rejected and re-taken at the shortened length.
                    let target = self.next_fb_target - self.out_phase_cycles;
                    let f_entry = self.output_frequency_at(self.t);
                    let edge =
                        solve_crossing(f_entry, [0.0; 3], |dt| self.segment(dt), target, dt_seg);
                    self.commit(edge);
                    self.stats.step_rejections += 1;
                    self.stats.fb_edges += 1;
                    self.next_fb_target += self.divider_n;
                    self.record(LoopEvent::FbEdge { t: self.t });
                    continue;
                }
                self.commit(seg);
            }
            if is_ref_edge {
                self.record(LoopEvent::RefEdge { t: self.next_ref.t });
                self.stats.ref_edges += 1;
                self.next_ref_target += 1.0;
                self.next_ref = self
                    .stimulus
                    .solve_phase(self.next_ref_target - self.stim_phase_base, self.next_ref);
            }
        }
    }

    fn control_voltage(&self) -> f64 {
        self.config
            .build_vco()
            .control_for_frequency(self.vco_frequency_hz())
    }

    fn vco_frequency_hz(&self) -> f64 {
        self.output_frequency_at(self.t)
    }

    fn vco_phase_cycles(&self) -> f64 {
        self.out_phase_cycles
    }

    fn set_stimulus(&mut self, stimulus: FmStimulus) {
        let current = self.stim_phase_base + self.stimulus.phase_cycles(self.t);
        let here = stimulus.eval(self.t);
        self.stimulus = stimulus;
        self.stim_phase_base = current - here.phase;
        self.project_responses();
        // The pending edge has not fired, so its integer target carries
        // over; rounding in the new base may put it a hair behind now,
        // and then the edge fires now.
        let target = (self.next_ref_target - self.stim_phase_base).max(here.phase);
        self.next_ref = self.stimulus.solve_phase(target, here);
    }

    fn set_hold(&mut self, hold: bool) {
        if hold && !self.hold {
            // Freeze at the *hold-referred* response value: the hold
            // capacitor never carried the feed-through zero.
            self.held_freq_hz = self.f_center_hz + self.resp_hold.deviation_at(self.t);
            self.stats.hold_engagements += 1;
        }
        self.hold = hold;
    }

    fn is_held(&self) -> bool {
        self.hold
    }

    fn collect_events(&mut self, on: bool) {
        self.collect = on;
    }

    fn take_events(&mut self) -> Vec<LoopEvent> {
        std::mem::take(&mut self.events)
    }

    fn checkpoint(&self) -> ClosedFormPll {
        let mut snap = self.clone();
        snap.events = Vec::new();
        snap.collect = false;
        snap
    }

    fn restore(&mut self, snapshot: &ClosedFormPll) {
        *self = snapshot.clone();
    }

    fn backend_name() -> &'static str {
        "closed_form"
    }

    fn work_stats(&self) -> WorkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_tracks_in_band_modulation() {
        let cfg = PllConfig::paper_table3();
        let mut pll = ClosedFormPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 1.0));
        // Steady state immediately: the output swings ±N·|H(jω)|·10 Hz.
        let h = cfg.analysis().feedback_transfer().magnitude(TAU * 1.0);
        let mut max = f64::MIN;
        for k in 0..200 {
            pll.advance_to(k as f64 * 0.005);
            max = max.max(pll.vco_frequency_hz());
        }
        let want = 5_000.0 + 5.0 * 10.0 * h;
        assert!((max - want).abs() < 1.0, "max {max} want {want}");
    }

    #[test]
    fn phase_is_integral_of_frequency() {
        let cfg = PllConfig::paper_table3();
        let mut pll = ClosedFormPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 4.0));
        let mut numeric = 0.0;
        let dt = 1e-4;
        for k in 0..5_000 {
            numeric += pll.output_frequency_at(k as f64 * dt + 0.5 * dt) * dt;
        }
        pll.advance_to(0.5);
        assert!(
            (pll.vco_phase_cycles() - numeric).abs() < 1e-3,
            "{} vs {numeric}",
            pll.vco_phase_cycles()
        );
    }

    #[test]
    fn events_interleave_in_time_order() {
        let cfg = PllConfig::paper_table3();
        let mut pll = ClosedFormPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
        pll.advance_to(0.2);
        pll.collect_events(true);
        pll.advance_to(0.3);
        let events = pll.take_events();
        // 0.1 s at ~1 kHz on each stream → ~200 events total.
        assert!(events.len() > 150, "{} events", events.len());
        for w in events.windows(2) {
            assert!(w[0].time() <= w[1].time());
        }
        let refs = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::RefEdge { .. }))
            .count();
        let fbs = events.len() - refs;
        assert!(
            (refs as i64 - fbs as i64).abs() <= 3,
            "refs {refs} fbs {fbs}"
        );
    }

    #[test]
    fn hold_freezes_at_hold_referred_value() {
        let cfg = PllConfig::paper_table3();
        let mut pll = ClosedFormPll::new_locked(&cfg);
        let f_mod = 8.0;
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, f_mod));
        // Advance to the hold-referred response's own peak and engage.
        let t_peak = (0.25 * TAU - pll.resp_hold.phase).rem_euclid(TAU) / (TAU * f_mod);
        pll.advance_to(1.0 + t_peak);
        pll.set_hold(true);
        let frozen = pll.vco_frequency_hz();
        let want = 5_000.0 + pll.resp_hold.amp_hz;
        assert!((frozen - want).abs() < 1e-6, "{frozen} vs {want}");
        pll.advance_to(2.0);
        assert_eq!(pll.vco_frequency_hz(), frozen, "held value drifted");
        assert_eq!(pll.work_stats().hold_engagements, 1);
        pll.set_hold(false);
        assert!(!pll.is_held());
    }

    #[test]
    fn checkpoint_restore_is_bit_exact() {
        let cfg = PllConfig::paper_table3();
        let mut a = ClosedFormPll::new_locked(&cfg);
        a.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
        a.advance_to(0.35);
        let snap = a.checkpoint();
        let mut b = ClosedFormPll::new_locked(&cfg);
        b.restore(&snap);
        a.advance_to(0.9);
        b.advance_to(0.9);
        assert_eq!(
            a.vco_phase_cycles().to_bits(),
            b.vco_phase_cycles().to_bits()
        );
        assert_eq!(
            a.vco_frequency_hz().to_bits(),
            b.vco_frequency_hz().to_bits()
        );
        assert_eq!(a.work_stats(), b.work_stats());
    }

    #[test]
    fn stimulus_switch_keeps_a_pending_edge() {
        let cfg = PllConfig::paper_table3();
        let mut pll = ClosedFormPll::new_locked(&cfg);
        pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10));
        pll.advance_to(0.0503);
        let edge = pll.next_ref.t;
        crate::loop_shell::tests::assert_switch_keeps_pending_edge(&mut pll, edge);
    }

    #[test]
    fn edge_counts_do_not_depend_on_collection() {
        // One advance path: the recorded edges are the counted ones, up
        // to the horizon, at every modulation frequency.
        let cfg = PllConfig::paper_table3();
        for f_mod in 1..=16 {
            let stimulus = FmStimulus::pure_sine(1_000.0, 10.0, f64::from(f_mod));
            let mut counted = ClosedFormPll::new_locked(&cfg);
            counted.set_stimulus(stimulus.clone());
            counted.advance_to(1.0);
            let mut recorded = ClosedFormPll::new_locked(&cfg);
            recorded.set_stimulus(stimulus);
            recorded.collect_events(true);
            recorded.advance_to(1.0);
            let events = recorded.take_events();
            let refs = events
                .iter()
                .filter(|e| matches!(e, LoopEvent::RefEdge { .. }))
                .count() as u64;
            let fbs = events.len() as u64 - refs;
            let stats = counted.work_stats();
            assert_eq!(
                (refs, fbs),
                (stats.ref_edges, stats.fb_edges),
                "f_mod {f_mod} Hz"
            );
        }
    }

    #[test]
    fn work_stats_diff_cleanly() {
        let mut a = WorkStats {
            steps: 10,
            ref_edges: 4,
            ..WorkStats::default()
        };
        let b = WorkStats {
            steps: 25,
            ref_edges: 9,
            fb_edges: 3,
            ..WorkStats::default()
        };
        let d = b.since(&a);
        assert_eq!(d.steps, 15);
        assert_eq!(d.ref_edges, 5);
        a.absorb(&d);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.fb_edges, b.fb_edges);
    }
}
