//! The behavioural CP-PLL loop, written once: a [`LoopShell`] generic over
//! how the loop is integrated between PFD events.
//!
//! The loop state advances over **segments** during which the pump drive
//! is constant. Segment boundaries are: the next reference edge (from the
//! stimulus's closed-form phase), the next feedback edge (the VCO phase
//! crossing its divider target), the dead-zone expiry of an armed PFD
//! pulse, a sampler tick, a segment cap where the filter moves under the
//! segment's drive (see [`Integrator::segment_cap_periods`]) and the
//! caller's horizon. The times of reference and feedback edges — the
//! only instants anything discrete happens in a CP-PLL — are where the
//! PFD, the hold mux, the divider and the counters act; all of that lives
//! in the shell.
//!
//! What happens *inside* a segment is the [`Integrator`]'s business:
//! [`crate::behavioral::MicroStep`] (behind [`crate::behavioral::CpPll`])
//! takes a closed-form affine segment under every drive that has one and
//! micro-steps the filter state vector elsewhere. The trait has one
//! implementation; it stays a trait so a test can wrap the integrator
//! and count the evaluations the shell asks of it.
//!
//! The shell finds the feedback edges with one solver:
//! safeguarded Newton on the integrator's phase advance, whose derivative
//! is the instantaneous VCO frequency ([`Integrator::frequency`]), seeded
//! from the frequency's derivatives at the segment start
//! ([`Integrator::frequency_derivatives`]). The solver, `solve_crossing`,
//! takes the phase as a closure, so the closed-form and gate-level
//! engines find their output edges with it too.
//!
//! Work accounting: `steps` counts committed segments, and every
//! feedback edge is a shortened, rejected segment. A rejection is counted
//! whether the trial segment was evaluated or proven to cross by the
//! integrator's [`phase_floor`](Integrator::phase_floor) without
//! evaluating it, so the counters do not depend on how cheaply the
//! integrator answers.

use crate::campaign::{bits_hex, f64_from_bits_hex};
use crate::config::{DriveConfig, PllConfig};
use crate::engine::{AnalogAccess, PllEngine, WorkStats};
use crate::noise::{NoiseConfig, NoiseSource};
use crate::stimulus::{FmStimulus, PhasePoint};
use pllbist_analog::filter::LoopFilter;
use pllbist_analog::pfd::{BehavioralPfd, PfdOutput};
use pllbist_analog::pump::{ChargePump, PumpOutput, VoltageDriver};
use pllbist_analog::vco::Vco;

/// A discrete event observed at the loop boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoopEvent {
    /// Rising edge of the (modulated) reference input.
    RefEdge {
        /// Event time in seconds.
        t: f64,
    },
    /// Rising edge of the divided VCO (feedback) signal.
    FbEdge {
        /// Event time in seconds.
        t: f64,
    },
}

impl LoopEvent {
    /// The event time in seconds.
    pub fn time(&self) -> f64 {
        match self {
            LoopEvent::RefEdge { t } | LoopEvent::FbEdge { t } => *t,
        }
    }
}

/// One recorded analogue sample.
///
/// `v_ctrl` and `f_vco_hz` are **instantaneous** values: with a tri-state
/// voltage drive they show the correction-pulse ripple (the resistive
/// feed-through of the paper's fig. 9 network, visible in its fig. 8
/// waveforms). `phase_cycles` is the VCO phase accumulator — differencing
/// it between samples gives the ripple-free boxcar-average frequency,
/// exactly what a gated counter measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Sample time in seconds.
    pub t: f64,
    /// Loop-filter (control) voltage in volts.
    pub v_ctrl: f64,
    /// Instantaneous VCO frequency in Hz.
    pub f_vco_hz: f64,
    /// Accumulated VCO phase in cycles.
    pub phase_cycles: f64,
    /// The **held** control voltage — the filter output with the drive
    /// high-impedance (the capacitor state the hold mechanism freezes).
    /// Free of correction-pulse feed-through; the smooth trajectory.
    pub v_held: f64,
}

/// One constant-drive segment an [`Integrator`] has evaluated but not
/// committed: its length, the VCO phase advance over it and the
/// integrator state at its end — all from the same evaluation, so the
/// commit recomputes nothing.
#[derive(Clone, Copy, Debug)]
pub struct Segment<S> {
    /// Segment length in seconds.
    pub dt: f64,
    /// VCO phase advance over the segment, in cycles.
    pub dphase: f64,
    /// Integrator state at the segment end.
    pub end: S,
}

/// How the loop filter and VCO phase advance between two PFD events.
///
/// An integrator holds only what its configuration determines (filter
/// coefficients, closed-form kernels); the dynamic state `x` lives in the
/// shell's [`LoopState`], so checkpointing it is a clone. The shell passes
/// every method the PFD drive that is active over the whole segment (hold
/// and an unexpired dead zone both present [`PfdOutput::Off`]).
pub trait Integrator: Sized {
    /// The integrator's dynamic state (the filter state vector).
    type State: Clone + std::fmt::Debug + Send + Sync;
    /// The longest segment the shell commits under `drive` at step scale
    /// 1, in reference periods ([`PllEngine::set_step_scale`] scales it).
    /// Infinite where the integrator is exact at any length under `drive`:
    /// the segment then ends only at an edge, the dead-zone expiry, a
    /// sample or the horizon.
    fn segment_cap_periods(&self, drive: PfdOutput) -> f64;

    /// Builds the integrator and its state preset at the lock point of
    /// `config`.
    fn locked(config: &PllConfig) -> (Self, Self::State);

    /// The filter output (control) voltage at state `x` under `drive`.
    fn output(&self, x: &Self::State, drive: PfdOutput) -> f64;

    /// The instantaneous VCO frequency in Hz at state `x` under `drive` —
    /// the time derivative of the phase advance.
    fn frequency(&self, x: &Self::State, drive: PfdOutput) -> f64;

    /// Evaluates a segment of length `dt` from state `x` under `drive`.
    fn advance(&mut self, x: &Self::State, drive: PfdOutput, dt: f64) -> Segment<Self::State>;

    /// The first three time derivatives of the VCO frequency at state `x`
    /// under `drive` (Hz/s, Hz/s², Hz/s³): the curvature terms of the
    /// feedback-edge solve's first candidate. Zeros leave that candidate
    /// at `Δφ/f`.
    fn frequency_derivatives(&self, x: &Self::State, drive: PfdOutput) -> [f64; 3];

    /// A lower bound on the **computed** phase advance
    /// `advance(x, drive, dt).dphase`, rounding included, from `x` alone
    /// (`-∞` where there is none). When it already reaches the feedback
    /// target, the shell goes straight to the edge solve without
    /// evaluating the full segment (whose values it would only have
    /// compared).
    fn phase_floor(&self, x: &Self::State, drive: PfdOutput, dt: f64) -> f64;

    /// Encodes a state as field 1 of a sidecar token (no `|`).
    fn encode_state(x: &Self::State) -> String;

    /// Inverse of [`encode_state`](Self::encode_state); `None` on
    /// malformed input.
    fn decode_state(field: &str) -> Option<Self::State>;
}

/// The backend tag ([`PllEngine::backend_name`]).
const BACKEND: &str = "cp_pll";

/// The backend in campaign digests ([`PllEngine::digest_tag`]): revision
/// 2 since the closed-form segment moved into the integrator, which
/// moved in-class bits.
const DIGEST_TAG: &str = "cp_pll@2";

/// The prefix of the loop's sidecar checkpoint tokens.
const TOKEN_PREFIX: &str = "cp:";

/// Convergence tolerance for [`solve_crossing`], relative to
/// the *segment length* (`dt_max`), not the candidate. The distinction
/// matters in lock: the feedback edge then falls essentially at the
/// segment start (the remaining target phase is cancellation noise of the
/// accumulated-cycles subtraction), so the true root sits at `dt ≈ 1e-18 s`
/// and any candidate-relative threshold collapses with it — Newton would
/// grind sub-noise bisection for the full iteration budget chasing
/// precision the target itself doesn't carry. One part in 10¹³ of a
/// segment is ~1e-16 s on a reference period: far below edge-time
/// significance (the phase error it admits is under the target's own
/// rounding noise), reached in a couple of iterations whether the root is
/// mid-segment or degenerate at the boundary.
const EDGE_REL_TOL: f64 = 1e-13;

/// The segment `dt ∈ (0, dt_max]` at whose end the phase advance reaches
/// `target` cycles; the caller guarantees the phase at `dt_max` reaches
/// the target. Every engine's output edges come from here: the
/// integrator's feedback edges, [`crate::engine::ClosedFormPll`]'s
/// feedback edges and [`crate::cosim::MixedSignalPll`]'s VCO toggles.
///
/// The caller describes its phase by three things: `f_entry`, the
/// instantaneous frequency at the segment start; `derivatives`, that
/// frequency's first three time derivatives there (Hz/s, Hz/s², Hz/s³;
/// zeros are always valid); and `segment`, which evaluates the segment
/// of a given length and returns it with the frequency at its end.
///
/// Newton on the phase advance φ, taking the frequency f at the
/// candidate's end as its slope, safeguarded by a shrinking bracket with
/// bisection fallback. The first candidate inverts the phase's quartic
/// Taylor expansion at the segment start,
/// `φ(t) = f·t·(1 + p·t + q·t² + r·t³)` with `p = f′/2f`, `q = f″/6f`
/// and `r = f‴/24f`:
/// `h − p·h² + (2p² − q)·h³ + (5pq − 5p³ − r)·h⁴`, `h = Δφ/f`. On
/// [`crate::behavioral::MicroStep`]'s closed-form kernel that lands
/// within the tolerance below, so one evaluation is the whole solve;
/// with the zero derivatives its micro-step formula reports, it is
/// `Δφ/f`. It stops
/// when the bracket or the Newton step `(target − φ)/f` is under
/// `tol = EDGE_REL_TOL·dt_max`, so the edge lies within
/// `tol·max(1, f/φ̇) + 2ε/φ̇` of the computed phase's crossing, φ̇ being
/// that phase's true slope and ε its evaluation noise. For the
/// kernel's exact phase φ̇ = f; for a trapezoid phase (the micro-step
/// formula, the gate-level engine) φ̇ = f + ¼·f̈·dt², which
/// equals f while the frequency is linear in time. ε is rounding
/// (cancellation in the closed form's `f0·dt + gdx·∫x`) and, on the
/// micro-step path, the matrix exponential's ~1e-13 relative
/// non-smoothness in dt: both sit at the tolerance's own scale, which is
/// why the tolerance is not tighter.
#[inline]
pub(crate) fn solve_crossing<S>(
    f_entry: f64,
    derivatives: [f64; 3],
    mut segment: impl FnMut(f64) -> (Segment<S>, f64),
    target: f64,
    dt_max: f64,
) -> Segment<S> {
    let tol = EDGE_REL_TOL * dt_max;
    // The bracket: `hi` is always the tightest candidate evaluated at or
    // past the target, or `dt_max`, which the caller guarantees is.
    let mut lo = 0.0f64;
    let mut hi = dt_max;
    // Initial guess: the series inverse of the phase's quartic Taylor
    // expansion at the segment entry, φ(t) = f·t·(1 + p·t + q·t² + r·t³)
    // with p = f′/2f, q = f″/6f, r = f‴/24f.
    let mut cand = if f_entry > 0.0 {
        let [d1, d2, d3] = derivatives;
        let (p, q, r) = (
            0.5 * d1 / f_entry,
            d2 / (6.0 * f_entry),
            d3 / (24.0 * f_entry),
        );
        let h = target / f_entry;
        let c3 = 2.0 * p * p - q;
        let c4 = 5.0 * p * q - 5.0 * p * p * p - r;
        (h * (1.0 + h * (-p + h * (c3 + h * c4)))).clamp(0.0, dt_max)
    } else {
        0.5 * dt_max
    };
    for _ in 0..64 {
        if cand <= lo || cand >= hi {
            cand = 0.5 * (lo + hi);
            if cand <= lo || cand >= hi {
                // Bracket collapsed to a ulp: `hi` is the crossing to
                // machine precision.
                break;
            }
        }
        // One evaluation per candidate gives both the phase residual and
        // the Newton slope (the frequency at its end).
        let (here, f) = segment(cand);
        if here.dphase < target {
            lo = cand;
        } else {
            hi = cand;
        }
        if f <= 0.0 {
            // No usable slope: bisect the bracket.
            cand = 0.5 * (lo + hi);
            continue;
        }
        let delta = (target - here.dphase) / f;
        // Converged: the Newton update or the bracket is below the
        // tolerance. The final candidate *is* the edge — committing it
        // directly (state and phase from the same evaluation) keeps edge
        // time, filter state and accumulated phase mutually exact.
        if delta.abs() <= tol || hi - lo <= tol {
            return here;
        }
        cand += delta;
    }
    // Not converged within the iteration budget: the bracket's upper end
    // (evaluations are deterministic, so this repeats `hi`'s bits).
    segment(hi).0
}

/// The segment evaluation [`solve_crossing`] asks of integrator `integ`
/// from state `x` under `drive`.
#[inline]
fn integrator_segment<'a, I: Integrator>(
    integ: &'a mut I,
    x: &'a I::State,
    drive: PfdOutput,
) -> impl FnMut(f64) -> (Segment<I::State>, f64) + 'a {
    move |dt| {
        let seg = integ.advance(x, drive, dt);
        let f = integ.frequency(&seg.end, drive);
        (seg, f)
    }
}

/// `integ`'s segment caps in seconds at step scale `scale`, indexed by
/// [`slot`]. `1.0 * x == x` exactly in IEEE-754, so scale 1.0 is bitwise
/// neutral as [`PllEngine::set_step_scale`] requires, and an infinite cap
/// stays infinite at every scale.
fn segment_caps<I: Integrator>(integ: &I, f_ref_hz: f64, scale: f64) -> [f64; 3] {
    [PfdOutput::Up, PfdOutput::Down, PfdOutput::Off]
        .map(|drive| scale * (integ.segment_cap_periods(drive) / f_ref_hz))
}

/// The pump output for a PFD state, as a pure function of the config.
pub(crate) fn drive_of(config: &PllConfig, pfd: PfdOutput) -> PumpOutput {
    match config.drive {
        DriveConfig::Voltage { vdd } => VoltageDriver::new(vdd).drive(pfd),
        DriveConfig::Charge { i_pump, mismatch } => {
            ChargePump::with_mismatch(i_pump, mismatch).drive(pfd)
        }
    }
}

/// Array slot for a per-PFD-state table.
#[inline]
pub(crate) fn slot(state: PfdOutput) -> usize {
    match state {
        PfdOutput::Up => 0,
        PfdOutput::Down => 1,
        PfdOutput::Off => 2,
    }
}

/// The filter state vector preset so the control voltage yields
/// `N·f_ref` (how every measurement starts: the paper's Table 2 assumes
/// "the PLL is initially locked").
pub(crate) fn lock_state(config: &PllConfig, filter: &dyn LoopFilter) -> Vec<f64> {
    let mut state = filter.initial_state();
    let v_lock = config.build_vco().control_for_frequency(config.f_vco_hz());
    filter.preset_output(&mut state, v_lock);
    state
}

struct Sampler {
    interval: f64,
    next_t: f64,
    samples: Vec<Sample>,
}

/// A [`LoopShell`]'s complete dynamic state, `S` being the integrator
/// state. A checkpoint is a copy of it ([`crate::behavioral::CpPllCheckpoint`]).
///
/// Everything static — the filter, VCO, drive stage, segment cap — is a
/// pure function of the [`PllConfig`] and is deliberately *not* stored:
/// [`PllEngine::restore`] requires an engine built from the same
/// configuration (restoring across configurations is a contract
/// violation). The PFD (including its glitch counter) and the work
/// counters ride along so checkpointed and from-scratch runs report
/// identical telemetry.
#[derive(Clone, Debug)]
pub struct LoopState<S> {
    /// The integrator state.
    x: S,
    t: f64,
    pfd: BehavioralPfd,
    stimulus: FmStimulus,
    vco_phase_cycles: f64,
    fb_edge_count: u64,
    next_fb_target: f64,
    next_ref_edge: f64,
    /// The unjittered time of the pending reference edge — the edge
    /// *sequence* advances on the ideal grid; jitter only moves each
    /// edge's emission time. A jittered edge kept across a stimulus
    /// switch after its ideal time holds the switch time instead: the
    /// edge after it is scheduled from there.
    next_ref_edge_ideal: f64,
    /// Offset making the reference phase continuous across stimulus
    /// switches: ref_phase(t) = stim_phase_base + stimulus.phase_cycles(t).
    stim_phase_base: f64,
    hold: bool,
    noise: Option<NoiseSource>,
    /// Work counters; the PFD glitch count is read from the PFD on
    /// demand.
    stats: WorkStats,
}

/// The behavioural CP-PLL simulator over integrator `I`: PFD, hold mux,
/// reference-edge scheduler, divider, noise, instrumentation and
/// checkpointing. Use it through [`crate::behavioral::CpPll`].
pub struct LoopShell<I: Integrator> {
    config: PllConfig,
    vco: Vco,
    integ: I,
    /// All dynamic state; a checkpoint is a clone of it.
    st: LoopState<I::State>,
    /// No committed segment under a drive exceeds its entry, indexed by
    /// [`slot`], even when no event bounds it (see
    /// [`Integrator::segment_cap_periods`]); in seconds, step scale
    /// included.
    segment_caps: [f64; 3],
    /// The stimulus evaluated at the pending reference edge's ideal time,
    /// left by the solve that found it: the next solve starts from it
    /// instead of re-evaluating. Derived state, a pure function of
    /// (stimulus, time), so it stays out of [`LoopState`] and is dropped
    /// whenever the stimulus or the state is replaced.
    ref_cursor: Option<PhasePoint>,
    collect_events: bool,
    events: Vec<LoopEvent>,
    sampler: Option<Sampler>,
}

impl<I: Integrator> LoopShell<I> {
    /// Builds the loop preset at its lock point: filter output at the
    /// control voltage that yields `N·f_ref`, phases aligned. This is how
    /// every measurement starts (the paper's Table 2 assumes "the PLL is
    /// initially locked").
    pub fn new_locked(config: &PllConfig) -> Self {
        let (integ, x) = I::locked(config);
        Self::assemble(config, integ, x)
    }

    /// The loop around an integrator starting in state `x`, with the
    /// reference at `f_ref` and phases aligned at `t = 0`.
    pub(crate) fn assemble(config: &PllConfig, integ: I, x: I::State) -> Self {
        let stimulus = FmStimulus::constant(config.f_ref_hz, 0.0);
        let next_ref_edge = stimulus.next_edge_after(0.0);
        let segment_caps = segment_caps(&integ, config.f_ref_hz, 1.0);
        Self {
            config: config.clone(),
            vco: config.build_vco(),
            integ,
            st: LoopState {
                x,
                t: 0.0,
                pfd: BehavioralPfd::with_dead_zone(config.pfd_dead_zone),
                stimulus,
                vco_phase_cycles: 0.0,
                fb_edge_count: 0,
                next_fb_target: config.divider_n as f64,
                next_ref_edge,
                next_ref_edge_ideal: next_ref_edge,
                stim_phase_base: 0.0,
                hold: false,
                noise: None,
                stats: WorkStats::default(),
            },
            segment_caps,
            ref_cursor: None,
            collect_events: false,
            events: Vec::new(),
            sampler: None,
        }
    }

    /// The configuration this loop was built from.
    pub fn config(&self) -> &PllConfig {
        &self.config
    }

    /// Current simulation time in seconds.
    pub fn time(&self) -> f64 {
        self.st.t
    }

    /// Current control voltage.
    pub fn control_voltage(&self) -> f64 {
        self.integ.output(&self.st.x, self.active_drive())
    }

    /// Current instantaneous VCO frequency in Hz.
    pub fn vco_frequency_hz(&self) -> f64 {
        self.vco.frequency_hz(self.control_voltage())
    }

    /// The held control voltage: the filter output with the drive
    /// high-impedance — the smooth capacitor state, free of the
    /// correction-pulse feed-through (what engaging hold would freeze).
    pub fn held_control_voltage(&self) -> f64 {
        self.integ.output(&self.st.x, PfdOutput::Off)
    }

    /// Accumulated VCO phase in cycles — the ideal-counter readout; the
    /// BIST layer quantises this to model real counters.
    pub fn vco_phase_cycles(&self) -> f64 {
        self.st.vco_phase_cycles
    }

    /// Advances the simulation by `window` seconds and returns the
    /// **boxcar-average** VCO frequency over that window (what a gated
    /// frequency counter reads — immune to the control-node pulse
    /// ripple that contaminates instantaneous readings).
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive and finite.
    pub fn average_frequency_hz(&mut self, window: f64) -> f64 {
        assert!(
            window > 0.0 && window.is_finite(),
            "window must be positive"
        );
        let p0 = self.st.vco_phase_cycles;
        let t0 = self.st.t;
        self.advance_to(t0 + window);
        (self.st.vco_phase_cycles - p0) / (self.st.t - t0)
    }

    /// Number of feedback (divided-VCO) edges so far.
    pub fn fb_edge_count(&self) -> u64 {
        self.st.fb_edge_count
    }

    /// Dead-zone glitches (correction pulses narrower than the PFD dead
    /// zone, hence ineffective) seen by this loop's PFD so far.
    pub fn pfd_glitch_count(&self) -> u64 {
        self.st.pfd.glitch_count()
    }

    /// Replaces the reference stimulus **phase-continuously**: the edge
    /// stream carries on without a phase step, so only the frequency-law
    /// change excites the loop (exactly what reprogramming the DCO mux of
    /// fig. 4 does in hardware).
    ///
    /// The pending reference edge has not fired (a fired edge is
    /// rescheduled at once), so its integer phase target, read back from
    /// its ideal time, carries over: an edge just past the switch is
    /// still emitted, even inside the scheduler's guard below the integer.
    /// A jittered edge whose ideal time is already past keeps its drawn
    /// emission time; the edge after it is scheduled from the switch,
    /// whose phase lies between the two edges' integers.
    pub fn set_stimulus(&mut self, stimulus: FmStimulus) {
        let current = self.reference_phase_cycles();
        let ideal = self.st.next_ref_edge_ideal;
        let pending = (ideal > self.st.t)
            .then(|| (self.st.stim_phase_base + self.st.stimulus.phase_cycles(ideal)).round());
        self.st.stimulus = stimulus;
        self.st.stim_phase_base = current - self.st.stimulus.phase_cycles(self.st.t);
        self.ref_cursor = None;
        match pending {
            Some(k) => self.schedule_next_ref_edge(self.st.t, Some(k)),
            None => self.st.next_ref_edge_ideal = self.st.t,
        }
    }

    /// Accumulated reference phase in cycles (continuous across stimulus
    /// switches).
    pub fn reference_phase_cycles(&self) -> f64 {
        self.st.stim_phase_base + self.st.stimulus.phase_cycles(self.st.t)
    }

    /// Advances the reference edge schedule: the edge *sequence* walks the
    /// ideal (noiseless) grid; source jitter displaces each edge's
    /// emission time by a clamped Gaussian so edges never duplicate,
    /// vanish or reorder.
    ///
    /// Each edge is the stimulus's exact phase inverse, started from the
    /// previous edge's evaluation when that edge is `ideal_after`
    /// bit for bit (the cursor); otherwise from a fresh evaluation, which
    /// gives the same bits. A `pending` edge target still ahead of the
    /// phase at `ideal_after` is kept, guard or not.
    fn schedule_next_ref_edge(&mut self, ideal_after: f64, pending: Option<f64>) {
        let here = match self.ref_cursor {
            Some(c) if c.t.to_bits() == ideal_after.to_bits() => c,
            _ => self.st.stimulus.eval(ideal_after),
        };
        let phase_now = self.st.stim_phase_base + here.phase;
        let mut target = phase_now.floor() + 1.0;
        // Guard: a phase that lands numerically on (or a hair below) an
        // integer must yield the *following* edge — otherwise the solver
        // returns `ideal_after` itself and the event loop cannot progress.
        // A 1e-9-cycle guard is ~1 ps at the paper's reference rate.
        if target - phase_now < 1e-9 {
            target += 1.0;
        }
        if let Some(k) = pending.filter(|&k| phase_now < k) {
            target = target.min(k);
        }
        let edge = self
            .st
            .stimulus
            .solve_phase(target - self.st.stim_phase_base, here);
        self.ref_cursor = Some(edge);
        let mut ideal = edge.t;
        if ideal <= ideal_after {
            // Degenerate rounding fallback: force forward progress by at
            // least one representable step even at large absolute times.
            let bump = (ideal_after.abs() * 4.0 * f64::EPSILON).max(1e-12);
            ideal = ideal_after + bump;
        }
        self.st.next_ref_edge_ideal = ideal;
        let mut emitted = ideal;
        if let Some(n) = &mut self.st.noise {
            // Clamp to ±45 % of the nominal period: consecutive clamped
            // extremes still leave emission times strictly increasing.
            let limit = 0.45 / self.config.f_ref_hz;
            let jittered = n.jitter_ref_edge(ideal);
            emitted = jittered.clamp(ideal - limit, ideal + limit);
        }
        self.st.next_ref_edge = emitted.max(self.st.t + f64::MIN_POSITIVE);
    }

    /// The current stimulus.
    pub fn stimulus(&self) -> &FmStimulus {
        &self.st.stimulus
    }

    /// Injects white Gaussian edge jitter (see [`crate::noise`]); `None`
    /// restores the noiseless ideal. Takes effect from the next edge.
    ///
    /// Reference jitter is applied at edge **generation** — it shakes the
    /// loop itself (source jitter). Feedback jitter is applied at the
    /// **observation** point (divider/sampling noise seen by the PFD's
    /// timing and the BIST counters).
    pub fn set_noise(&mut self, config: Option<NoiseConfig>) {
        self.st.noise = config.map(NoiseSource::new);
    }

    /// Engages or releases the hold mechanism (paper §4, Table 2 stage 3):
    /// the loop PFD's inputs are muxed to one identical signal, so it emits
    /// nothing and the filter holds the control voltage — exactly, unless a
    /// leakage fault is present.
    pub fn set_hold(&mut self, hold: bool) {
        if hold && !self.st.hold {
            self.st.pfd.reset();
            self.st.stats.hold_engagements += 1;
        }
        self.st.hold = hold;
    }

    /// `true` while the hold mechanism is engaged.
    pub fn is_held(&self) -> bool {
        self.st.hold
    }

    /// Starts collecting [`LoopEvent`]s (reference/feedback edges).
    pub fn collect_events(&mut self, on: bool) {
        self.collect_events = on;
    }

    /// Drains collected events.
    pub fn take_events(&mut self) -> Vec<LoopEvent> {
        std::mem::take(&mut self.events)
    }

    /// Starts sampling the analogue state every `interval` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is not positive and finite.
    pub fn enable_sampling(&mut self, interval: f64) {
        assert!(
            interval > 0.0 && interval.is_finite(),
            "sampling interval must be positive"
        );
        self.sampler = Some(Sampler {
            interval,
            next_t: self.st.t,
            samples: Vec::new(),
        });
    }

    /// Drains collected samples.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        self.sampler
            .as_mut()
            .map(|s| std::mem::take(&mut s.samples))
            .unwrap_or_default()
    }

    /// The PFD drive active *now*: hold and an unexpired dead zone both
    /// present the Off drive.
    ///
    /// The dead zone expires at `armed + dead_zone`, the very bits the
    /// event loop bounds a segment at: a segment that ends there turns
    /// the drive on. (`t − armed < dead_zone` can still hold there by
    /// rounding, which left the pulse undriven until the next edge.)
    fn active_drive(&self) -> PfdOutput {
        if self.st.hold {
            return PfdOutput::Off;
        }
        let state = self.st.pfd.output();
        if state != PfdOutput::Off && self.st.pfd.dead_zone() > 0.0 {
            if let Some(armed) = self.st.pfd.armed_since() {
                if self.st.t < armed + self.st.pfd.dead_zone() {
                    return PfdOutput::Off;
                }
            }
        }
        state
    }

    /// Commits one evaluated segment under `drive`, then takes a sample
    /// if one is due.
    fn commit(&mut self, drive: PfdOutput, seg: Segment<I::State>) {
        self.st.x = seg.end;
        self.st.vco_phase_cycles += seg.dphase;
        self.st.t += seg.dt;
        self.st.stats.steps += 1;
        if let Some(sampler) = &mut self.sampler {
            if self.st.t >= sampler.next_t {
                let v = self.integ.output(&self.st.x, drive);
                sampler.samples.push(Sample {
                    t: self.st.t,
                    v_ctrl: v,
                    f_vco_hz: self.vco.frequency_hz(v),
                    phase_cycles: self.st.vco_phase_cycles,
                    v_held: self.integ.output(&self.st.x, PfdOutput::Off),
                });
                while sampler.next_t <= self.st.t {
                    sampler.next_t += sampler.interval;
                }
            }
        }
    }

    /// Commits the segment of length `dt` under `drive` unless a feedback
    /// edge falls inside it; `false`, with nothing committed, if one does.
    ///
    /// The integrator's [`phase_floor`](Integrator::phase_floor) proves
    /// most crossings without evaluating the trial segment. The floor is
    /// at most the computed advance and rounding is monotone, so a trial
    /// is only skipped when its own comparison would have rejected it.
    fn try_segment(&mut self, drive: PfdOutput, dt: f64) -> bool {
        let floor = self.integ.phase_floor(&self.st.x, drive, dt);
        if self.st.vco_phase_cycles + floor >= self.st.next_fb_target {
            return false;
        }
        let seg = self.integ.advance(&self.st.x, drive, dt);
        if self.st.vco_phase_cycles + seg.dphase >= self.st.next_fb_target {
            return false;
        }
        self.commit(drive, seg);
        true
    }

    /// Advances the simulation to absolute time `t_end`.
    ///
    /// # Panics
    ///
    /// Panics if `t_end` is in the past or not finite.
    pub fn advance_to(&mut self, t_end: f64) {
        assert!(
            t_end.is_finite() && t_end >= self.st.t,
            "t_end must be ahead of the current time"
        );
        // Guard: bound iterations to catch pathological configs in tests.
        let max_iters = ((t_end - self.st.t) * (self.config.f_vco_hz() * 8.0 + 1e4)) as u64 + 1000;
        let mut iters = 0u64;
        while self.st.t < t_end {
            iters += 1;
            assert!(
                iters <= max_iters,
                "simulation failed to progress (t = {}, next_ref_edge = {}, \
                 next_fb_target = {}, vco_phase = {}, hold = {}, pfd = {:?})",
                self.st.t,
                self.st.next_ref_edge,
                self.st.next_fb_target,
                self.st.vco_phase_cycles,
                self.st.hold,
                self.st.pfd.output()
            );
            // Segment boundary candidates.
            let mut tb = t_end;
            if let Some(s) = &self.sampler {
                if s.next_t > self.st.t {
                    tb = tb.min(s.next_t);
                }
            }
            let mut is_ref_edge = false;
            if self.st.next_ref_edge <= tb {
                tb = self.st.next_ref_edge;
                is_ref_edge = true;
            }
            if !self.st.hold && self.st.pfd.dead_zone() > 0.0 {
                if let Some(armed) = self.st.pfd.armed_since() {
                    let expiry = armed + self.st.pfd.dead_zone();
                    if expiry > self.st.t && expiry < tb {
                        tb = expiry;
                        is_ref_edge = false;
                    }
                }
            }
            // The drive is constant over the segment: every instant it
            // could change (an edge, the dead-zone expiry) bounds it. Its
            // cap, infinite where the drive holds the filter still, is
            // the last candidate, so the others do not wait on the drive;
            // a tie keeps the event.
            let drive = self.active_drive();
            let capped = self.st.t + self.segment_caps[slot(drive)];
            if capped < tb {
                tb = capped;
                is_ref_edge = false;
            }
            let dt_seg = tb - self.st.t;
            if dt_seg <= 0.0 {
                // Boundary coincides with `t` (e.g. edge exactly at the
                // horizon): process the edge without advancing time.
                if is_ref_edge {
                    self.process_ref_edge();
                }
                continue;
            }
            if !self.try_segment(drive, dt_seg) {
                // A feedback edge falls inside the segment: the segment
                // is rejected and re-taken at the shortened length.
                self.st.stats.step_rejections += 1;
                let target = self.st.next_fb_target - self.st.vco_phase_cycles;
                let (integ, x) = (&mut self.integ, &self.st.x);
                let edge = solve_crossing(
                    integ.frequency(x, drive),
                    integ.frequency_derivatives(x, drive),
                    integrator_segment(integ, x, drive),
                    target,
                    dt_seg,
                );
                self.commit(drive, edge);
                self.process_fb_edge();
                continue;
            }
            if is_ref_edge {
                self.process_ref_edge();
            }
        }
    }

    fn process_ref_edge(&mut self) {
        // The generation-level jitter is already in `next_ref_edge`.
        let t = self.st.next_ref_edge;
        self.st.stats.ref_edges += 1;
        if self.collect_events {
            self.events.push(LoopEvent::RefEdge { t });
        }
        if !self.st.hold {
            self.st.pfd.on_reference_edge(t);
        }
        let ideal = self.st.next_ref_edge_ideal;
        self.schedule_next_ref_edge(ideal, None);
    }

    fn process_fb_edge(&mut self) {
        let t = self.st.t;
        let t_obs = match &mut self.st.noise {
            Some(n) => n.jitter_fb_edge(t),
            None => t,
        };
        self.st.fb_edge_count += 1;
        self.st.stats.fb_edges += 1;
        self.st.next_fb_target += self.config.divider_n as f64;
        if self.collect_events {
            self.events.push(LoopEvent::FbEdge { t: t_obs });
        }
        if !self.st.hold {
            self.st.pfd.on_feedback_edge(t_obs);
        }
    }
}

impl<I: Integrator> PllEngine for LoopShell<I> {
    type Checkpoint = LoopState<I::State>;

    fn new_locked(config: &PllConfig) -> Self {
        LoopShell::new_locked(config)
    }

    fn config(&self) -> &PllConfig {
        self.config()
    }

    fn time(&self) -> f64 {
        self.time()
    }

    fn advance_to(&mut self, t_end: f64) {
        LoopShell::advance_to(self, t_end);
    }

    fn control_voltage(&self) -> f64 {
        LoopShell::control_voltage(self)
    }

    fn vco_frequency_hz(&self) -> f64 {
        LoopShell::vco_frequency_hz(self)
    }

    fn vco_phase_cycles(&self) -> f64 {
        LoopShell::vco_phase_cycles(self)
    }

    fn set_stimulus(&mut self, stimulus: FmStimulus) {
        LoopShell::set_stimulus(self, stimulus);
    }

    fn set_hold(&mut self, hold: bool) {
        LoopShell::set_hold(self, hold);
    }

    fn is_held(&self) -> bool {
        LoopShell::is_held(self)
    }

    fn collect_events(&mut self, on: bool) {
        LoopShell::collect_events(self, on);
    }

    fn take_events(&mut self) -> Vec<LoopEvent> {
        LoopShell::take_events(self)
    }

    fn checkpoint(&self) -> Self::Checkpoint {
        self.st.clone()
    }

    /// Overwrites the dynamic state with a snapshot taken from a loop
    /// built from the **same configuration** — bit-exact: the restored
    /// loop continues precisely as the snapshotted one would have (every
    /// filter/VCO/PFD coefficient is derived from the config, so only the
    /// dynamic state needs restoring). Instrumentation (sampler, event
    /// collection) is reset to off/empty.
    fn restore(&mut self, snapshot: &Self::Checkpoint) {
        self.st.clone_from(snapshot);
        self.ref_cursor = None;
        self.collect_events = false;
        self.events = Vec::new();
        self.sampler = None;
    }

    fn set_step_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "step scale must be positive and finite"
        );
        self.segment_caps = segment_caps(&self.integ, self.config.f_ref_hz, scale);
    }

    fn backend_name() -> &'static str {
        BACKEND
    }

    fn digest_tag() -> &'static str {
        DIGEST_TAG
    }

    fn encode_checkpoint(snapshot: &Self::Checkpoint) -> Option<String> {
        if snapshot.noise.is_some() {
            // The jitter source carries private RNG state; declining
            // keeps the sidecar honest — noisy campaigns re-settle.
            return None;
        }
        let s = &snapshot.stats;
        Some(format!(
            "{}{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{},{},{},{},{}",
            TOKEN_PREFIX,
            bits_hex(snapshot.t),
            I::encode_state(&snapshot.x),
            snapshot.pfd.state_code(),
            snapshot.stimulus.encode_state(),
            bits_hex(snapshot.vco_phase_cycles),
            snapshot.fb_edge_count,
            bits_hex(snapshot.next_fb_target),
            bits_hex(snapshot.next_ref_edge),
            bits_hex(snapshot.next_ref_edge_ideal),
            bits_hex(snapshot.stim_phase_base),
            u8::from(snapshot.hold),
            s.steps,
            s.step_rejections,
            s.ref_edges,
            s.fb_edges,
            s.hold_engagements,
        ))
    }

    fn decode_checkpoint(token: &str) -> Option<Self::Checkpoint> {
        let rest = token.strip_prefix(TOKEN_PREFIX)?;
        let parts: Vec<&str> = rest.split('|').collect();
        if parts.len() != 12 {
            return None;
        }
        let stats: Vec<u64> = parts[11]
            .split(',')
            .map(|s| s.parse().ok())
            .collect::<Option<_>>()?;
        if stats.len() != 5 {
            return None;
        }
        Some(LoopState {
            x: I::decode_state(parts[1])?,
            t: f64_from_bits_hex(parts[0])?,
            pfd: BehavioralPfd::from_state_code(parts[2])?,
            stimulus: FmStimulus::decode_state(parts[3])?,
            vco_phase_cycles: f64_from_bits_hex(parts[4])?,
            fb_edge_count: parts[5].parse().ok()?,
            next_fb_target: f64_from_bits_hex(parts[6])?,
            next_ref_edge: f64_from_bits_hex(parts[7])?,
            next_ref_edge_ideal: f64_from_bits_hex(parts[8])?,
            stim_phase_base: f64_from_bits_hex(parts[9])?,
            hold: match parts[10] {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            noise: None,
            stats: WorkStats {
                steps: stats[0],
                step_rejections: stats[1],
                ref_edges: stats[2],
                fb_edges: stats[3],
                hold_engagements: stats[4],
                ..WorkStats::default()
            },
        })
    }

    fn work_stats(&self) -> WorkStats {
        WorkStats {
            pfd_glitches: self.st.pfd.glitch_count(),
            ..self.st.stats
        }
    }
}

impl<I: Integrator> AnalogAccess for LoopShell<I> {
    fn enable_sampling(&mut self, interval: f64) {
        LoopShell::enable_sampling(self, interval);
    }

    fn take_samples(&mut self) -> Vec<Sample> {
        LoopShell::take_samples(self)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Switches `pll` from ten-step FSK to sine FM one ulp before its
    /// pending reference edge at `edge`: the edge's phase then sits
    /// inside the scheduler's guard below its integer, and it must still
    /// be emitted, once, within a picosecond of `edge` (the gate-level
    /// kernel's time resolution).
    pub(crate) fn assert_switch_keeps_pending_edge<E: PllEngine>(pll: &mut E, edge: f64) {
        pll.advance_to(edge.next_down());
        let before = pll.work_stats().ref_edges;
        pll.collect_events(true);
        pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
        pll.advance_to(edge + 0.5e-3);
        let first = pll
            .take_events()
            .into_iter()
            .find(|e| matches!(e, LoopEvent::RefEdge { .. }))
            .expect("a reference edge within half a period");
        assert!(
            (first.time() - edge).abs() <= 1e-12,
            "pending edge at {edge}, first emitted at {}",
            first.time()
        );
        assert_eq!(pll.work_stats().ref_edges, before + 1);
    }

    /// A stock config with a negligible tuning-curve curvature, which
    /// takes every drive off the kernel onto micro-steps.
    pub(crate) fn micro_step_path(mut cfg: PllConfig) -> PllConfig {
        cfg.vco_curvature = (1e-9, 0.0);
        cfg
    }

    /// One `#[test]` per shared behaviour per integration formula:
    /// `$path` maps each stock config onto the formula under test.
    macro_rules! engine_suite {
        ($formula:ident, $path:expr) => {
            mod $formula {
                use super::*;

                type Engine = crate::behavioral::CpPll;

                fn on_path(cfg: PllConfig) -> PllConfig {
                    $path(cfg)
                }

                #[test]
                fn locked_loop_stays_locked() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.advance_to(0.5);
                    let f = pll.average_frequency_hz(0.1);
                    assert!((f - 5_000.0).abs() < 2.0, "f = {f}");
                    // Feedback edges at the reference rate.
                    let edges_per_sec = pll.fb_edge_count() as f64 / 0.6;
                    assert!((edges_per_sec - 1_000.0).abs() < 5.0);
                }

                #[test]
                fn frequency_step_settles_to_n_times_reference() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.set_stimulus(FmStimulus::constant(1_000.0, 8.0));
                    pll.advance_to(1.5);
                    // N = 5 → output deviation 40 Hz.
                    let f = pll.average_frequency_hz(0.1);
                    assert!((f - 5_040.0).abs() < 1.0, "f = {f}");
                }

                #[test]
                fn charge_pump_loop_locks_too() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::integer_n_charge_pump()));
                    pll.advance_to(0.2);
                    let f = pll.average_frequency_hz(0.02);
                    assert!((f - 80_000.0).abs() < 100.0, "f = {f}");
                }

                #[test]
                fn hold_freezes_the_vco() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.set_stimulus(FmStimulus::constant(1_000.0, 6.0));
                    pll.advance_to(0.9);
                    let f_before = pll.average_frequency_hz(0.1); // ends at t = 1.0
                    pll.set_hold(true);
                    let f_at_hold = pll.vco_frequency_hz();
                    assert!(
                        (f_at_hold - f_before).abs() < 2.0,
                        "{f_before} vs {f_at_hold}"
                    );
                    // Change the reference — held loop must not react.
                    pll.set_stimulus(FmStimulus::constant(1_000.0, -6.0));
                    pll.advance_to(3.0);
                    let f_after = pll.vco_frequency_hz();
                    assert!(
                        (f_after - f_at_hold).abs() < 1e-6,
                        "held: {f_at_hold} → {f_after}"
                    );
                    // Release: the loop re-acquires the new reference.
                    pll.set_hold(false);
                    pll.advance_to(4.5);
                    let f = pll.average_frequency_hz(0.1);
                    assert!((f - 5.0 * 994.0).abs() < 2.0, "f = {f}");
                }

                #[test]
                fn hold_droops_with_leakage_fault() {
                    use pllbist_analog::fault::Fault;
                    let cfg = on_path(PllConfig::paper_table3())
                        .with_fault(Fault::FilterLeakage(5e6))
                        .unwrap();
                    let mut pll = Engine::new_locked(&cfg);
                    pll.advance_to(1.0);
                    let f0 = pll.vco_frequency_hz();
                    pll.set_hold(true);
                    pll.advance_to(1.5); // τ_leak ≈ (R2+Rl)·C ≈ 0.25 s
                    let f1 = pll.vco_frequency_hz();
                    assert!(f0 - f1 > 100.0, "droop {} Hz", f0 - f1);
                }

                #[test]
                fn events_are_ordered_and_interleaved() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.collect_events(true);
                    pll.advance_to(0.05);
                    let events = pll.take_events();
                    assert!(events.len() > 80, "{} events", events.len());
                    for w in events.windows(2) {
                        assert!(w[0].time() <= w[1].time());
                    }
                    let refs = events
                        .iter()
                        .filter(|e| matches!(e, LoopEvent::RefEdge { .. }))
                        .count();
                    let fbs = events.len() - refs;
                    assert!(
                        (refs as i64 - fbs as i64).abs() <= 5,
                        "refs {refs} fbs {fbs}"
                    );
                }

                #[test]
                fn sine_fm_modulates_the_output() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    // Well inside the 8 Hz loop bandwidth: output tracks
                    // the input.
                    pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 1.0));
                    pll.advance_to(3.0);
                    pll.enable_sampling(5e-3);
                    pll.advance_to(5.0);
                    let samples = pll.take_samples();
                    let boxcar: Vec<f64> = samples
                        .windows(2)
                        .map(|w| (w[1].phase_cycles - w[0].phase_cycles) / (w[1].t - w[0].t))
                        .collect();
                    let max = boxcar.iter().copied().fold(f64::MIN, f64::max);
                    let min = boxcar.iter().copied().fold(f64::MAX, f64::min);
                    // Tracks ±50 Hz at the output (N·10 Hz), within a few
                    // percent.
                    assert!((max - 5_050.0).abs() < 6.0, "max {max}");
                    assert!((min - 4_950.0).abs() < 6.0, "min {min}");
                }

                #[test]
                fn dead_zone_slows_small_corrections() {
                    // With a gross dead zone, a small phase error persists.
                    let mut cfg = on_path(PllConfig::paper_table3());
                    cfg.pfd_dead_zone = 40e-6; // 4 % of the reference period
                    let mut pll = Engine::new_locked(&cfg);
                    pll.advance_to(0.5);
                    // Still roughly locked (the dead zone tolerates small
                    // errors).
                    assert!((pll.vco_frequency_hz() - 5_000.0).abs() < 30.0);
                }

                #[test]
                fn sampler_interval_respected() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.enable_sampling(10e-3);
                    pll.advance_to(0.5);
                    let s = pll.take_samples();
                    assert!((48..=52).contains(&s.len()), "{} samples", s.len());
                    assert!(pll.take_samples().is_empty(), "drained");
                }

                #[test]
                fn solver_stats_count_work_and_diff_cleanly() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    assert_eq!(pll.work_stats(), WorkStats::default());
                    pll.advance_to(0.1);
                    let mid = pll.work_stats();
                    assert!(mid.steps > 0, "{mid:?}");
                    // A locked loop at f_ref = 1 kHz sees ~100 edges of
                    // each kind in 0.1 s, and every feedback edge is a
                    // shortened (rejected) trial segment.
                    assert!((90..=110).contains(&mid.ref_edges), "{mid:?}");
                    assert!((90..=110).contains(&mid.fb_edges), "{mid:?}");
                    assert_eq!(mid.step_rejections, mid.fb_edges, "{mid:?}");
                    assert_eq!(mid.hold_engagements, 0);
                    pll.set_hold(true);
                    pll.set_hold(true); // idempotent: still one engagement
                    pll.advance_to(0.2);
                    let end = pll.work_stats();
                    let delta = end.since(&mid);
                    assert_eq!(delta.hold_engagements, 1);
                    assert_eq!(delta.fb_edges, end.fb_edges - mid.fb_edges);
                    let mut acc = mid;
                    acc.absorb(&delta);
                    assert_eq!(acc, end);
                }

                #[test]
                fn checkpoint_restore_resumes_bit_exactly() {
                    let cfg = on_path(PllConfig::paper_table3());
                    let mut a = Engine::new_locked(&cfg);
                    a.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
                    a.set_noise(Some(NoiseConfig::symmetric(2e-7, 42)));
                    a.advance_to(0.7);
                    let snap = a.checkpoint();
                    let mut b = Engine::new_locked(&cfg);
                    b.restore(&snap);
                    a.advance_to(1.3);
                    b.advance_to(1.3);
                    assert_eq!(
                        a.vco_phase_cycles().to_bits(),
                        b.vco_phase_cycles().to_bits()
                    );
                    assert_eq!(a.control_voltage().to_bits(), b.control_voltage().to_bits());
                    assert_eq!(a.work_stats(), b.work_stats());
                    assert_eq!(a.fb_edge_count(), b.fb_edge_count());
                    assert_eq!(a.pfd_glitch_count(), b.pfd_glitch_count());
                }

                #[test]
                fn restored_schedule_matches_the_carried_cursor() {
                    // The reference-edge cursor is not checkpointed: a
                    // restored loop re-evaluates the stimulus at the
                    // pending edge, which must give the bits the
                    // uninterrupted loop's carried cursor gives.
                    let cfg = on_path(PllConfig::paper_table3());
                    for stimulus in [
                        FmStimulus::pure_sine(1_000.0, 10.0, 8.0),
                        FmStimulus::phase_modulated(1_000.0, 0.2, 8.0),
                        FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10),
                    ] {
                        let mut a = Engine::new_locked(&cfg);
                        a.advance_to(0.1);
                        a.set_stimulus(stimulus);
                        a.advance_to(0.3037);
                        let token = Engine::encode_checkpoint(&a.checkpoint())
                            .expect("noiseless state encodes");
                        let mut b = Engine::new_locked(&cfg);
                        b.restore(&Engine::decode_checkpoint(&token).expect("token decodes"));
                        a.collect_events(true);
                        b.collect_events(true);
                        a.advance_to(0.9);
                        b.advance_to(0.9);
                        assert_eq!(a.take_events(), b.take_events());
                        assert_eq!(
                            Engine::encode_checkpoint(&a.checkpoint()),
                            Engine::encode_checkpoint(&b.checkpoint())
                        );
                    }
                }

                #[test]
                fn stimulus_switch_keeps_a_pending_edge() {
                    let cfg = on_path(PllConfig::paper_table3());
                    let mut pll = Engine::new_locked(&cfg);
                    pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10));
                    pll.advance_to(0.0503);
                    let edge = pll.st.next_ref_edge;
                    assert_switch_keeps_pending_edge(&mut pll, edge);
                }

                #[test]
                fn stimulus_switch_keeps_a_jittered_pending_edge() {
                    // A jittered edge can be emitted after its ideal time;
                    // the switch falls between the two.
                    let cfg = on_path(PllConfig::paper_table3());
                    let mut pll = Engine::new_locked(&cfg);
                    pll.set_noise(Some(NoiseConfig {
                        ref_edge_jitter_rms: 1e-4,
                        fb_edge_jitter_rms: 0.0,
                        seed: 0,
                    }));
                    pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10));
                    pll.advance_to(0.0503);
                    while pll.st.next_ref_edge.next_down() <= pll.st.next_ref_edge_ideal {
                        let edge = pll.st.next_ref_edge;
                        pll.advance_to(edge);
                    }
                    let edge = pll.st.next_ref_edge;
                    assert_switch_keeps_pending_edge(&mut pll, edge);
                }

                #[test]
                #[should_panic(expected = "ahead of the current time")]
                fn cannot_run_backwards() {
                    let mut pll = Engine::new_locked(&on_path(PllConfig::paper_table3()));
                    pll.advance_to(0.1);
                    pll.advance_to(0.05);
                }
            }
        };
    }

    // The micro-step formula `CpPll` always had, and the closed-form
    // kernel of the event engine it absorbed.
    engine_suite!(cp_pll, micro_step_path);
    engine_suite!(event_driven, std::convert::identity);

    mod work_per_edge {
        use super::*;
        use crate::behavioral::MicroStep;

        /// An integrator that counts the segment evaluations the shell
        /// asks of `I`, and otherwise is `I`.
        struct Counting<I> {
            inner: I,
            advances: u64,
        }

        impl<I: Integrator> Integrator for Counting<I> {
            type State = I::State;

            fn locked(config: &PllConfig) -> (Self, I::State) {
                let (inner, x) = I::locked(config);
                (Self { inner, advances: 0 }, x)
            }

            fn segment_cap_periods(&self, drive: PfdOutput) -> f64 {
                self.inner.segment_cap_periods(drive)
            }

            fn output(&self, x: &I::State, drive: PfdOutput) -> f64 {
                self.inner.output(x, drive)
            }

            fn frequency(&self, x: &I::State, drive: PfdOutput) -> f64 {
                self.inner.frequency(x, drive)
            }

            fn advance(&mut self, x: &I::State, drive: PfdOutput, dt: f64) -> Segment<I::State> {
                self.advances += 1;
                self.inner.advance(x, drive, dt)
            }

            fn frequency_derivatives(&self, x: &I::State, drive: PfdOutput) -> [f64; 3] {
                self.inner.frequency_derivatives(x, drive)
            }

            fn phase_floor(&self, x: &I::State, drive: PfdOutput, dt: f64) -> f64 {
                self.inner.phase_floor(x, drive, dt)
            }

            fn encode_state(x: &I::State) -> String {
                I::encode_state(x)
            }

            fn decode_state(field: &str) -> Option<I::State> {
                I::decode_state(field)
            }
        }

        /// Segment evaluations per reference edge of a locked
        /// `paper_table3` loop under the paper's ten-step FSK at `f_mod`.
        fn evaluations_per_edge(f_mod: f64) -> f64 {
            let mut pll = LoopShell::<Counting<MicroStep>>::new_locked(&PllConfig::paper_table3());
            pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, f_mod, 10));
            pll.advance_to(0.5);
            let (advances, before) = (pll.integ.advances, pll.work_stats());
            pll.advance_to(2.0);
            let edges = pll.work_stats().since(&before).ref_edges;
            (pll.integ.advances - advances) as f64 / edges as f64
        }

        #[test]
        fn event_engine_evaluates_about_two_segments_per_reference_edge() {
            // On the closed-form kernel, the event engine's formula. Per
            // reference period: one edge solve, whose quartic seed
            // lands within tolerance at the first evaluation, and one
            // segment to the reference edge. The phase floor skips the
            // full-period trial that used to precede each solve (3.5–4.0
            // evaluations per edge, the most near the loop's natural
            // frequency, where the PFD pulses are longest).
            for f_mod in [0.5, 2.0, 8.0, 30.0, 60.0] {
                let per_edge = evaluations_per_edge(f_mod);
                assert!(
                    per_edge <= 2.2,
                    "f_mod {f_mod} Hz: {per_edge} segment evaluations per reference edge"
                );
            }
        }
    }

    mod edge_solver {
        use super::*;
        use crate::behavioral::{FilterState, MicroStep};
        use crate::config::{DriveConfig, FilterConfig};
        use crate::cosim::{pump_table, MixedSignalPll};
        use crate::engine::ClosedFormPll;
        use pllbist_testkit::prop::CaseResult;
        use pllbist_testkit::{prop_assert, prop_assume, prop_check};

        /// The reference edge: the 60-halving bisection `CpPll` used
        /// before the shared Newton solver, exact to ~1e-18·dt_max on a
        /// phase that rises through the target once.
        fn bisect_crossing<S>(
            mut segment: impl FnMut(f64) -> (Segment<S>, f64),
            target: f64,
            dt_max: f64,
        ) -> Segment<S> {
            let mut lo = 0.0f64;
            let mut hi = dt_max;
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if mid == lo || mid == hi {
                    break;
                }
                if segment(mid).0.dphase < target {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            segment(hi).0
        }

        /// Crossings solved and the segment evaluations they took.
        #[derive(Default)]
        struct Tally {
            solves: u64,
            evaluations: u64,
        }

        impl Tally {
            fn mean(&self) -> f64 {
                self.evaluations as f64 / self.solves as f64
            }
        }

        /// Newton's edge on the phase `segment` evaluates (entering at
        /// `f_entry` with frequency `derivatives`), `fraction` of the way
        /// up the segment's phase advance, must land within the bound
        /// `solve_crossing` states of the reference edge:
        /// `EDGE_REL_TOL·dt_max·max(1, f/φ̇)` plus twice the phase
        /// evaluation's noise over φ̇. Here f is the frequency at Newton's
        /// edge, φ̇ the phase's slope there as a difference quotient over
        /// ±1e-6·dt_max, and the noise how far the computed phase strays
        /// from that tangent within ±2 tolerances of the edge (curvature
        /// is negligible at that scale, so what remains is rounding and
        /// the discretisation's non-smoothness in dt). The 2 % margin
        /// covers the slope estimate and the reference's own error.
        /// Newton's evaluations go into `tally`.
        fn newton_matches_bisection<S: std::fmt::Debug>(
            f_entry: f64,
            derivatives: [f64; 3],
            mut segment: impl FnMut(f64) -> (Segment<S>, f64),
            dt_max: f64,
            fraction: f64,
            tally: &mut Tally,
        ) -> CaseResult {
            let full = segment(dt_max).0.dphase;
            prop_assume!(full > 0.0);
            let target = fraction * full;
            let mut evaluations = 0;
            let counted = |dt| {
                evaluations += 1;
                segment(dt)
            };
            let newton = solve_crossing(f_entry, derivatives, counted, target, dt_max);
            tally.solves += 1;
            tally.evaluations += evaluations;
            let reference = bisect_crossing(&mut segment, target, dt_max);
            let mut phase = |t: f64| if t > 0.0 { segment(t).0.dphase } else { 0.0 };
            let c = newton.dt;
            let h = 1e-6 * dt_max;
            let (t0, t1) = ((c - h).max(0.0), c + h);
            let slope = (phase(t1) - phase(t0)) / (t1 - t0);
            let step = 0.5 * EDGE_REL_TOL * dt_max;
            let noise = (-4..=4)
                .map(|k| c + f64::from(k) * step)
                .filter(|&t| t > 0.0)
                .map(|t| (phase(t) - newton.dphase - (t - c) * slope).abs())
                .fold(0.0, f64::max);
            let f = segment(c).1;
            let bound = 1.02 * EDGE_REL_TOL * dt_max * (f / slope).max(1.0) + 2.0 * noise / slope;
            prop_assert!(
                (c - reference.dt).abs() <= bound,
                "from {f_entry} Hz, {derivatives:?}: newton {c} vs bisection {} \
                 (dt_max {dt_max}, target {target}, f/slope {}, noise {noise:e} cycles)",
                reference.dt,
                f / slope
            );
            Ok(())
        }

        /// [`newton_matches_bisection`] on integrator `integ` from state
        /// `x` under `drive`, as the shell solves its feedback edges.
        fn integrator_matches_bisection<I: Integrator>(
            integ: &mut I,
            x: &I::State,
            drive: PfdOutput,
            dt_max: f64,
            fraction: f64,
        ) -> CaseResult {
            newton_matches_bisection(
                integ.frequency(x, drive),
                integ.frequency_derivatives(x, drive),
                integrator_segment(integ, x, drive),
                dt_max,
                fraction,
                &mut Tally::default(),
            )
        }

        /// A target fraction of the segment's phase advance: half
        /// mid-segment and half at the segment start, as in lock.
        fn any_fraction(g: &mut pllbist_testkit::prop::Gen) -> f64 {
            if g.bool() {
                g.f64_range(0.0, 1.0)
            } else {
                g.f64_range(0.0, 1e-9)
            }
        }

        /// `MicroStep` edges from filter states scattered `±df_hz` of VCO
        /// frequency around the `bases`, under a random drive and segment
        /// length; half the targets fall mid-segment and half at the
        /// segment start, as in lock.
        fn micro_step_edges(cfg: &PllConfig, bases: &[Vec<f64>], df_hz: f64) {
            let (mut integ, _) = MicroStep::locked(cfg);
            let dv = df_hz / cfg.build_vco().gain_hz_per_volt();
            // The micro-step under a pump-on drive, for every drive.
            let cap = integ.segment_cap_periods(PfdOutput::Up) / cfg.f_ref_hz;
            prop_check!(cases: 256, |g| {
                let base = &bases[g.usize_range(0, bases.len())];
                let x: Vec<f64> = base.iter().map(|v| v + g.f64_range(-dv, dv)).collect();
                let x = crate::behavioral::FilterState::from_slice(&x).expect("stock filter");
                let drive = g.pick(&[PfdOutput::Up, PfdOutput::Down, PfdOutput::Off]);
                let dt_max = cap * g.f64_range(1e-3, 1.0);
                let fraction = any_fraction(g);
                integrator_matches_bisection(&mut integ, &x, drive, dt_max, fraction)
            });
        }

        /// Edges around the lock state of `cfg`.
        fn edges_near_lock(cfg: &PllConfig, df_hz: f64) {
            let lock = lock_state(cfg, cfg.build_filter().as_ref());
            micro_step_edges(cfg, &[lock], df_hz);
        }

        fn curved_vco() -> PllConfig {
            let mut cfg = PllConfig::paper_table3();
            cfg.vco_curvature = (400.0, -150.0);
            cfg
        }

        fn ripple_capacitor() -> PllConfig {
            let mut cfg = PllConfig::integer_n_charge_pump();
            if let FilterConfig::SeriesRc { ref mut c2, .. } = cfg.filter {
                *c2 = Some(3.3e-9);
            }
            cfg
        }

        #[test]
        fn newton_edges_match_bisection_with_a_curved_vco() {
            edges_near_lock(&curved_vco(), 300.0);
        }

        #[test]
        fn newton_edges_match_bisection_with_a_ripple_capacitor() {
            let cfg = ripple_capacitor();
            assert_eq!(lock_state(&cfg, cfg.build_filter().as_ref()).len(), 2);
            edges_near_lock(&cfg, 2_000.0);
        }

        #[test]
        fn newton_edges_match_bisection_during_cold_start() {
            // States along a cold-start pull-in (`CpPll::new`, every
            // capacitor discharged), 100 samples over about the
            // acquisition time: far from lock, the pump drives for long
            // stretches and the frequency sweeps across each segment.
            for (cfg, horizon) in [(curved_vco(), 3.0), (ripple_capacitor(), 0.05)] {
                let mut pll = crate::behavioral::CpPll::new(&cfg);
                let states: Vec<Vec<f64>> = (1..=100)
                    .map(|i| {
                        pll.advance_to(horizon * f64::from(i) / 100.0);
                        pll.st.x.to_vec()
                    })
                    .collect();
                micro_step_edges(&cfg, &states, 10.0);
            }
        }

        #[test]
        fn newton_edges_match_bisection_near_a_vco_rail() {
            // Lock at 5 kHz sits 20 Hz under the rail: most segments
            // clamp part-way, putting a kink in the phase.
            let mut cfg = PllConfig::paper_table3();
            cfg.vco_range_hz = Some((4_500.0, 5_020.0));
            edges_near_lock(&cfg, 200.0);
        }

        #[test]
        fn newton_edges_match_bisection_from_negative_frequency() {
            // The closed-form kernel extrapolates the VCO linearly, so a
            // state far below lock enters the segment at f ≤ 0 and the
            // first candidate is the bracket midpoint, not a Newton guess.
            // The pump's Up current then sweeps the frequency positive.
            // (`MicroStep` hands such a segment to the micro-step formula;
            // this solves on the kernel's own phase.)
            let cfg = PllConfig::integer_n_charge_pump();
            let (integ, lock) = MicroStep::locked(&cfg);
            let up = PfdOutput::Up;
            let kernel = integ.kernel(up).expect("a linear VCO has kernels");
            let f_lock = kernel.frequency(lock[0]);
            let hz_per_unit = kernel.frequency(lock[0] + 1.0) - f_lock;
            let cap = integ.segment_cap_periods(up) / cfg.f_ref_hz;
            prop_check!(cases: 128, |g| {
                let f_entry = g.f64_range(-600.0, 0.0);
                let x = lock[0] + (f_entry - f_lock) / hz_per_unit;
                let dt_max = cap * g.f64_range(0.5, 1.0);
                let fraction = g.f64_range(0.0, 1.0);
                let segment = |dt| {
                    let (end, dphase) = kernel.segment(x, dt);
                    (Segment { dt, dphase, end }, kernel.frequency(end))
                };
                newton_matches_bisection(
                    kernel.frequency(x),
                    kernel.derivatives(x),
                    segment,
                    dt_max,
                    fraction,
                    &mut Tally::default(),
                )
            });
        }

        #[test]
        fn newton_edges_match_bisection_on_the_closed_form_output_phase() {
            // `ClosedFormPll`'s harmonic output phase, from a random
            // instant of a sine or ten-step FSK steady state, now and
            // then held; seeded, as the engine seeds it, at `Δφ/f`.
            let cfg = PllConfig::paper_table3();
            let mut tally = Tally::default();
            prop_check!(cases: 256, |g| {
                let f_mod = g.f64_range(0.5, 60.0);
                let deviation = g.f64_range(1.0, 100.0);
                let mut pll = ClosedFormPll::new_locked(&cfg);
                pll.set_stimulus(if g.bool() {
                    FmStimulus::pure_sine(cfg.f_ref_hz, deviation, f_mod)
                } else {
                    FmStimulus::multi_tone(cfg.f_ref_hz, deviation, f_mod, 10)
                });
                pll.advance_to(g.f64_range(0.0, 2.0 / f_mod));
                pll.set_hold(g.usize_range(0, 8) == 0);
                let dt_max = g.f64_range(1e-3, 1.5) / cfg.f_ref_hz;
                let fraction = any_fraction(g);
                newton_matches_bisection(
                    pll.vco_frequency_hz(),
                    [0.0; 3],
                    |dt| pll.segment(dt),
                    dt_max,
                    fraction,
                    &mut tally,
                )
            });
            assert!(
                tally.mean() <= 3.0,
                "{} evaluations per crossing",
                tally.mean()
            );
        }

        #[test]
        fn newton_edges_match_bisection_on_a_gate_level_contention_segment() {
            // `MixedSignalPll`'s trapezoid over one filter segment while
            // both PFD outputs are high (inside the reset glitch): a
            // mismatched pump then sources its net current into a
            // ripple-capacitor filter, from states ±2 kHz around lock.
            let mut cfg = ripple_capacitor();
            cfg.drive = DriveConfig::Charge {
                i_pump: 100e-6,
                mismatch: 0.7,
            };
            let contention = pump_table(&cfg)[3];
            assert!(matches!(contention, PumpOutput::Current(i) if i > 0.0));
            let mut pll = MixedSignalPll::new_locked(&cfg);
            let lock = lock_state(&cfg, cfg.build_filter().as_ref());
            let dv = 2_000.0 / cfg.build_vco().gain_hz_per_volt();
            let cap = 0.125 / cfg.f_vco_hz();
            let mut tally = Tally::default();
            prop_check!(cases: 256, |g| {
                let x: Vec<f64> = lock.iter().map(|v| v + g.f64_range(-dv, dv)).collect();
                let x = FilterState::of(&x);
                let dt_max = cap * g.f64_range(1e-3, 1.0);
                let fraction = any_fraction(g);
                newton_matches_bisection(
                    pll.frequency(&x, contention),
                    [0.0; 3],
                    |dt| pll.trial(&x, contention, dt),
                    dt_max,
                    fraction,
                    &mut tally,
                )
            });
            assert!(
                tally.mean() <= 3.0,
                "{} evaluations per crossing",
                tally.mean()
            );
        }

        /// A VCO stopped until `start` seconds into the segment, then
        /// running at `f_hz`: a flat phase that gives Newton no slope, so
        /// the solver's fallbacks are the only way through.
        fn stalled_vco(start: f64, f_hz: f64) -> impl FnMut(f64) -> (Segment<()>, f64) {
            move |dt| {
                let dphase = f_hz * (dt - start).max(0.0);
                let f = if dt < start { 0.0 } else { f_hz };
                (
                    Segment {
                        dt,
                        dphase,
                        end: (),
                    },
                    f,
                )
            }
        }

        #[test]
        fn zero_frequency_falls_back_to_bisection() {
            // f = 0 at entry and at the first candidate (dt_max/2): two
            // bisection steps, then Newton on the running VCO.
            let (target, dt_max) = (1.0, 1e-3);
            let vco = || stalled_vco(0.6e-3, 5_000.0);
            let newton = solve_crossing(0.0, [0.0; 3], vco(), target, dt_max);
            let reference = bisect_crossing(vco(), target, dt_max);
            assert!(
                (newton.dt - 0.8e-3).abs() <= EDGE_REL_TOL * dt_max,
                "{newton:?}"
            );
            assert!((newton.dt - reference.dt).abs() <= EDGE_REL_TOL * dt_max);
        }

        #[test]
        fn flat_phase_at_the_target_returns_the_best_bracket() {
            // A zero target is met everywhere on the stalled stretch, and
            // f = 0 there: the bracket halves through the whole iteration
            // budget without a Newton step, and the bracket's upper end
            // (the tightest evaluation at or past the target) is the edge.
            let dt_max = 1e-3;
            let vco = || stalled_vco(0.6e-3, 5_000.0);
            let edge = solve_crossing(0.0, [0.0; 3], vco(), 0.0, dt_max);
            assert_eq!(edge.dt, dt_max * 0.5f64.powi(64), "{edge:?}");
            assert_eq!(edge.dphase, 0.0);
            let reference = bisect_crossing(vco(), 0.0, dt_max);
            assert!((edge.dt - reference.dt).abs() <= EDGE_REL_TOL * dt_max);
        }
    }
}
