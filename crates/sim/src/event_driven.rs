//! Event-driven CP-PLL engine with **exact per-event advancement**.
//!
//! [`EventDrivenCpPll`] is the [`LoopShell`] over [`EventStep`]. Where
//! [`crate::behavioral::CpPll`] micro-steps a `Box<dyn LoopFilter>`
//! between edges (trial segments, cloned state vectors, trapezoidal phase
//! accumulation), this integrator advances the loop **per PFD switching
//! event** in the style of the Kuznetsov–Yuldashev closed-form CP-PLL
//! model (arXiv 1901.01468, with the van Paemel correction of
//! 1810.02609): between two discrete events the pump drive is constant,
//! so the loop filter collapses to a scalar affine ODE
//! ([`AffineSegment`]) whose state, output and *time integral* all have
//! closed forms. One evaluation replaces an arbitrary number of
//! micro-steps and VCO phase is accumulated exactly (no trapezoid). The
//! shell's safeguarded Newton solver finds feedback edges on that
//! closed-form phase, one shared `exp` per iteration.
//!
//! Everything outside the segment — boundary candidates, reference-edge
//! scheduling with clamped generation jitter, hold, work accounting,
//! checkpointing — is the shared shell, so the observable contract is
//! [`crate::behavioral::CpPll`]'s. The engines differ only in rounding:
//! phases agree to ~1e-9 cycle over a sweep, not bit for bit.
//!
//! # Supported configurations
//!
//! Exact scalar propagation requires a **first-order filter and a linear
//! VCO**: every stock config and every `standard_campaign` fault
//! qualifies. [`EventDrivenCpPll::try_new_locked`] returns an
//! [`OutOfClass`] error (and `new_locked` panics with its message, a
//! pointer to [`crate::behavioral::CpPll`]) for a ripple capacitor
//! (second filter state), VCO tuning-curve curvature, or a clamped VCO
//! range. The engine also refuses to run where the *linear* VCO
//! frequency would cross zero — railed operation far outside lock
//! belongs to the clamped behavioural model.

use crate::campaign::{bits_hex, f64_from_bits_hex};
use crate::config::{FilterConfig, PllConfig};
use crate::loop_shell::{drive_of, lock_state, slot, Integrator, LoopShell, LoopState, Segment};
use pllbist_analog::filter::AffineSegment;
use pllbist_analog::pfd::PfdOutput;
use std::fmt;

/// The event-driven CP-PLL simulator — [`crate::behavioral::CpPll`]'s
/// semantics at closed-form speed.
///
/// # Example
///
/// ```
/// use pllbist_sim::config::PllConfig;
/// use pllbist_sim::event_driven::EventDrivenCpPll;
///
/// let cfg = PllConfig::paper_table3();
/// let mut pll = EventDrivenCpPll::new_locked(&cfg);
/// pll.advance_to(0.1); // run 100 ms at lock
/// let f = pll.average_frequency_hz(0.05);
/// assert!((f - 5_000.0).abs() < 5.0, "still at lock: {f}");
/// ```
pub type EventDrivenCpPll = LoopShell<EventStep>;

/// A bit-exact snapshot of an [`EventDrivenCpPll`]'s dynamic state (the
/// scalar filter state plus the shell state; see [`LoopState`]).
pub type EventDrivenCheckpoint = LoopState<f64>;

/// Why a configuration is outside the event integrator's exact class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutOfClass {
    /// A ripple capacitor makes the loop filter second-order.
    RippleCapacitor,
    /// The VCO tuning curve is curved.
    VcoCurvature,
    /// The VCO frequency range is clamped.
    VcoRange,
}

impl fmt::Display for OutOfClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OutOfClass::RippleCapacitor => {
                "EventDrivenCpPll requires a first-order loop filter \
                 (no ripple capacitor); use CpPll for second-order filters"
            }
            OutOfClass::VcoCurvature => {
                "EventDrivenCpPll requires a linear VCO tuning curve \
                 (vco_curvature = (0, 0)); use CpPll for curved tuning"
            }
            OutOfClass::VcoRange => {
                "EventDrivenCpPll requires an unclamped VCO range; \
                 use CpPll for range-limited operation"
            }
        })
    }
}

impl std::error::Error for OutOfClass {}

impl OutOfClass {
    /// Why `config` is outside the event integrator's exact class, read
    /// off the configuration alone (nothing is built, so it is safe on
    /// untrusted input); `Ok` for an in-class config.
    ///
    /// # Errors
    ///
    /// The first violated requirement, in the order
    /// [`EventDrivenCpPll::try_new_locked`] checks them.
    pub fn check(config: &PllConfig) -> Result<(), OutOfClass> {
        if config.vco_curvature != (0.0, 0.0) {
            Err(OutOfClass::VcoCurvature)
        } else if config.vco_range_hz.is_some() {
            Err(OutOfClass::VcoRange)
        } else if matches!(config.filter, FilterConfig::SeriesRc { c2: Some(_), .. }) {
            Err(OutOfClass::RippleCapacitor)
        } else {
            Ok(())
        }
    }
}

impl EventDrivenCpPll {
    /// Builds the loop preset at its lock point (the only supported
    /// start: cold-start acquisition slews through the railed region the
    /// linear kernels exclude — use [`crate::behavioral::CpPll`] for
    /// that).
    ///
    /// # Errors
    ///
    /// [`OutOfClass`] if the configuration is outside the engine's exact
    /// class: a ripple capacitor, VCO curvature, or a clamped VCO range.
    pub fn try_new_locked(config: &PllConfig) -> Result<Self, OutOfClass> {
        let (integ, x) = EventStep::try_locked(config)?;
        Ok(Self::assemble(config, integ, x))
    }
}

/// Rounding margin of [`EventStep`]'s phase floor, relative to the sum
/// of the magnitudes its advance is computed from: `|f0|·dt`, and `|gdx|`
/// times `|x∞|·dt + |x − x∞|·(dt + 1/|a|)` (or `|x|·dt + |b|·dt²` when
/// `a = 0`). The `1/|a|` term is the cancellation in `e^{a·dt} − 1` at
/// short segments. The computed advance and the floor each stray from
/// exact by a few ε of that sum; the margin is thousands of ε.
const PHASE_FLOOR_MARGIN: f64 = 1e-12;

/// One PFD drive state reduced to its closed-form loop kernel: the
/// filter's scalar affine segment composed with the linear VCO, so the
/// instantaneous frequency is `f0 + gdx·x` and the phase advance over a
/// segment is exact.
#[derive(Clone, Copy, Debug)]
struct Kernel {
    seg: AffineSegment,
    /// VCO frequency at filter state `x = 0`, in Hz (unclamped linear
    /// extrapolation — may be negative; the engine guards against ever
    /// *operating* there).
    f0: f64,
    /// Frequency sensitivity to the filter state, `∂f/∂x` in Hz per
    /// state-unit.
    gdx: f64,
    /// The state the segment relaxes to, `x∞ = −b/a`, and its time
    /// constant `−1/a`, for the phase floor (both unused when `a ≥ 0`).
    x_inf: f64,
    tau: f64,
}

/// The closed-form [`Integrator`]: first-order filter, linear VCO.
pub struct EventStep {
    /// Kernels indexed by [`slot`]: Up, Down, Off.
    kernels: [Kernel; 3],
}

impl EventStep {
    /// Builds the integrator and its scalar filter state (capacitor
    /// voltage / integrator value) at lock, or says why `config` is out
    /// of class.
    fn try_locked(config: &PllConfig) -> Result<(Self, f64), OutOfClass> {
        OutOfClass::check(config)?;
        let filter = config.build_filter();
        let vco = config.build_vco();
        let gain = vco.gain_hz_per_volt();
        let kernel_for = |state: PfdOutput| -> Result<Kernel, OutOfClass> {
            // The filter itself is the authority on its order; `check`
            // already turned away the one stock second-order filter.
            let seg = filter
                .affine_segment(drive_of(config, state))
                .ok_or(OutOfClass::RippleCapacitor)?;
            Ok(Kernel {
                seg,
                // Linear, unclamped: f(v) = f_center + gain·(v − v_center),
                // composed with v = c·x + d.
                f0: vco.f_center_hz() + gain * (seg.d - vco.v_center()),
                gdx: gain * seg.c,
                x_inf: -seg.b / seg.a,
                tau: -1.0 / seg.a,
            })
        };
        let kernels = [
            kernel_for(PfdOutput::Up)?,
            kernel_for(PfdOutput::Down)?,
            kernel_for(PfdOutput::Off)?,
        ];
        // Preset at lock through the canonical vector path so the initial
        // state matches CpPll::new_locked exactly.
        let x = lock_state(config, filter.as_ref())[0];
        Ok((Self { kernels }, x))
    }
}

impl Integrator for EventStep {
    type State = f64;
    const BACKEND: &'static str = "event_driven";
    const TOKEN_PREFIX: &'static str = "ev:";

    /// Event-subdivision guard, under every drive. Physics is exact at any
    /// segment length, so at `2/f_ref` (never binding between
    /// ~1/f_ref-spaced edges) this costs nothing; the supervisor's retry
    /// ladder shrinks it via [`crate::engine::PllEngine::set_step_scale`]
    /// so re-attempts still tighten a real knob on this engine.
    fn segment_cap_periods(&self, _drive: PfdOutput) -> f64 {
        2.0
    }

    fn locked(config: &PllConfig) -> (Self, f64) {
        Self::try_locked(config).unwrap_or_else(|e| panic!("{e}"))
    }

    fn check_class(config: &PllConfig) -> Result<(), OutOfClass> {
        OutOfClass::check(config)
    }

    #[inline]
    fn output(&self, x: &f64, drive: PfdOutput) -> f64 {
        self.kernels[slot(drive)].seg.output(*x)
    }

    #[inline]
    fn frequency(&self, x: &f64, drive: PfdOutput) -> f64 {
        let k = &self.kernels[slot(drive)];
        k.f0 + k.gdx * *x
    }

    /// End state and exact phase advance from one shared exponential.
    #[inline]
    fn advance(&mut self, x: &f64, drive: PfdOutput, dt: f64) -> Segment<f64> {
        let k = &self.kernels[slot(drive)];
        let (end, integral) = k.seg.state_and_integral(*x, dt);
        Segment {
            dt,
            dphase: k.f0 * dt + k.gdx * integral,
            end,
        }
    }

    /// `f′ = gdx·x′ = gdx·(a·x + b)`, and each further derivative is `a`
    /// times the last.
    #[inline]
    fn frequency_derivatives(&self, x: &f64, drive: PfdOutput) -> [f64; 3] {
        let k = &self.kernels[slot(drive)];
        let d1 = k.gdx * (k.seg.a * *x + k.seg.b);
        [d1, k.seg.a * d1, k.seg.a * k.seg.a * d1]
    }

    /// The frequency is monotone over a segment — it relaxes from
    /// `f(x)` towards `f(x∞)` when `a < 0`, and is linear in time when
    /// `a = 0` — so `dt` times its smaller end bounds the exact advance.
    /// `PHASE_FLOOR_MARGIN` of the magnitudes the computed advance is
    /// built from covers the rounding of both. No bound for `a > 0`,
    /// which no stock filter has.
    #[inline]
    fn phase_floor(&self, x: &f64, drive: PfdOutput, dt: f64) -> f64 {
        let k = &self.kernels[slot(drive)];
        let (a, b, x) = (k.seg.a, k.seg.b, *x);
        let f_entry = k.f0 + k.gdx * x;
        let (f_other, state_scale) = if a == 0.0 {
            (
                k.f0 + k.gdx * (x + b * dt),
                x.abs() * dt + b.abs() * dt * dt,
            )
        } else if a < 0.0 {
            (
                k.f0 + k.gdx * k.x_inf,
                k.x_inf.abs() * dt + (x - k.x_inf).abs() * (dt + k.tau),
            )
        } else {
            return f64::NEG_INFINITY;
        };
        let scale = k.f0.abs() * dt + k.gdx.abs() * state_scale;
        f_entry.min(f_other) * dt - PHASE_FLOOR_MARGIN * scale
    }

    #[inline]
    fn check_state(&self, x: &f64, drive: PfdOutput, t: f64) {
        // The kernels are *unclamped* linear extrapolations; leaving the
        // positive-frequency region means the clamp of the behavioural
        // model would have engaged and the closed form no longer holds.
        let f_end = self.frequency(x, drive);
        assert!(
            f_end > 0.0,
            "EventDrivenCpPll: VCO frequency left the positive linear \
             region (f = {f_end} Hz at t = {t}); use CpPll for railed \
             operation"
        );
    }

    fn encode_state(x: &f64) -> String {
        bits_hex(*x)
    }

    fn decode_state(field: &str) -> Option<f64> {
        f64_from_bits_hex(field)
    }
}

/// One stock-derived config per [`OutOfClass`] reason, for tests.
#[cfg(test)]
pub(crate) fn out_of_class_examples() -> [(PllConfig, OutOfClass); 3] {
    let mut ripple = PllConfig::integer_n_charge_pump();
    if let FilterConfig::SeriesRc { ref mut c2, .. } = ripple.filter {
        *c2 = Some(1e-9);
    }
    let mut curved = PllConfig::paper_table3();
    curved.vco_curvature = (20.0, 0.0);
    let mut clamped = PllConfig::paper_table3();
    clamped.vco_range_hz = Some((4_000.0, 6_000.0));
    [
        (ripple, OutOfClass::RippleCapacitor),
        (curved, OutOfClass::VcoCurvature),
        (clamped, OutOfClass::VcoRange),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;
    use crate::engine::PllEngine;
    use crate::stimulus::FmStimulus;

    #[test]
    fn tracks_behavioral_engine_closely() {
        // The tentpole cross-check at engine granularity: same config,
        // same stimulus law, the micro-stepped and the event-driven
        // engines must tell the same physical story (they differ only in
        // rounding and in where feedback edges land within one ulp).
        let cfg = PllConfig::paper_table3();
        let mut ev = EventDrivenCpPll::new_locked(&cfg);
        let mut beh = CpPll::new_locked(&cfg);
        let stim = FmStimulus::pure_sine(1_000.0, 10.0, 8.0);
        ev.set_stimulus(stim.clone());
        beh.set_stimulus(stim);
        for k in 1..=10 {
            let t = k as f64 * 0.1;
            ev.advance_to(t);
            beh.advance_to(t);
            let pe = ev.vco_phase_cycles();
            let pb = beh.vco_phase_cycles();
            assert!(
                (pe - pb).abs() < 1e-4 * pb.abs().max(1.0),
                "t = {t}: event {pe} vs behavioral {pb} cycles"
            );
            let ve = ev.held_control_voltage();
            let vb = beh.held_control_voltage();
            assert!(
                (ve - vb).abs() < 1e-4,
                "t = {t}: held v event {ve} vs behavioral {vb}"
            );
        }
        assert_eq!(ev.fb_edge_count(), beh.fb_edge_count());
    }

    #[test]
    fn event_engine_does_far_less_work() {
        // The reason this engine exists: no micro-steps where the filter
        // moves. Committed segments stay within a small multiple of the
        // physical event count. A leaky filter droops between pump
        // pulses, so the behavioural engine pays ~5 micro-steps per
        // reference period on the paper's loop with 50 MΩ of leakage.
        // (Without leakage the filter holds between pulses, and both
        // engines take those intervals whole.)
        let mut cfg = PllConfig::paper_table3();
        if let FilterConfig::PassiveLag { ref mut r_leak, .. } = cfg.filter {
            *r_leak = Some(50e6);
        }
        let mut ev = EventDrivenCpPll::new_locked(&cfg);
        let mut beh = CpPll::new_locked(&cfg);
        ev.advance_to(0.5);
        beh.advance_to(0.5);
        let se = ev.work_stats();
        let sb = beh.work_stats();
        assert!(
            se.steps * 2 < sb.steps,
            "event engine should commit far fewer segments: {} vs {}",
            se.steps,
            sb.steps
        );
    }

    #[test]
    fn step_scale_one_is_bitwise_neutral() {
        let cfg = PllConfig::paper_table3();
        let mut a = EventDrivenCpPll::new_locked(&cfg);
        let mut b = EventDrivenCpPll::new_locked(&cfg);
        PllEngine::set_step_scale(&mut b, 1.0);
        let stim = FmStimulus::pure_sine(1_000.0, 10.0, 8.0);
        a.set_stimulus(stim.clone());
        b.set_stimulus(stim);
        a.advance_to(0.5);
        b.advance_to(0.5);
        assert_eq!(
            a.vco_phase_cycles().to_bits(),
            b.vco_phase_cycles().to_bits()
        );
        assert_eq!(a.control_voltage().to_bits(), b.control_voltage().to_bits());
        assert_eq!(a.work_stats(), b.work_stats());
    }

    #[test]
    fn step_scale_tightens_the_subdivision_guard() {
        // The supervisor's retry ladder must still change something real
        // on this engine: a shrunken scale forces more, shorter committed
        // segments without moving the physics.
        let cfg = PllConfig::paper_table3();
        let mut coarse = EventDrivenCpPll::new_locked(&cfg);
        let mut fine = EventDrivenCpPll::new_locked(&cfg);
        PllEngine::set_step_scale(&mut fine, 0.05);
        coarse.advance_to(0.5);
        fine.advance_to(0.5);
        let sc = coarse.work_stats();
        let sf = fine.work_stats();
        assert!(
            sf.steps > 2 * sc.steps,
            "scale 0.05 should subdivide: {} vs {}",
            sf.steps,
            sc.steps
        );
        assert_eq!(sc.ref_edges, sf.ref_edges, "same physical events");
        assert_eq!(sc.fb_edges, sf.fb_edges, "same physical events");
        // Exact segments: subdividing does not move the trajectory beyond
        // rounding.
        assert!(
            (coarse.vco_phase_cycles() - fine.vco_phase_cycles()).abs() < 1e-6,
            "{} vs {}",
            coarse.vco_phase_cycles(),
            fine.vco_phase_cycles()
        );
    }

    #[test]
    fn lock_holds_across_lag_resistor_tolerance() {
        // Every R2 within ±10 % of the paper's value must run forward at
        // lock: N·f_ref = 5 kHz is 10 VCO cycles in 2 ms. A high-Z
        // coefficient that rounds to ±1e-14 instead of 0 once lost the
        // state integral and ran the phase backwards.
        for k in 0..=400 {
            let mut cfg = PllConfig::paper_table3();
            if let FilterConfig::PassiveLag { ref mut r2, .. } = cfg.filter {
                *r2 *= 0.9 + 0.2 * k as f64 / 400.0;
            }
            let mut pll = EventDrivenCpPll::new_locked(&cfg);
            pll.advance_to(2e-3);
            let cycles = pll.vco_phase_cycles();
            assert!((cycles - 10.0).abs() < 0.1, "R2 step {k}: {cycles} cycles");
        }
    }

    #[test]
    fn phase_floor_never_exceeds_the_computed_advance() {
        use pllbist_analog::fault::Fault;
        use pllbist_testkit::{prop_assert, prop_check};
        // Voltage drive (a < 0 driven, a = 0 held), its leaky variant
        // (a < 0 held too), charge pump (a = 0), leaky charge pump
        // (a < 0) and an active PI (a = 0, b ≠ 0 under drive).
        let lag = PllConfig::paper_table3();
        let pump = PllConfig::integer_n_charge_pump();
        let mut pi = PllConfig::paper_table3();
        pi.filter = FilterConfig::ActivePi {
            tau1: 0.08,
            tau2: 0.012,
        };
        let configs = [
            lag.with_fault(Fault::FilterLeakage(5e6)).unwrap(),
            pump.with_fault(Fault::FilterLeakage(2e7)).unwrap(),
            lag,
            pump,
            pi,
        ];
        let mut kernels: Vec<(EventStep, f64, f64, f64)> = configs
            .iter()
            .map(|cfg| {
                let (integ, lock) = EventStep::locked(cfg);
                let off = PfdOutput::Off;
                let hz_per_unit = integ.frequency(&(lock + 1.0), off) - integ.frequency(&lock, off);
                let cap = integ.segment_cap_periods(off) / cfg.f_ref_hz;
                (integ, lock, hz_per_unit, cap)
            })
            .collect();
        prop_check!(cases: 4096, |g| {
            let pick = g.usize_range(0, kernels.len());
            let (integ, lock, hz_per_unit, cap) = &mut kernels[pick];
            let drive = g.pick(&[PfdOutput::Up, PfdOutput::Down, PfdOutput::Off]);
            // Up to 5 % of the VCO frequency off lock.
            let df = 0.05 * integ.frequency(lock, PfdOutput::Off) * g.f64_range(-1.0, 1.0);
            let x = *lock + df / *hz_per_unit;
            let dt = (g.f64_range(1e-9f64.ln(), cap.ln())).exp().min(*cap);
            let floor = integ.phase_floor(&x, drive, dt);
            let dphase = integ.advance(&x, drive, dt).dphase;
            prop_assert!(
                floor <= dphase,
                "{drive:?} x {x} dt {dt:e}: floor {floor} > advance {dphase}"
            );
            // The shell's skip decision against the trial's own
            // comparison, at a feedback target within rounding of the
            // segment's end.
            let vco = g.f64_range(0.0, 1e6);
            let next_target = vco + dphase * (1.0 + g.f64_range(-1e-12, 1e-12));
            prop_assert!(
                vco + floor < next_target || vco + dphase >= next_target,
                "{drive:?} x {x} dt {dt:e}: skipped a trial that does not cross"
            );
            Ok(())
        });
    }

    #[test]
    fn out_of_class_configs_are_rejected_with_a_typed_error() {
        for (cfg, want) in out_of_class_examples() {
            assert_eq!(OutOfClass::check(&cfg), Err(want));
            assert_eq!(EventDrivenCpPll::try_new_locked(&cfg).err(), Some(want));
        }
        let cfg = PllConfig::paper_table3();
        assert_eq!(OutOfClass::check(&cfg), Ok(()));
        assert!(EventDrivenCpPll::try_new_locked(&cfg).is_ok());
    }

    #[test]
    #[should_panic(expected = "first-order loop filter")]
    fn ripple_capacitor_is_out_of_class() {
        let _ = EventDrivenCpPll::new_locked(&out_of_class_examples()[0].0);
    }

    #[test]
    #[should_panic(expected = "linear VCO tuning curve")]
    fn vco_curvature_is_out_of_class() {
        let _ = EventDrivenCpPll::new_locked(&out_of_class_examples()[1].0);
    }

    #[test]
    #[should_panic(expected = "unclamped VCO range")]
    fn vco_range_is_out_of_class() {
        let _ = EventDrivenCpPll::new_locked(&out_of_class_examples()[2].0);
    }
}
