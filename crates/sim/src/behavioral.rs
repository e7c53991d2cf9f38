//! The behavioural CP-PLL engine: one integrator for every configuration.
//!
//! [`CpPll`] is the [`LoopShell`] over [`MicroStep`], which advances the
//! loop filter and VCO phase over each constant-drive segment between PFD
//! events in one of two ways, chosen per drive when the loop is built:
//!
//! * **The closed-form kernel**, wherever the drive has a scalar
//!   reduction (`LoopFilter::affine_segment`) and the VCO is linear and
//!   unclamped. The filter collapses to the affine ODE `x′ = a·x + b`
//!   whose state, output and *time integral* all have closed forms (the
//!   Kuznetsov–Yuldashev CP-PLL model, arXiv 1901.01468), so one `exp`
//!   gives the end state and the exact VCO phase advance at any segment
//!   length. The shell's Newton solver is seeded with the frequency's
//!   derivatives and skips trial segments its phase floor proves cross.
//! * **Micro-steps** everywhere else (a ripple capacitor, VCO curvature or
//!   a clamped range): the filter's state vector is stepped exactly (see
//!   `pllbist-analog::lti`) and the phase accumulated by the trapezoid
//!   over segments of at most a quarter reference period.
//!
//! A kernel segment whose linear frequency law would reach f ≤ 0 takes
//! the micro-step formula instead, because the VCO clamps there: cold
//! start and railed runs keep the clamped behaviour.
//!
//! Between pump pulses the tri-state PFD leaves a lossless filter at high
//! impedance, where it holds exactly: the state keeps its bits and the
//! VCO frequency is constant, so either formula is exact at any length.
//! [`MicroStep`] takes such a held interval as one segment, bounded only
//! by the edges, the dead-zone expiry, samples and the horizon. Any other
//! kernel drive is capped at two reference periods, never binding between
//! edges about a period apart, so the supervisor's retry ladder still
//! has a real knob to tighten; in lock the loop commits about two
//! segments per reference period either way.
//!
//! The filter state rides inline in a [`FilterState`] (one slot, or two
//! with a ripple capacitor), and the filter steps it in place, so an
//! advance never touches the heap.
//!
//! The loop itself (PFD, hold, edges, instrumentation, checkpointing)
//! lives in [`crate::loop_shell`]; the shared types are re-exported here
//! under their historical paths.

use crate::campaign::{bits_hex, f64_from_bits_hex};
use crate::config::PllConfig;
use crate::loop_shell::{drive_of, lock_state, slot, Integrator, LoopShell, LoopState, Segment};
use pllbist_analog::filter::{AffineSegment, LoopFilter};
use pllbist_analog::pfd::PfdOutput;
use pllbist_analog::pump::PumpOutput;
use pllbist_analog::vco::Vco;

pub use crate::loop_shell::{LoopEvent, Sample};

/// The behavioural CP-PLL simulator.
///
/// # Example
///
/// Watch the loop re-acquire after a reference frequency step:
///
/// ```
/// use pllbist_sim::config::PllConfig;
/// use pllbist_sim::behavioral::CpPll;
/// use pllbist_sim::stimulus::FmStimulus;
///
/// let cfg = PllConfig::paper_table3();
/// let mut pll = CpPll::new_locked(&cfg);
/// // Step the reference up by 5 Hz and settle.
/// pll.set_stimulus(FmStimulus::constant(1_000.0, 5.0));
/// pll.advance_to(1.0);
/// let f = pll.average_frequency_hz(0.1);
/// assert!((f - 5_025.0).abs() < 1.0, "f = {f}");
/// ```
pub type CpPll = LoopShell<MicroStep>;

/// [`CpPll`] under the name of the event-driven engine it absorbed.
/// Kept only because the frozen benchmark package names it; it goes
/// with that package's next revision.
///
/// ```
/// use pllbist_sim::{EventDrivenCpPll, PllEngine};
///
/// assert_eq!(EventDrivenCpPll::backend_name(), "cp_pll");
/// ```
pub type EventDrivenCpPll = CpPll;

/// A bit-exact snapshot of a [`CpPll`]'s dynamic state (the filter state
/// plus the shell state; see [`LoopState`]).
pub type CpPllCheckpoint = LoopState<FilterState>;

/// A loop filter's state vector held inline: every stock filter has one
/// electrical state, or two with a ripple capacitor. It dereferences to
/// the slice [`LoopFilter::step`] and [`LoopFilter::output`] take.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilterState {
    len: usize,
    slots: [f64; FilterState::CAPACITY],
}

impl FilterState {
    /// The most states a filter may have.
    pub const CAPACITY: usize = 2;

    /// The state holding `values`, or `None` past [`Self::CAPACITY`].
    pub fn from_slice(values: &[f64]) -> Option<Self> {
        let mut slots = [0.0; Self::CAPACITY];
        slots.get_mut(..values.len())?.copy_from_slice(values);
        Some(Self {
            len: values.len(),
            slots,
        })
    }

    /// The state of a filter built from a config: every stock filter
    /// fits.
    pub(crate) fn of(values: &[f64]) -> Self {
        Self::from_slice(values).unwrap_or_else(|| {
            panic!(
                "a {}-state loop filter does not fit inline (at most {})",
                values.len(),
                Self::CAPACITY
            )
        })
    }
}

impl std::ops::Deref for FilterState {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.slots[..self.len]
    }
}

impl std::ops::DerefMut for FilterState {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.slots[..self.len]
    }
}

/// Micro-step bound where the filter moves and no kernel applies:
/// numerical insurance for the trapezoid, in reference periods.
const MICRO_STEP_PERIODS: f64 = 0.25;

/// Segment bound under a kernel drive that moves the filter, in
/// reference periods. The kernel is exact at any length, so between
/// edges about a period apart it never binds; it is there for the
/// supervisor's retry ladder to shrink
/// ([`crate::engine::PllEngine::set_step_scale`]).
const KERNEL_PERIODS: f64 = 2.0;

/// Rounding margin of [`Kernel::phase_floor`], relative to the sum of the
/// magnitudes its advance is computed from: `|f0|·dt`, and `|gdx|` times
/// `|x∞|·dt + |x − x∞|·(dt + 1/|a|)` (or `|x|·dt + |b|·dt²` when
/// `a = 0`). The `1/|a|` term is the cancellation in `e^{a·dt} − 1` at
/// short segments. The computed advance and the floor each stray from
/// exact by a few ε of that sum; the margin is thousands of ε.
const PHASE_FLOOR_MARGIN: f64 = 1e-12;

/// One PFD drive reduced to its closed-form loop kernel: the filter's
/// scalar affine segment composed with the linear VCO, so the
/// instantaneous frequency is `f0 + gdx·x` and the phase advance over a
/// segment is exact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Kernel {
    seg: AffineSegment,
    /// VCO frequency at filter state `x = 0`, in Hz (the unclamped linear
    /// law, which may be negative).
    f0: f64,
    /// Frequency sensitivity to the filter state, `∂f/∂x` in Hz per
    /// state-unit.
    gdx: f64,
    /// The state the segment relaxes to, `x∞ = −b/a`, and its time
    /// constant `−1/a`, for the phase floor (both unused when `a ≥ 0`).
    x_inf: f64,
    tau: f64,
}

impl Kernel {
    fn new(seg: AffineSegment, vco: &Vco) -> Self {
        let gain = vco.gain_hz_per_volt();
        Self {
            seg,
            // Linear, unclamped: f(v) = f_center + gain·(v − v_center),
            // composed with v = c·x + d.
            f0: vco.f_center_hz() + gain * (seg.d - vco.v_center()),
            gdx: gain * seg.c,
            x_inf: -seg.b / seg.a,
            tau: -1.0 / seg.a,
        }
    }

    /// The linear law's frequency at state `x`, in Hz.
    #[inline]
    pub(crate) fn frequency(&self, x: f64) -> f64 {
        self.f0 + self.gdx * x
    }

    /// The end state and exact phase advance after `dt`, from one shared
    /// exponential.
    #[inline]
    pub(crate) fn segment(&self, x: f64, dt: f64) -> (f64, f64) {
        let (end, integral) = self.seg.state_and_integral(x, dt);
        (end, self.f0 * dt + self.gdx * integral)
    }

    /// `f′ = gdx·x′ = gdx·(a·x + b)`, and each further derivative is `a`
    /// times the last.
    #[inline]
    pub(crate) fn derivatives(&self, x: f64) -> [f64; 3] {
        let a = self.seg.a;
        let d1 = self.gdx * (a * x + self.seg.b);
        [d1, a * d1, a * a * d1]
    }

    /// The frequency is monotone over a segment — it relaxes from
    /// `f(x)` towards `f(x∞)` when `a < 0`, and is linear in time when
    /// `a = 0` — so `dt` times its smaller end bounds the exact advance.
    /// `PHASE_FLOOR_MARGIN` of the magnitudes the computed advance is
    /// built from covers the rounding of both. No bound for `a > 0`,
    /// which no stock filter has. Where the smaller end is not positive
    /// the floor is negative, below the micro-step formula's clamped
    /// advance too.
    #[inline]
    fn phase_floor(&self, x: f64, dt: f64) -> f64 {
        let (a, b) = (self.seg.a, self.seg.b);
        let (f_other, state_scale) = if a == 0.0 {
            (self.frequency(x + b * dt), x.abs() * dt + b.abs() * dt * dt)
        } else if a < 0.0 {
            (
                self.frequency(self.x_inf),
                self.x_inf.abs() * dt + (x - self.x_inf).abs() * (dt + self.tau),
            )
        } else {
            return f64::NEG_INFINITY;
        };
        let scale = self.f0.abs() * dt + self.gdx.abs() * state_scale;
        self.frequency(x).min(f_other) * dt - PHASE_FLOOR_MARGIN * scale
    }
}

/// The one [`Integrator`]: any [`LoopFilter`], any VCO tuning curve, with
/// a closed-form kernel under every drive that has one.
pub struct MicroStep {
    filter: Box<dyn LoopFilter>,
    vco: Vco,
    /// Pump outputs indexed by [`slot`]: Up, Down, Off.
    drives: [PumpOutput; 3],
    /// Kernels indexed by [`slot`]; `None` where the drive has no scalar
    /// reduction or the VCO is curved or clamped.
    kernels: [Option<Kernel>; 3],
}

impl MicroStep {
    fn new(config: &PllConfig, filter: Box<dyn LoopFilter>) -> Self {
        let vco = config.build_vco();
        let drives = [PfdOutput::Up, PfdOutput::Down, PfdOutput::Off].map(|s| drive_of(config, s));
        let linear = config.vco_curvature == (0.0, 0.0) && config.vco_range_hz.is_none();
        let kernels = drives.map(|drive| {
            let seg = filter.affine_segment(drive).filter(|_| linear)?;
            Some(Kernel::new(seg, &vco))
        });
        Self {
            filter,
            vco,
            drives,
            kernels,
        }
    }

    /// The closed-form kernel under `drive`, if it has one.
    #[cfg(test)]
    pub(crate) fn kernel(&self, drive: PfdOutput) -> Option<&Kernel> {
        self.kernels[slot(drive)].as_ref()
    }

    /// The micro-step formula: the filter stepped exactly, the phase by
    /// the trapezoid on the clamped tuning curve. Kept out of line so the
    /// kernel path of [`Integrator::advance`] stays small enough to
    /// inline into the edge solve.
    #[inline(never)]
    fn micro_step(&mut self, x: &FilterState, drive: PumpOutput, dt: f64) -> Segment<FilterState> {
        let mut end = *x;
        self.filter.step(&mut end, drive, dt);
        let f0 = self.vco.frequency_hz(self.filter.output(x, drive));
        let f1 = self.vco.frequency_hz(self.filter.output(&end, drive));
        Segment {
            dt,
            dphase: 0.5 * (f0 + f1) * dt,
            end,
        }
    }
}

impl CpPll {
    /// Builds the loop with everything discharged (cold start). The loop
    /// will pull in through its non-linear acquisition transient.
    pub fn new(config: &PllConfig) -> Self {
        let filter = config.build_filter();
        let x = FilterState::of(&filter.initial_state());
        Self::assemble(config, MicroStep::new(config, filter), x)
    }
}

impl Integrator for MicroStep {
    type State = FilterState;

    /// Infinite where the filter holds under `drive`: its scalar
    /// reduction `x′ = a·x + b` has `a == 0` and `b == 0` (exact
    /// comparisons; `-0.0` counts as zero), the high-impedance drive of a
    /// lossless filter. A held state keeps its bits and the VCO frequency
    /// is then constant, so both formulas are exact at any length.
    /// Otherwise two periods under a kernel and a quarter period under
    /// micro-steps. The shell asks once per drive when it is built or its
    /// step scale changes.
    fn segment_cap_periods(&self, drive: PfdOutput) -> f64 {
        let s = slot(drive);
        let holds = self
            .filter
            .affine_segment(self.drives[s])
            .is_some_and(|seg| seg.a == 0.0 && seg.b == 0.0);
        if holds {
            f64::INFINITY
        } else if self.kernels[s].is_some() {
            KERNEL_PERIODS
        } else {
            MICRO_STEP_PERIODS
        }
    }

    fn locked(config: &PllConfig) -> (Self, FilterState) {
        let filter = config.build_filter();
        let x = FilterState::of(&lock_state(config, filter.as_ref()));
        (Self::new(config, filter), x)
    }

    #[inline]
    fn output(&self, x: &FilterState, drive: PfdOutput) -> f64 {
        let s = slot(drive);
        match &self.kernels[s] {
            Some(k) => k.seg.output(x.slots[0]),
            None => self.filter.output(x, self.drives[s]),
        }
    }

    /// The kernel's linear law where there is one (negative below the
    /// VCO's zero, which sends the edge solver to bisection), the clamped
    /// tuning curve elsewhere.
    #[inline]
    fn frequency(&self, x: &FilterState, drive: PfdOutput) -> f64 {
        let s = slot(drive);
        match &self.kernels[s] {
            Some(k) => k.frequency(x.slots[0]),
            None => self.vco.frequency_hz(self.filter.output(x, self.drives[s])),
        }
    }

    #[inline]
    fn advance(&mut self, x: &FilterState, drive: PfdOutput, dt: f64) -> Segment<FilterState> {
        let s = slot(drive);
        if let Some(k) = &self.kernels[s] {
            let x0 = x.slots[0];
            let (end, dphase) = k.segment(x0, dt);
            if k.frequency(x0) > 0.0 && k.frequency(end) > 0.0 {
                return Segment {
                    dt,
                    dphase,
                    end: FilterState {
                        len: 1,
                        slots: [end, 0.0],
                    },
                };
            }
        }
        self.micro_step(x, self.drives[s], dt)
    }

    #[inline]
    fn frequency_derivatives(&self, x: &FilterState, drive: PfdOutput) -> [f64; 3] {
        match &self.kernels[slot(drive)] {
            Some(k) => k.derivatives(x.slots[0]),
            None => [0.0; 3],
        }
    }

    #[inline]
    fn phase_floor(&self, x: &FilterState, drive: PfdOutput, dt: f64) -> f64 {
        match &self.kernels[slot(drive)] {
            Some(k) => k.phase_floor(x.slots[0], dt),
            None => f64::NEG_INFINITY,
        }
    }

    fn encode_state(x: &FilterState) -> String {
        if x.is_empty() {
            "-".to_string()
        } else {
            x.iter().map(|v| bits_hex(*v)).collect::<Vec<_>>().join(",")
        }
    }

    fn decode_state(field: &str) -> Option<FilterState> {
        if field == "-" {
            return FilterState::from_slice(&[]);
        }
        let values: Vec<f64> = field
            .split(',')
            .map(f64_from_bits_hex)
            .collect::<Option<_>>()?;
        FilterState::from_slice(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FilterConfig;
    use crate::engine::PllEngine;
    use crate::loop_shell::tests::micro_step_path;
    use crate::stimulus::FmStimulus;

    #[test]
    fn filter_state_tokens_round_trip_one_and_two_states() {
        for values in [&[0.4][..], &[-1.25e-3, 2.5][..]] {
            let x = FilterState::from_slice(values).expect("fits inline");
            assert_eq!(&*x, values);
            let token = MicroStep::encode_state(&x);
            assert_eq!(token.split(',').count(), values.len(), "{token}");
            let back = MicroStep::decode_state(&token).expect("token decodes");
            assert_eq!(back, x);
            assert_eq!(MicroStep::encode_state(&back), token);
        }
        let three = [0.1, 0.2, 0.3].map(bits_hex).join(",");
        assert_eq!(
            MicroStep::decode_state(&three),
            None,
            "three states do not fit"
        );
        assert_eq!(FilterState::from_slice(&[0.0; 3]), None);
        assert_eq!(MicroStep::decode_state("nothex"), None);
    }

    #[test]
    fn ripple_capacitor_restore_is_bit_exact() {
        let mut cfg = PllConfig::integer_n_charge_pump();
        if let FilterConfig::SeriesRc { ref mut c2, .. } = cfg.filter {
            *c2 = Some(3.3e-9);
        }
        let mut a = CpPll::new_locked(&cfg);
        a.set_stimulus(FmStimulus::multi_tone(cfg.f_ref_hz, 100.0, 200.0, 10));
        a.advance_to(3.7e-3);
        let token = CpPll::encode_checkpoint(&a.checkpoint()).expect("noiseless state encodes");
        let mut b = CpPll::new_locked(&cfg);
        b.restore(&CpPll::decode_checkpoint(&token).expect("token decodes"));
        a.advance_to(9e-3);
        b.advance_to(9e-3);
        assert_eq!(
            CpPll::encode_checkpoint(&a.checkpoint()),
            CpPll::encode_checkpoint(&b.checkpoint())
        );
        assert_eq!(a.work_stats(), b.work_stats());
    }

    #[test]
    fn held_intervals_are_taken_whole() {
        // The work gate. A lossless filter holds between pump pulses, so
        // a locked loop commits about two segments per reference period:
        // the pulse and the held interval, each cut at its edges. A leaky
        // filter droops there, but its closed-form segment is exact at
        // any length, so it commits as few.
        let segments_per_period = |cfg: &PllConfig| {
            let mut pll = CpPll::new_locked(cfg);
            pll.advance_to(0.5);
            let stats = pll.work_stats();
            stats.steps as f64 / stats.ref_edges as f64
        };
        let lossless = PllConfig::paper_table3();
        let mut leaky = lossless.clone();
        if let FilterConfig::PassiveLag { ref mut r_leak, .. } = leaky.filter {
            *r_leak = Some(50e6);
        }
        let held = segments_per_period(&lossless);
        assert!(held <= 2.1, "lossless: {held} segments per period");
        let drooping = segments_per_period(&leaky);
        assert!(drooping <= 2.1, "leaky: {drooping} segments per period");
        // Off the kernel, the leak is micro-stepped at a quarter period.
        let micro_stepped = segments_per_period(&micro_step_path(leaky));
        assert!(
            micro_stepped >= 4.0,
            "micro-stepped leak: {micro_stepped} segments per period"
        );
    }

    #[test]
    fn kernel_does_far_less_work_than_micro_steps() {
        // The reason the kernel exists: no micro-steps where the filter
        // moves. On the paper's loop with 50 MΩ of leakage the filter
        // droops between pump pulses; the kernel takes that droop whole,
        // the micro-step formula pays a step per quarter period.
        let mut cfg = PllConfig::paper_table3();
        if let FilterConfig::PassiveLag { ref mut r_leak, .. } = cfg.filter {
            *r_leak = Some(50e6);
        }
        let mut kernel = CpPll::new_locked(&cfg);
        let mut micro = CpPll::new_locked(&micro_step_path(cfg));
        kernel.advance_to(0.5);
        micro.advance_to(0.5);
        let sk = kernel.work_stats();
        let sm = micro.work_stats();
        assert!(
            sk.steps * 2 < sm.steps,
            "the kernel should commit far fewer segments: {} vs {}",
            sk.steps,
            sm.steps
        );
        assert_eq!(sk.ref_edges, sm.ref_edges, "same physical events");
    }

    #[test]
    fn kernel_tracks_the_micro_step_formula_closely() {
        // Same loop, same stimulus law: the closed-form kernel and the
        // micro-step formula must tell the same physical story over time
        // (the micro-step trapezoid is not exact under voltage drive, and
        // feedback edges land within rounding of each other).
        let cfg = PllConfig::paper_table3();
        let mut kernel = CpPll::new_locked(&cfg);
        let mut micro = CpPll::new_locked(&micro_step_path(cfg));
        let stim = FmStimulus::pure_sine(1_000.0, 10.0, 8.0);
        kernel.set_stimulus(stim.clone());
        micro.set_stimulus(stim);
        for k in 1..=10 {
            let t = k as f64 * 0.1;
            kernel.advance_to(t);
            micro.advance_to(t);
            let pk = kernel.vco_phase_cycles();
            let pm = micro.vco_phase_cycles();
            assert!(
                (pk - pm).abs() < 1e-4 * pm.abs().max(1.0),
                "t = {t}: kernel {pk} vs micro-steps {pm} cycles"
            );
            let vk = kernel.held_control_voltage();
            let vm = micro.held_control_voltage();
            assert!(
                (vk - vm).abs() < 1e-4,
                "t = {t}: held v kernel {vk} vs micro-steps {vm}"
            );
        }
        assert_eq!(kernel.fb_edge_count(), micro.fb_edge_count());
    }

    #[test]
    fn step_scale_one_is_bitwise_neutral() {
        let cfg = PllConfig::paper_table3();
        let mut a = CpPll::new_locked(&cfg);
        let mut b = CpPll::new_locked(&cfg);
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
        // on closed-form segments: a shrunken scale forces more, shorter
        // committed segments without moving the physics. A leaky filter
        // keeps the cap between pump pulses (a lossless one holds there,
        // uncapped at any scale).
        let mut cfg = PllConfig::paper_table3();
        if let FilterConfig::PassiveLag { ref mut r_leak, .. } = cfg.filter {
            *r_leak = Some(50e6);
        }
        let mut coarse = CpPll::new_locked(&cfg);
        let mut fine = CpPll::new_locked(&cfg);
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
            let mut pll = CpPll::new_locked(&cfg);
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
        let mut kernels: Vec<(MicroStep, f64, f64, f64)> = configs
            .iter()
            .map(|cfg| {
                let (integ, lock) = MicroStep::locked(cfg);
                let k = *integ.kernel(PfdOutput::Off).expect("in class");
                let hz_per_unit = k.frequency(lock[0] + 1.0) - k.frequency(lock[0]);
                let cap = KERNEL_PERIODS / cfg.f_ref_hz;
                (integ, lock[0], hz_per_unit, cap)
            })
            .collect();
        prop_check!(cases: 4096, |g| {
            let pick = g.usize_range(0, kernels.len());
            let (integ, lock, hz_per_unit, cap) = &mut kernels[pick];
            let drive = g.pick(&[PfdOutput::Up, PfdOutput::Down, PfdOutput::Off]);
            // Up to 5 % of the VCO frequency off lock.
            let f_lock = integ.frequency(&FilterState::of(&[*lock]), PfdOutput::Off);
            let df = 0.05 * f_lock * g.f64_range(-1.0, 1.0);
            let x = FilterState::of(&[*lock + df / *hz_per_unit]);
            let dt = (g.f64_range(1e-9f64.ln(), cap.ln())).exp().min(*cap);
            let floor = integ.phase_floor(&x, drive, dt);
            let dphase = integ.advance(&x, drive, dt).dphase;
            prop_assert!(
                floor <= dphase,
                "{drive:?} x {x:?} dt {dt:e}: floor {floor} > advance {dphase}"
            );
            // The shell's skip decision against the trial's own
            // comparison, at a feedback target within rounding of the
            // segment's end.
            let vco = g.f64_range(0.0, 1e6);
            let next_target = vco + dphase * (1.0 + g.f64_range(-1e-12, 1e-12));
            prop_assert!(
                vco + floor < next_target || vco + dphase >= next_target,
                "{drive:?} x {x:?} dt {dt:e}: skipped a trial that does not cross"
            );
            Ok(())
        });
    }

    #[test]
    fn cold_start_acquires_lock() {
        let cfg = PllConfig::paper_table3();
        let mut pll = CpPll::new(&cfg);
        // Acquisition: slew of the big lag filter plus a few loop time
        // constants.
        pll.advance_to(3.0);
        let f = pll.average_frequency_hz(0.2);
        assert!((f - 5_000.0).abs() < 10.0, "f = {f}");
    }

    #[test]
    fn cold_start_below_zero_hertz_takes_the_clamped_formula() {
        // With six times the VCO gain, the discharged filter's linear
        // frequency law starts below 0 Hz, where the VCO clamps: those
        // segments take the micro-step formula on the clamped tuning
        // curve, and the loop still pulls in.
        let mut cfg = PllConfig::paper_table3();
        cfg.vco_gain_scale = 6.0;
        let filter = cfg.build_filter();
        let x0 = filter.initial_state()[0];
        let integ = MicroStep::new(&cfg, filter);
        let k = integ.kernel(PfdOutput::Up).expect("in class");
        assert!(k.frequency(x0) < 0.0, "starts below 0 Hz");
        let mut pll = CpPll::new(&cfg);
        pll.advance_to(3.0);
        let f = pll.average_frequency_hz(0.2);
        assert!((f - 5_000.0).abs() < 10.0, "f = {f}");
    }

    #[test]
    fn step_response_overshoot_matches_damping() {
        // ζ = 0.43 → a clear overshoot on a frequency step.
        let cfg = PllConfig::paper_table3();
        let mut pll = CpPll::new_locked(&cfg);
        pll.advance_to(0.2);
        pll.enable_sampling(5e-3);
        pll.set_stimulus(FmStimulus::constant(1_000.0, 8.0));
        pll.advance_to(1.2);
        let samples = pll.take_samples();
        // Boxcar frequency between samples (ripple-free, counter-style).
        let peak = samples
            .windows(2)
            .map(|w| (w[1].phase_cycles - w[0].phase_cycles) / (w[1].t - w[0].t))
            .fold(f64::MIN, f64::max);
        let overshoot = (peak - 5_040.0) / 40.0;
        // 2nd-order-with-zero step overshoot for ζ=0.43 is roughly 25–60 %.
        assert!(
            overshoot > 0.15 && overshoot < 0.7,
            "overshoot = {overshoot}"
        );
    }
}
