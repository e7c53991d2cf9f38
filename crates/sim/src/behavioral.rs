//! The micro-stepped behavioural CP-PLL engine: the general path.
//!
//! [`CpPll`] is the [`LoopShell`] over [`MicroStep`]: the loop filter's
//! full state vector is stepped *exactly* over each constant-drive
//! segment (see `pllbist-analog::lti`), the VCO phase is accumulated by
//! trapezoidal integration of the instantaneous frequency (exact when the
//! control voltage is linear in time, ~1e-15-cycle error otherwise) over
//! micro-steps of at most a quarter reference period wherever the filter
//! moves, and feedback edges are located by the shell's safeguarded
//! Newton solver on that phase. It handles every configuration — ripple
//! capacitors, VCO curvature and clamping, cold-start acquisition.
//!
//! Between pump pulses the tri-state PFD leaves a lossless filter at high
//! impedance, where it holds exactly: the state keeps its bits, the VCO
//! frequency is constant (curvature and clamp included) and the
//! trapezoid is exact at any length. [`MicroStep`] takes such a held
//! interval as one segment, bounded only by the edges, the dead-zone
//! expiry, samples and the horizon — in lock about two committed segments
//! per reference period instead of five. A leaky or ripple-capacitor
//! filter, and every pump-on drive, keep the quarter-period cap.
//!
//! The filter state rides inline in a [`FilterState`] (one slot, or two
//! with a ripple capacitor), and the filter steps it in place, so a
//! micro-step advance never touches the heap.
//!
//! The loop itself (PFD, hold, edges, instrumentation, checkpointing)
//! lives in [`crate::loop_shell`]; the shared types are re-exported here
//! under their historical paths.

use crate::campaign::{bits_hex, f64_from_bits_hex};
use crate::config::PllConfig;
use crate::loop_shell::{drive_of, lock_state, slot, Integrator, LoopShell, LoopState, Segment};
use pllbist_analog::filter::LoopFilter;
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

/// The micro-stepping [`Integrator`]: any [`LoopFilter`], any VCO
/// tuning curve.
pub struct MicroStep {
    filter: Box<dyn LoopFilter>,
    vco: Vco,
    /// Pump outputs indexed by [`slot`]: Up, Down, Off.
    drives: [PumpOutput; 3],
}

/// Micro-step bound where the filter moves: numerical insurance for the
/// trapezoid, in reference periods.
const MICRO_STEP_PERIODS: f64 = 0.25;

impl MicroStep {
    fn new(config: &PllConfig, filter: Box<dyn LoopFilter>) -> Self {
        Self {
            filter,
            vco: config.build_vco(),
            drives: [PfdOutput::Up, PfdOutput::Down, PfdOutput::Off].map(|s| drive_of(config, s)),
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
    const BACKEND: &'static str = "cp_pll";
    const TOKEN_PREFIX: &'static str = "cp:";

    /// A quarter period where the filter moves under `drive`; infinite
    /// where it holds, since a held state keeps its bits, the VCO
    /// frequency is then constant and the trapezoid exact at any length.
    /// The filter holds when its scalar reduction `x′ = a·x + b` has
    /// `a == 0` and `b == 0` (exact comparisons; `-0.0` counts as zero):
    /// the high-impedance drive of a lossless filter. A leak (`a ≠ 0`), a
    /// ripple capacitor (no scalar reduction) and every pump-on drive
    /// keep the cap. The shell asks once per drive when it is built or
    /// its step scale changes.
    fn segment_cap_periods(&self, drive: PfdOutput) -> f64 {
        let holds = self
            .filter
            .affine_segment(self.drives[slot(drive)])
            .is_some_and(|seg| seg.a == 0.0 && seg.b == 0.0);
        if holds {
            f64::INFINITY
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
        self.filter.output(x, self.drives[slot(drive)])
    }

    #[inline]
    fn frequency(&self, x: &FilterState, drive: PfdOutput) -> f64 {
        self.vco.frequency_hz(self.output(x, drive))
    }

    #[inline]
    fn advance(&mut self, x: &FilterState, drive: PfdOutput, dt: f64) -> Segment<FilterState> {
        let mut end = *x;
        self.filter.step(&mut end, self.drives[slot(drive)], dt);
        let f0 = self.frequency(x, drive);
        let f1 = self.frequency(&end, drive);
        Segment {
            dt,
            dphase: 0.5 * (f0 + f1) * dt,
            end,
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
        // filter droops there, and every interval is micro-stepped.
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
        let moving = segments_per_period(&leaky);
        assert!(moving >= 4.0, "leaky: {moving} segments per period");
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
