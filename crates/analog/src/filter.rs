//! Loop filters as exactly-stepped linear systems.
//!
//! Three families cover the paper and the wider CP-PLL design space:
//!
//! * [`PassiveLag`] — the paper's fig. 9 network: drive —R1— output node
//!   —R2—C— ground, giving `F(s) = (1+s·τ2)/(1+s·(τ1+τ2))` (eq. 3) with
//!   τ1 = R1·C, τ2 = R2·C. Voltage-driven, holds its state in the
//!   tri-state (high-Z) interval — the property the paper's hold circuit
//!   exploits.
//! * [`SeriesRc`] — the classic charge-pump filter (series R–C, optional
//!   ripple capacitor C2): `F(s) = (1+s·R·C1)/(s·C1)` per ampere.
//! * [`ActivePi`] — op-amp PI: `F(s) = (1+s·τ2)/(s·τ1)`.
//!
//! Between digital events the drive is constant, so each step is an exact
//! matrix-exponential update — there is no integration error in the filter
//! regardless of segment length. An optional **leakage resistance** models
//! the defect the fault campaign injects.

use crate::pump::PumpOutput;
use pllbist_numeric::matrix::Matrix;
use pllbist_numeric::statespace::StateSpace;
use pllbist_numeric::tf::TransferFunction;

use crate::lti::CachedZoh;

/// Whether a filter expects a voltage or a current drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputKind {
    /// Driven by a stiff voltage (4046-style comparator output).
    Voltage,
    /// Driven by a signed current (charge pump).
    Current,
}

/// A loop filter that can be stepped exactly over constant-drive segments.
///
/// Implementations keep their electrical state in a caller-owned slice
/// (built by [`LoopFilter::initial_state`]) so one filter definition can
/// serve many concurrent simulations, and stepping never allocates.
pub trait LoopFilter: Send {
    /// The drive kind this filter accepts.
    fn input_kind(&self) -> InputKind;

    /// A fresh all-discharged state vector.
    fn initial_state(&self) -> Vec<f64>;

    /// Presets the state so the control output equals `v` at rest (used to
    /// start simulations at the lock point instead of waiting out the
    /// acquisition transient).
    fn preset_output(&self, state: &mut [f64], v: f64);

    /// Advances `state` by `dt` seconds with the drive held constant.
    ///
    /// # Panics
    ///
    /// Panics if the drive kind does not match [`LoopFilter::input_kind`]
    /// or `dt` is not positive and finite.
    fn step(&mut self, state: &mut [f64], input: PumpOutput, dt: f64);

    /// The control voltage for the given state and present drive.
    fn output(&self, state: &[f64], input: PumpOutput) -> f64;

    /// Small-signal transfer function from drive (V or A) to control
    /// voltage.
    fn transfer_function(&self) -> TransferFunction;

    /// Small-signal transfer function from drive to the **held** control
    /// voltage — the output observed once the drive goes high-impedance.
    ///
    /// For networks whose stabilising zero is a resistive feed-through
    /// (the paper's fig. 9 lag, the series-RC charge-pump filter), the
    /// zero path vanishes in hold: only the capacitor state survives.
    /// This is what the hold-and-count BIST reads, and it differs from
    /// [`LoopFilter::transfer_function`] precisely by the zero factor.
    fn hold_transfer_function(&self) -> TransferFunction;

    /// The filter reduced to a scalar [`AffineSegment`] under the given
    /// constant drive, when it has exactly one electrical state.
    ///
    /// Event-driven engines use this to propagate the loop between PFD
    /// switching events in closed form. Filters with more than one state
    /// (e.g. a ripple capacitor fitted) return `None` and must be run
    /// through [`LoopFilter::step`] instead.
    ///
    /// The reduction must be consistent with the vector path: for a
    /// one-state filter, `seg.state_after(state[0], dt)` equals
    /// [`step`](LoopFilter::step) and `seg.output(state[0])` equals
    /// [`output`](LoopFilter::output) under the same drive.
    ///
    /// # Panics
    ///
    /// Panics if the drive kind does not match
    /// [`LoopFilter::input_kind`].
    fn affine_segment(&self, _input: PumpOutput) -> Option<AffineSegment> {
        None
    }
}

fn assert_dt(dt: f64) {
    assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
}

/// First-order affine step `x ← x∞ + (x − x∞)·e^{a·dt}` with
/// `x∞ = −b·u/a`; handles the pure-integrator limit `a = 0`.
fn affine_step(x: f64, a: f64, b: f64, u: f64, dt: f64) -> f64 {
    if a == 0.0 {
        return x + b * u * dt;
    }
    let xinf = -b * u / a;
    xinf + (x - xinf) * (a * dt).exp()
}

/// One constant-drive interval of a first-order filter, reduced to the
/// scalar affine ODE `x′ = a·x + b` with output `v = c·x + d` (the drive
/// value is already folded into `b` and `d`).
///
/// This is the closed-form kernel event-driven engines integrate over: no
/// state vector, no trait dispatch — just the exponential. All three
/// evaluators are **exact** (to rounding) for any segment length, which is
/// what makes per-event advancement possible: between two PFD switching
/// events nothing about the drive changes, so one [`state_after`] call
/// replaces an arbitrary number of micro-steps.
///
/// [`state_after`]: AffineSegment::state_after
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AffineSegment {
    /// State feedback coefficient in 1/s (`0` for a pure integrator).
    pub a: f64,
    /// Constant state forcing in state-units/s, drive included.
    pub b: f64,
    /// Output weight on the state.
    pub c: f64,
    /// Constant output offset, drive included.
    pub d: f64,
}

impl AffineSegment {
    /// The filter output for state `x` under this segment's drive.
    pub fn output(&self, x: f64) -> f64 {
        self.c * x + self.d
    }

    /// The state after `dt` seconds: `x∞ + (x − x∞)·e^{a·dt}` with
    /// `x∞ = −b/a`, or `x + b·dt` in the integrator limit. Exact for any
    /// `dt`.
    pub fn state_after(&self, x: f64, dt: f64) -> f64 {
        if self.a == 0.0 {
            return x + self.b * dt;
        }
        let xinf = -self.b / self.a;
        xinf + (x - xinf) * (self.a * dt).exp()
    }

    /// The exact time integral `∫₀^dt x(s) ds` of the state trajectory
    /// starting from `x` — what an event engine needs to accumulate VCO
    /// phase in closed form.
    pub fn state_integral(&self, x: f64, dt: f64) -> f64 {
        if self.a == 0.0 {
            return x * dt + 0.5 * self.b * dt * dt;
        }
        let xinf = -self.b / self.a;
        xinf * dt + (x - xinf) * ((self.a * dt).exp() - 1.0) / self.a
    }

    /// `(state_after, state_integral)` from one shared exponential — the
    /// edge-crossing solver of an event engine evaluates both per Newton
    /// candidate, and the exponential is the entire per-iteration cost.
    pub fn state_and_integral(&self, x: f64, dt: f64) -> (f64, f64) {
        if self.a == 0.0 {
            return (x + self.b * dt, x * dt + 0.5 * self.b * dt * dt);
        }
        let xinf = -self.b / self.a;
        let growth = (self.a * dt).exp();
        (
            xinf + (x - xinf) * growth,
            xinf * dt + (x - xinf) * (growth - 1.0) / self.a,
        )
    }
}

// ---------------------------------------------------------------------------
// Passive lag (paper fig. 9)
// ---------------------------------------------------------------------------

/// The paper's passive lag network (fig. 9 / eq. 3).
#[derive(Clone, Debug, PartialEq)]
pub struct PassiveLag {
    r1: f64,
    r2: f64,
    c: f64,
    r_leak: Option<f64>,
    // Precomputed affine coefficients: vc' = a·vc + b·u, vA = cv·vc + dv·u.
    drive: LagCoeffs,
    high_z: LagCoeffs,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct LagCoeffs {
    a: f64,
    b: f64,
    cv: f64,
    dv: f64,
}

impl PassiveLag {
    /// Creates the network with `r1`, `r2` in ohms and `c` in farads.
    ///
    /// # Panics
    ///
    /// Panics if any element is not positive and finite.
    pub fn new(r1: f64, r2: f64, c: f64) -> Self {
        Self::with_leakage(r1, r2, c, None)
    }

    /// Creates the network with an optional leakage resistance from the
    /// output node to ground (the "leaky capacitor" defect).
    ///
    /// # Panics
    ///
    /// Panics if any element is not positive and finite.
    pub fn with_leakage(r1: f64, r2: f64, c: f64, r_leak: Option<f64>) -> Self {
        for (name, v) in [("r1", r1), ("r2", r2), ("c", c)] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite"
            );
        }
        if let Some(rl) = r_leak {
            assert!(
                rl > 0.0 && rl.is_finite(),
                "r_leak must be positive and finite"
            );
        }
        let g_leak = r_leak.map_or(0.0, |rl| 1.0 / rl);
        // Driven: node A fed by u through r1, by vc through r2, leak to gnd.
        let g_drive = 1.0 / r1 + 1.0 / r2 + g_leak;
        let drive = LagCoeffs {
            a: (1.0 / (r2 * g_drive) - 1.0) / (r2 * c),
            b: 1.0 / (r1 * g_drive * r2 * c),
            cv: 1.0 / (r2 * g_drive),
            dv: 1.0 / (r1 * g_drive),
        };
        // High-Z: r1 branch removed, so r2·g = 1 + r2·g_leak = k. Written
        // in k directly, the coefficients are exact without leakage
        // (a = 0, cv = 1); the form 1/(r2·(1/r2)) − 1 leaves a ±1e-14
        // residue for some R2, which turns a pure hold into a fast
        // exponential.
        let k = 1.0 + r2 * g_leak;
        let high_z = LagCoeffs {
            a: -g_leak / (k * c),
            b: 0.0,
            cv: 1.0 / k,
            dv: 0.0,
        };
        Self {
            r1,
            r2,
            c,
            r_leak,
            drive,
            high_z,
        }
    }

    /// τ1 = R1·C.
    pub fn tau1(&self) -> f64 {
        self.r1 * self.c
    }

    /// τ2 = R2·C.
    pub fn tau2(&self) -> f64 {
        self.r2 * self.c
    }

    fn coeffs(&self, input: PumpOutput) -> (LagCoeffs, f64) {
        match input {
            PumpOutput::Voltage(u) => (self.drive, u),
            PumpOutput::HighZ => (self.high_z, 0.0),
            PumpOutput::Current(_) => {
                panic!("PassiveLag is voltage-driven; wire it to a VoltageDriver")
            }
        }
    }
}

impl LoopFilter for PassiveLag {
    fn input_kind(&self) -> InputKind {
        InputKind::Voltage
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0]
    }

    fn preset_output(&self, state: &mut [f64], v: f64) {
        // At rest (high-Z, fully settled) the output equals vc when there is
        // no leak; with leak the high-Z divider applies.
        state[0] = v / self.high_z.cv;
    }

    fn step(&mut self, state: &mut [f64], input: PumpOutput, dt: f64) {
        assert_dt(dt);
        let (k, u) = self.coeffs(input);
        state[0] = affine_step(state[0], k.a, k.b, u, dt);
    }

    fn output(&self, state: &[f64], input: PumpOutput) -> f64 {
        let (k, u) = self.coeffs(input);
        k.cv * state[0] + k.dv * u
    }

    fn transfer_function(&self) -> TransferFunction {
        // From (a, b, cv, dv): H(s) = dv + cv·b/(s − a)
        //                          = (dv·s + (cv·b − dv·a)) / (s − a).
        let k = self.drive;
        TransferFunction::new([k.cv * k.b - k.dv * k.a, k.dv], [-k.a, 1.0])
    }

    fn hold_transfer_function(&self) -> TransferFunction {
        // Capacitor state through the high-Z output divider: no direct
        // feed-through term.
        let b = self.drive.b;
        let a = self.drive.a;
        let cv_hold = self.high_z.cv;
        TransferFunction::new([cv_hold * b], [-a, 1.0])
    }

    fn affine_segment(&self, input: PumpOutput) -> Option<AffineSegment> {
        let (k, u) = self.coeffs(input);
        Some(AffineSegment {
            a: k.a,
            b: k.b * u,
            c: k.cv,
            d: k.dv * u,
        })
    }
}

// ---------------------------------------------------------------------------
// Series RC charge-pump filter
// ---------------------------------------------------------------------------

/// Classic charge-pump filter: series R–C1 to ground, optional ripple
/// capacitor C2 across the output, optional leakage resistance.
#[derive(Debug)]
pub struct SeriesRc {
    r: f64,
    c1: f64,
    r_leak: Option<f64>,
    /// Exact stepper for the 2-state (C2 present) case.
    zoh: Option<CachedZoh>,
    // 1-state affine coefficients (C2 absent): v1' = a·v1 + b·i,
    // v = cv·v1 + dv·i.
    a: f64,
    b: f64,
    cv: f64,
    dv: f64,
}

impl SeriesRc {
    /// Creates the filter with `r` in ohms and `c1` in farads.
    ///
    /// # Panics
    ///
    /// Panics if any element is not positive and finite.
    pub fn new(r: f64, c1: f64) -> Self {
        Self::with_options(r, c1, None, None)
    }

    /// Creates the filter with an optional ripple capacitor and leakage.
    ///
    /// # Panics
    ///
    /// Panics if any element is not positive and finite.
    pub fn with_options(r: f64, c1: f64, c2: Option<f64>, r_leak: Option<f64>) -> Self {
        for (name, v) in [("r", r), ("c1", c1)] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite"
            );
        }
        if let Some(x) = c2 {
            assert!(x > 0.0 && x.is_finite(), "c2 must be positive and finite");
        }
        if let Some(x) = r_leak {
            assert!(
                x > 0.0 && x.is_finite(),
                "r_leak must be positive and finite"
            );
        }
        let (a, b, cv, dv) = match r_leak {
            None => (0.0, 1.0 / c1, 1.0, r),
            Some(rl) => {
                // Node: i = v/rl + (v − v1)/r  →  v = (i + v1/r)·r∥rl… see
                // derivation in DESIGN.md §5.
                let k = r * rl / (r + rl);
                (
                    (rl / (r + rl) - 1.0) / (r * c1),
                    rl / ((r + rl) * c1),
                    rl / (r + rl),
                    k,
                )
            }
        };
        let zoh = c2.map(|c2v| {
            let g_leak = r_leak.map_or(0.0, |rl| 1.0 / rl);
            // States [v1 (C1), v2 (output node, C2)]:
            //   c1·v1' = (v2 − v1)/r
            //   c2·v2' = i − v2·g_leak − (v2 − v1)/r
            let a_m = Matrix::from_rows(&[
                &[-1.0 / (r * c1), 1.0 / (r * c1)],
                &[1.0 / (r * c2v), -1.0 / (r * c2v) - g_leak / c2v],
            ]);
            let b_m = Matrix::column(&[0.0, 1.0 / c2v]);
            let c_m = Matrix::row(&[0.0, 1.0]);
            CachedZoh::new(StateSpace::new(a_m, b_m, c_m, 0.0))
        });
        Self {
            r,
            c1,
            r_leak,
            zoh,
            a,
            b,
            cv,
            dv,
        }
    }

    /// The stabilising zero time constant τ2 = R·C1.
    pub fn tau2(&self) -> f64 {
        self.r * self.c1
    }

    fn current(input: PumpOutput) -> f64 {
        match input {
            PumpOutput::Current(i) => i,
            PumpOutput::HighZ => 0.0,
            PumpOutput::Voltage(_) => {
                panic!("SeriesRc is current-driven; wire it to a ChargePump")
            }
        }
    }
}

impl LoopFilter for SeriesRc {
    fn input_kind(&self) -> InputKind {
        InputKind::Current
    }

    fn initial_state(&self) -> Vec<f64> {
        if self.zoh.is_some() {
            vec![0.0; 2]
        } else {
            vec![0.0]
        }
    }

    fn preset_output(&self, state: &mut [f64], v: f64) {
        match &self.zoh {
            Some(_) => {
                state[0] = v;
                state[1] = v;
            }
            None => state[0] = v / self.cv,
        }
    }

    fn step(&mut self, state: &mut [f64], input: PumpOutput, dt: f64) {
        assert_dt(dt);
        let i = Self::current(input);
        match &mut self.zoh {
            Some(z) => z.step(state, i, dt),
            None => state[0] = affine_step(state[0], self.a, self.b, i, dt),
        }
    }

    fn output(&self, state: &[f64], input: PumpOutput) -> f64 {
        let i = Self::current(input);
        match &self.zoh {
            Some(z) => z.output(state, i),
            None => self.cv * state[0] + self.dv * i,
        }
    }

    fn transfer_function(&self) -> TransferFunction {
        match (&self.zoh, self.r_leak) {
            (Some(z), _) => z.system().to_transfer_function(),
            (None, None) => {
                // (1 + s·R·C1)/(s·C1)
                TransferFunction::new([1.0, self.r * self.c1], [0.0, self.c1])
            }
            (None, Some(_)) => TransferFunction::new(
                [self.cv * self.b - self.dv * self.a, self.dv],
                [-self.a, 1.0],
            ),
        }
    }

    fn hold_transfer_function(&self) -> TransferFunction {
        match (&self.zoh, self.r_leak) {
            // With a ripple capacitor the output node is itself a state:
            // the held readout equals the ordinary transfer function.
            (Some(z), _) => z.system().to_transfer_function(),
            // Otherwise the IR feed-through dies with the drive: 1/(s·C1).
            (None, None) => TransferFunction::new([1.0], [0.0, self.c1]),
            (None, Some(_)) => TransferFunction::new([self.cv * self.b], [-self.a, 1.0]),
        }
    }

    fn affine_segment(&self, input: PumpOutput) -> Option<AffineSegment> {
        if self.zoh.is_some() {
            // The ripple capacitor makes the filter second-order: no
            // scalar reduction exists.
            return None;
        }
        let i = Self::current(input);
        Some(AffineSegment {
            a: self.a,
            b: self.b * i,
            c: self.cv,
            d: self.dv * i,
        })
    }
}

// ---------------------------------------------------------------------------
// Active PI
// ---------------------------------------------------------------------------

/// Op-amp proportional–integral filter `F(s) = (1 + s·τ2)/(s·τ1)`.
#[derive(Clone, Debug, PartialEq)]
pub struct ActivePi {
    tau1: f64,
    tau2: f64,
}

impl ActivePi {
    /// Creates the PI filter from its time constants.
    ///
    /// # Panics
    ///
    /// Panics if either time constant is not positive and finite.
    pub fn new(tau1: f64, tau2: f64) -> Self {
        for (name, v) in [("tau1", tau1), ("tau2", tau2)] {
            assert!(
                v > 0.0 && v.is_finite(),
                "{name} must be positive and finite"
            );
        }
        Self { tau1, tau2 }
    }

    /// Integrator time constant τ1.
    pub fn tau1(&self) -> f64 {
        self.tau1
    }

    /// Zero time constant τ2.
    pub fn tau2(&self) -> f64 {
        self.tau2
    }

    fn voltage(input: PumpOutput) -> f64 {
        match input {
            PumpOutput::Voltage(u) => u,
            PumpOutput::HighZ => 0.0,
            PumpOutput::Current(_) => {
                panic!("ActivePi is voltage-driven; wire it to a VoltageDriver")
            }
        }
    }
}

impl LoopFilter for ActivePi {
    fn input_kind(&self) -> InputKind {
        InputKind::Voltage
    }

    fn initial_state(&self) -> Vec<f64> {
        vec![0.0]
    }

    fn preset_output(&self, state: &mut [f64], v: f64) {
        state[0] = v;
    }

    fn step(&mut self, state: &mut [f64], input: PumpOutput, dt: f64) {
        assert_dt(dt);
        let u = Self::voltage(input);
        state[0] += u / self.tau1 * dt; // ideal integrator: exact
    }

    fn output(&self, state: &[f64], input: PumpOutput) -> f64 {
        state[0] + Self::voltage(input) * self.tau2 / self.tau1
    }

    fn transfer_function(&self) -> TransferFunction {
        TransferFunction::new([1.0, self.tau2], [0.0, self.tau1])
    }

    fn hold_transfer_function(&self) -> TransferFunction {
        // The op-amp integrator holds its state; the proportional branch
        // (feed-through) vanishes with the drive.
        TransferFunction::new([1.0], [0.0, self.tau1])
    }

    fn affine_segment(&self, input: PumpOutput) -> Option<AffineSegment> {
        let u = Self::voltage(input);
        Some(AffineSegment {
            a: 0.0,
            b: u / self.tau1,
            c: 1.0,
            d: u * self.tau2 / self.tau1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const R1: f64 = 1.362e6;
    const R2: f64 = 253e3;
    const C: f64 = 47e-9;

    #[test]
    fn passive_lag_matches_eq3() {
        let f = PassiveLag::new(R1, R2, C);
        let tf = f.transfer_function();
        let (t1, t2) = (f.tau1(), f.tau2());
        let want = TransferFunction::new([1.0, t2], [1.0, t1 + t2]);
        for w in [0.1, 1.0, 13.0, 100.0, 1e4] {
            let a = tf.eval_jw(w);
            let b = want.eval_jw(w);
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0), "w={w}");
        }
    }

    #[test]
    fn passive_lag_step_response_matches_analytic() {
        let mut f = PassiveLag::new(R1, R2, C);
        let mut x = f.initial_state();
        let tau = f.tau1() + f.tau2();
        let u = PumpOutput::Voltage(5.0);
        let mut t = 0.0;
        for _ in 0..50 {
            f.step(&mut x, u, 2e-3);
            t += 2e-3;
            // vc(t) = 5(1 − e^{−t/τ}); output adds the resistive divider.
            let vc = 5.0 * (1.0 - (-t / tau).exp());
            let va = vc + (5.0 - vc) * R2 / (R1 + R2);
            assert!((f.output(&x, u) - va).abs() < 1e-10, "t={t}");
        }
    }

    #[test]
    fn passive_lag_high_z_holds() {
        let mut f = PassiveLag::new(R1, R2, C);
        let mut x = f.initial_state();
        f.preset_output(&mut x, 2.5);
        assert!((f.output(&x, PumpOutput::HighZ) - 2.5).abs() < 1e-12);
        // Hold for a long time: unchanged without leakage.
        f.step(&mut x, PumpOutput::HighZ, 10.0);
        assert!((f.output(&x, PumpOutput::HighZ) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn passive_lag_high_z_is_an_exact_hold_for_every_r2() {
        for k in 0..=400 {
            let r2 = R2 * (0.9 + 0.2 * k as f64 / 400.0);
            let seg = PassiveLag::new(R1, r2, C)
                .affine_segment(PumpOutput::HighZ)
                .expect("first-order");
            assert_eq!((seg.a, seg.c), (0.0, 1.0), "r2 = {r2}");
        }
    }

    #[test]
    fn passive_lag_leakage_droops_in_high_z() {
        let r_leak = 10e6;
        let mut f = PassiveLag::with_leakage(R1, R2, C, Some(r_leak));
        let mut x = f.initial_state();
        x[0] = 2.5;
        let v0 = f.output(&x, PumpOutput::HighZ);
        let tau = (R2 + r_leak) * C; // ≈ 0.48 s
        f.step(&mut x, PumpOutput::HighZ, tau);
        let v1 = f.output(&x, PumpOutput::HighZ);
        assert!((v1 / v0 - (-1.0f64).exp()).abs() < 1e-6, "decayed to {v1}");
    }

    #[test]
    fn passive_lag_leakage_reduces_dc_gain() {
        let f = PassiveLag::with_leakage(R1, R2, C, Some(1e6));
        let dc = f.transfer_function().dc_gain();
        // Divider r_leak/(r1 + r_leak) with τ2 branch open at DC.
        assert!((dc - 1e6 / (R1 + 1e6)).abs() < 1e-9);
        let healthy = PassiveLag::new(R1, R2, C);
        assert!((healthy.transfer_function().dc_gain() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "voltage-driven")]
    fn passive_lag_rejects_current() {
        let mut f = PassiveLag::new(R1, R2, C);
        let mut x = f.initial_state();
        f.step(&mut x, PumpOutput::Current(1e-6), 1e-3);
    }

    #[test]
    fn series_rc_integrates_current() {
        let mut f = SeriesRc::new(10e3, 100e-9);
        let mut x = f.initial_state();
        // 10 µA for 1 ms into 100 nF → ΔV = 0.1 V on C1, plus IR = 0.1 V.
        f.step(&mut x, PumpOutput::Current(10e-6), 1e-3);
        let v = f.output(&x, PumpOutput::Current(10e-6));
        assert!((v - 0.2).abs() < 1e-12, "v={v}");
        // Off: IR term vanishes, cap holds.
        let v_off = f.output(&x, PumpOutput::Current(0.0));
        assert!((v_off - 0.1).abs() < 1e-12);
    }

    #[test]
    fn series_rc_transfer_function() {
        let f = SeriesRc::new(10e3, 100e-9);
        let tf = f.transfer_function();
        let w = 1234.0;
        let want = TransferFunction::new([1.0, 1e-3], [0.0, 100e-9]).eval_jw(w);
        assert!((tf.eval_jw(w) - want).abs() < 1e-6 * want.abs());
    }

    #[test]
    fn series_rc_with_ripple_cap_matches_reduced_model_at_low_freq() {
        let f2 = SeriesRc::with_options(10e3, 100e-9, Some(1e-9), None);
        let f1 = SeriesRc::new(10e3, 100e-9);
        let (t2, t1) = (f2.transfer_function(), f1.transfer_function());
        // Well below the C2 pole the two agree.
        for w in [1.0, 10.0, 100.0] {
            let a = t2.eval_jw(w);
            let b = t1.eval_jw(w);
            assert!((a - b).abs() / b.abs() < 1e-2, "w={w}");
        }
        // Far above it, C2 shunts and magnitudes diverge.
        let wa = 1e7;
        assert!(t2.magnitude(wa) < 0.5 * t1.magnitude(wa));
    }

    #[test]
    fn series_rc_ripple_cap_step_is_exact_vs_rk4() {
        let mut f = SeriesRc::with_options(5e3, 220e-9, Some(22e-9), None);
        let mut x = f.initial_state();
        let i = 25e-6;
        for _ in 0..200 {
            f.step(&mut x, PumpOutput::Current(i), 13e-6);
        }
        // Independent dense RK4 on the same ODE.
        let (r, c1, c2) = (5e3, 220e-9, 22e-9);
        let y = pllbist_numeric::ode::rk4_integrate(
            vec![0.0, 0.0],
            0.0,
            200.0 * 13e-6,
            20_000,
            |_, s, ds| {
                ds[0] = (s[1] - s[0]) / (r * c1);
                ds[1] = (i - (s[1] - s[0]) / r) / c2;
            },
        );
        assert!((x[0] - y[0]).abs() < 1e-7, "{} vs {}", x[0], y[0]);
        assert!((x[1] - y[1]).abs() < 1e-7, "{} vs {}", x[1], y[1]);
    }

    #[test]
    fn series_rc_leakage_limits_dc() {
        let f = SeriesRc::with_options(10e3, 100e-9, None, Some(1e9));
        // Pole moves off the origin: finite DC gain i→v of r_leak.
        let dc = f.transfer_function().dc_gain();
        assert!((dc - 1e9).abs() / 1e9 < 1e-9);
    }

    #[test]
    fn series_rc_preset_round_trip() {
        let filters: Vec<SeriesRc> = vec![
            SeriesRc::new(1e3, 1e-6),
            SeriesRc::with_options(1e3, 1e-6, Some(1e-8), None),
        ];
        for mut f in filters {
            let mut x = f.initial_state();
            f.preset_output(&mut x, 1.8);
            assert!((f.output(&x, PumpOutput::Current(0.0)) - 1.8).abs() < 1e-12);
            let _ = &mut f;
        }
    }

    #[test]
    fn active_pi_integrates_and_feeds_through() {
        let mut f = ActivePi::new(1e-3, 1e-4);
        let mut x = f.initial_state();
        f.step(&mut x, PumpOutput::Voltage(2.0), 1e-3);
        // Integral: 2 V · 1 ms / 1 ms = 2 V; feed-through 2·0.1 = 0.2.
        let v = f.output(&x, PumpOutput::Voltage(2.0));
        assert!((v - 2.2).abs() < 1e-12);
        assert_eq!(f.input_kind(), InputKind::Voltage);
        let tf = f.transfer_function();
        assert!((tf.eval_jw(1e4).abs() - ((1.0f64 + 1.0).sqrt() / 10.0)).abs() < 1e-9);
    }

    /// Drives a one-state filter through both integration paths — the
    /// vector `step`/`output` path and the scalar [`AffineSegment`]
    /// reduction — and asserts they agree bit for bit.
    fn assert_segment_consistent(f: &mut dyn LoopFilter, drives: &[PumpOutput], dt: f64) {
        let mut state = f.initial_state();
        assert_eq!(state.len(), 1, "consistency check needs a scalar state");
        f.preset_output(&mut state, 1.7);
        let mut x = state[0];
        for &u in drives {
            let seg = f.affine_segment(u).expect("one-state filter reduces");
            assert_eq!(seg.output(x).to_bits(), f.output(&state, u).to_bits());
            f.step(&mut state, u, dt);
            x = seg.state_after(x, dt);
            assert_eq!(x.to_bits(), state[0].to_bits(), "state diverged");
        }
    }

    #[test]
    fn affine_segment_matches_vector_path_bit_for_bit() {
        let mut lag = PassiveLag::with_leakage(R1, R2, C, Some(10e6));
        assert_segment_consistent(
            &mut lag,
            &[
                PumpOutput::Voltage(5.0),
                PumpOutput::HighZ,
                PumpOutput::Voltage(0.0),
                PumpOutput::HighZ,
            ],
            3e-4,
        );
        let mut rc = SeriesRc::new(35.2e3, 33e-9);
        assert_segment_consistent(
            &mut rc,
            &[
                PumpOutput::Current(100e-6),
                PumpOutput::Current(0.0),
                PumpOutput::Current(-100e-6),
                PumpOutput::HighZ,
            ],
            5e-5,
        );
        let mut pi = ActivePi::new(1e-3, 1e-4);
        assert_segment_consistent(
            &mut pi,
            &[
                PumpOutput::Voltage(2.0),
                PumpOutput::HighZ,
                PumpOutput::Voltage(-2.0),
            ],
            1e-4,
        );
    }

    #[test]
    fn affine_segment_state_integral_matches_quadrature() {
        let lag = PassiveLag::new(R1, R2, C);
        let seg = lag
            .affine_segment(PumpOutput::Voltage(5.0))
            .expect("one-state filter");
        let pi = ActivePi::new(1e-3, 1e-4);
        let seg_int = pi
            .affine_segment(PumpOutput::Voltage(1.5))
            .expect("one-state filter");
        for (seg, x0, dt) in [(seg, 0.3, 0.02), (seg_int, -0.2, 5e-3)] {
            // Dense midpoint quadrature of the closed-form trajectory.
            let n = 200_000;
            let h = dt / n as f64;
            let mut sum = 0.0;
            for j in 0..n {
                sum += seg.state_after(x0, (j as f64 + 0.5) * h) * h;
            }
            let exact = seg.state_integral(x0, dt);
            assert!(
                (exact - sum).abs() < 1e-9 * sum.abs().max(1e-9),
                "{exact} vs {sum}"
            );
        }
    }

    #[test]
    fn ripple_cap_filter_declines_scalar_reduction() {
        let f = SeriesRc::with_options(10e3, 100e-9, Some(1e-9), None);
        assert!(f.affine_segment(PumpOutput::Current(1e-6)).is_none());
        // The one-state variant accepts.
        let f1 = SeriesRc::new(10e3, 100e-9);
        assert!(f1.affine_segment(PumpOutput::Current(1e-6)).is_some());
    }

    #[test]
    fn trait_object_usability() {
        let mut filters: Vec<Box<dyn LoopFilter>> = vec![
            Box::new(PassiveLag::new(R1, R2, C)),
            Box::new(SeriesRc::new(10e3, 100e-9)),
            Box::new(ActivePi::new(1e-3, 1e-4)),
        ];
        for f in &mut filters {
            let mut x = f.initial_state();
            let drive = match f.input_kind() {
                InputKind::Voltage => PumpOutput::Voltage(1.0),
                InputKind::Current => PumpOutput::Current(1e-6),
            };
            f.step(&mut x, drive, 1e-3);
            assert!(f.output(&x, drive).is_finite());
        }
    }
}
