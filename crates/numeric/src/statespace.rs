//! Continuous-time linear state-space models and exact zero-order-hold
//! discretisation.
//!
//! The analogue half of the PLL simulator represents the loop filter as
//! `ẋ = A·x + B·u, y = C·x + D·u`. Because the filter's input (the
//! phase-detector / charge-pump drive) is **piecewise constant between
//! digital events**, the zero-order-hold discretisation is *exact*, not an
//! approximation — the transient engine therefore commits no integration
//! error in the linear elements regardless of step size.

use crate::matrix::Matrix;
use crate::tf::TransferFunction;

/// A single-input single-output continuous-time state-space model.
///
/// # Example
///
/// Discretise a first-order low-pass exactly and compare with the analytic
/// exponential step response:
///
/// ```
/// use pllbist_numeric::statespace::StateSpace;
/// use pllbist_numeric::tf::TransferFunction;
///
/// let tau = 1e-3;
/// let ss = StateSpace::from_transfer_function(
///     &TransferFunction::first_order_lowpass(tau));
/// let dt = 0.2e-3;
/// let zoh = ss.discretize(dt);
/// let mut x = ss.zero_state();
/// let mut t = 0.0;
/// for _ in 0..20 {
///     x = zoh.step(&x, 1.0);
///     t += dt;
///     let y = zoh.output(&x, 1.0);
///     assert!((y - (1.0 - (-t / tau).exp())).abs() < 1e-12);
/// }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateSpace {
    a: Matrix,
    b: Matrix,
    c: Matrix,
    d: f64,
}

impl StateSpace {
    /// Creates a model from its matrices.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes (`a` must be `n×n`, `b` `n×1`, `c`
    /// `1×n`).
    pub fn new(a: Matrix, b: Matrix, c: Matrix, d: f64) -> Self {
        let n = a.rows();
        assert!(a.is_square(), "A must be square");
        assert_eq!((b.rows(), b.cols()), (n, 1), "B must be n×1");
        assert_eq!((c.rows(), c.cols()), (1, n), "C must be 1×n");
        Self { a, b, c, d }
    }

    /// Builds the controllable canonical realisation of a **proper**
    /// transfer function.
    ///
    /// # Panics
    ///
    /// Panics if the transfer function is improper (numerator degree exceeds
    /// denominator degree).
    pub fn from_transfer_function(tf: &TransferFunction) -> Self {
        assert!(
            tf.relative_degree() >= 0,
            "state-space realisation requires a proper transfer function"
        );
        let den = tf.den().coeffs();
        let n = tf.den().degree();
        let lead = *den.last().expect("nonzero denominator");
        // Normalised denominator: s^n + a_{n-1} s^{n-1} + ... + a_0
        let a_norm: Vec<f64> = den[..n].iter().map(|&c| c / lead).collect();
        // Normalised, zero-padded numerator of length n+1.
        let mut b_norm = vec![0.0; n + 1];
        for (i, &c) in tf.num().coeffs().iter().enumerate() {
            b_norm[i] = c / lead;
        }
        let d = b_norm[n];

        if n == 0 {
            // Pure gain: a degenerate 1-state model with zero dynamics keeps
            // the interface uniform.
            return Self::new(
                Matrix::zeros(1, 1),
                Matrix::zeros(1, 1),
                Matrix::zeros(1, 1),
                d,
            );
        }

        let mut a = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            a[(i, i + 1)] = 1.0;
        }
        for j in 0..n {
            a[(n - 1, j)] = -a_norm[j];
        }
        let mut b = Matrix::zeros(n, 1);
        b[(n - 1, 0)] = 1.0;
        let mut c = Matrix::zeros(1, n);
        for j in 0..n {
            c[(0, j)] = b_norm[j] - a_norm[j] * d;
        }
        Self::new(a, b, c, d)
    }

    /// State dimension.
    pub fn order(&self) -> usize {
        self.a.rows()
    }

    /// The `A` matrix.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// The `B` vector.
    pub fn b(&self) -> &Matrix {
        &self.b
    }

    /// The `C` vector.
    pub fn c(&self) -> &Matrix {
        &self.c
    }

    /// The direct feed-through term `D`.
    pub fn d(&self) -> f64 {
        self.d
    }

    /// A zero initial state vector.
    pub fn zero_state(&self) -> Vec<f64> {
        vec![0.0; self.order()]
    }

    /// Output `y = C·x + D·u` for a given state and input.
    #[allow(clippy::needless_range_loop)] // index form mirrors the matrix algebra
    pub fn output(&self, x: &[f64], u: f64) -> f64 {
        assert_eq!(x.len(), self.order(), "state dimension mismatch");
        let mut y = self.d * u;
        for j in 0..self.order() {
            y += self.c[(0, j)] * x[j];
        }
        y
    }

    /// State derivative `ẋ = A·x + B·u`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the matrix algebra
    pub fn derivative(&self, x: &[f64], u: f64) -> Vec<f64> {
        assert_eq!(x.len(), self.order(), "state dimension mismatch");
        let n = self.order();
        let mut dx = vec![0.0; n];
        for i in 0..n {
            let mut s = self.b[(i, 0)] * u;
            for j in 0..n {
                s += self.a[(i, j)] * x[j];
            }
            dx[i] = s;
        }
        dx
    }

    /// Exact zero-order-hold discretisation with step `dt`.
    ///
    /// Uses the augmented-matrix identity
    /// `expm([[A,B],[0,0]]·dt) = [[Ad,Bd],[0,I]]`, which is valid even when
    /// `A` is singular (as it is for integrators).
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn discretize(&self, dt: f64) -> DiscreteStateSpace {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive and finite");
        let n = self.order();
        let mut aug = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            for j in 0..n {
                aug[(i, j)] = self.a[(i, j)] * dt;
            }
            aug[(i, n)] = self.b[(i, 0)] * dt;
        }
        let e = aug.expm();
        let ad = e.block(0, 0, n, n);
        let bd = e.block(0, n, n, 1);
        DiscreteStateSpace {
            ad,
            bd,
            c: self.c.clone(),
            d: self.d,
            dt,
        }
    }

    /// The model's transfer function `C(sI−A)⁻¹B + D`, reconstructed via
    /// Leverrier's algorithm (useful for round-trip checks).
    pub fn to_transfer_function(&self) -> TransferFunction {
        let n = self.order();
        // Faddeev–LeVerrier: den(s) = s^n + c_{n-1} s^{n-1} + …;
        // num from C adj(sI−A) B.
        let mut m = Matrix::identity(n);
        let mut den = vec![0.0; n + 1];
        den[n] = 1.0;
        // num coefficient of s^{n-1-k} is C·M_k·B.
        let mut num = vec![0.0; n + 1];
        for k in 0..n {
            // num term with current M.
            let cmb = &(&self.c * &m) * &self.b;
            num[n - 1 - k] = cmb[(0, 0)];
            let am = &self.a * &m;
            let trace: f64 = (0..n).map(|i| am[(i, i)]).sum();
            let coeff = -trace / (k as f64 + 1.0);
            den[n - 1 - k] = coeff;
            m = &am + &Matrix::identity(n).scale(coeff);
        }
        // Add the feed-through: num += d * den.
        for i in 0..=n {
            num[i] += self.d * den[i];
        }
        TransferFunction::new(num, den)
    }
}

/// A zero-order-hold discretisation of a [`StateSpace`] model.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscreteStateSpace {
    ad: Matrix,
    bd: Matrix,
    c: Matrix,
    d: f64,
    dt: f64,
}

impl DiscreteStateSpace {
    /// The discretisation step this model was built for.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances one step: `x⁺ = Ad·x + Bd·u` with `u` held constant over the
    /// step.
    pub fn step(&self, x: &[f64], u: f64) -> Vec<f64> {
        let mut nx = vec![0.0; self.ad.rows()];
        self.step_into(x, u, &mut nx);
        nx
    }

    /// [`step`](Self::step) into a caller-owned buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` is not of the model's order.
    #[allow(clippy::needless_range_loop)] // index form mirrors the matrix algebra
    pub fn step_into(&self, x: &[f64], u: f64, out: &mut [f64]) {
        let n = self.ad.rows();
        assert_eq!(x.len(), n, "state dimension mismatch");
        assert_eq!(out.len(), n, "state dimension mismatch");
        for i in 0..n {
            let mut s = self.bd[(i, 0)] * u;
            for j in 0..n {
                s += self.ad[(i, j)] * x[j];
            }
            out[i] = s;
        }
    }

    /// Output `y = C·x + D·u`.
    #[allow(clippy::needless_range_loop)] // index form mirrors the matrix algebra
    pub fn output(&self, x: &[f64], u: f64) -> f64 {
        let mut y = self.d * u;
        for j in 0..self.c.cols() {
            y += self.c[(0, j)] * x[j];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_form_matches_transfer_function_response() {
        // H(s) = (1+0.01 s)/(1+0.1 s): lag filter, D != 0.
        let tf = TransferFunction::new([1.0, 0.01], [1.0, 0.1]);
        let ss = StateSpace::from_transfer_function(&tf);
        assert_eq!(ss.order(), 1);
        let rt = ss.to_transfer_function();
        for w in [0.1, 1.0, 10.0, 100.0] {
            let a = tf.eval_jw(w);
            let b = rt.eval_jw(w);
            assert!((a - b).abs() < 1e-10, "w={w}: {a} vs {b}");
        }
    }

    #[test]
    fn second_order_round_trip() {
        let tf = TransferFunction::new([4.0, 0.5], [4.0, 1.2, 1.0]);
        let ss = StateSpace::from_transfer_function(&tf);
        assert_eq!(ss.order(), 2);
        let rt = ss.to_transfer_function();
        for w in [0.01, 0.5, 2.0, 30.0] {
            assert!((tf.eval_jw(w) - rt.eval_jw(w)).abs() < 1e-9);
        }
    }

    #[test]
    fn pure_gain_realisation() {
        let tf = TransferFunction::gain(2.5);
        let ss = StateSpace::from_transfer_function(&tf);
        assert_eq!(ss.output(&ss.zero_state(), 3.0), 7.5);
        let z = ss.discretize(1.0);
        let x = z.step(&ss.zero_state(), 1.0);
        assert_eq!(z.output(&x, 3.0), 7.5);
    }

    #[test]
    fn integrator_discretisation_is_exact() {
        // 1/s: state ramps linearly with held input, even though A is singular.
        let ss = StateSpace::from_transfer_function(&TransferFunction::integrator(1.0));
        let z = ss.discretize(0.25);
        let mut x = ss.zero_state();
        for _ in 0..8 {
            x = z.step(&x, 2.0);
        }
        // y = ∫ 2 dt over 2 s = 4.
        assert!((z.output(&x, 2.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zoh_matches_analytic_first_order() {
        let tau = 2e-3;
        let ss = StateSpace::from_transfer_function(&TransferFunction::first_order_lowpass(tau));
        let dt = 0.7e-3; // deliberately "large" step: ZOH is still exact
        let z = ss.discretize(dt);
        let mut x = ss.zero_state();
        for k in 1..=40 {
            x = z.step(&x, 1.0);
            let t = k as f64 * dt;
            let want = 1.0 - (-t / tau).exp();
            assert!((z.output(&x, 1.0) - want).abs() < 1e-12, "step {k}");
        }
    }

    #[test]
    fn zoh_matches_analytic_second_order_lag() {
        // Paper's filter: (1+s τ2)/(1+s(τ1+τ2)) in series with an
        // integrator gives a 2-state system with singular-ish A.
        let (t1, t2) = (64.04e-3, 11.9e-3);
        let filt = TransferFunction::new([1.0, t2], [1.0, t1 + t2]);
        let chain = filt.series(&TransferFunction::integrator(1.0));
        let ss = StateSpace::from_transfer_function(&chain);
        let z = ss.discretize(1e-3);
        let mut x = ss.zero_state();
        let steps = 500;
        for _ in 0..steps {
            x = z.step(&x, 1.0);
        }
        let t = steps as f64 * 1e-3;
        // Analytic step response of F(s)/s for unit input:
        // y(t) = t - (τ1)(1 - e^{-t/(τ1+τ2)}) ... derive via partial fractions:
        // F(s)/s = 1/s - τ1/(1+s(τ1+τ2)) → y = t − τ1(1 − e^{−t/(τ1+τ2)})
        let want = t - t1 * (1.0 - (-t / (t1 + t2)).exp());
        assert!((z.output(&x, 1.0) - want).abs() < 1e-9);
    }

    #[test]
    fn derivative_is_consistent_with_matrices() {
        let tf = TransferFunction::new([1.0], [1.0, 2.0, 1.0]);
        let ss = StateSpace::from_transfer_function(&tf);
        let dx = ss.derivative(&[1.0, 2.0], 3.0);
        // A = [[0,1],[-1,-2]], B=[0,1]^T
        assert_eq!(dx, vec![2.0, -1.0 + 2.0 * -2.0 + 3.0]);
    }

    #[test]
    #[should_panic(expected = "proper transfer function")]
    fn improper_tf_rejected() {
        let improper = TransferFunction::new([0.0, 0.0, 1.0], [1.0, 1.0]);
        let _ = StateSpace::from_transfer_function(&improper);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn bad_dt_rejected() {
        let ss = StateSpace::from_transfer_function(&TransferFunction::gain(1.0));
        let _ = ss.discretize(0.0);
    }
}
