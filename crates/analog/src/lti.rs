//! Exact zero-order-hold stepping with a discretisation cache.
//!
//! The transient engine advances the loop filter over *segments* during
//! which the drive is constant. Most segments share a handful of distinct
//! durations (the fixed analogue micro-step, the recurring PFD pulse
//! widths), so caching the exact `(Ad, Bd)` pair per duration turns an
//! `expm` per segment into a lookup.

use pllbist_numeric::statespace::{DiscreteStateSpace, StateSpace};

/// A continuous LTI system with cached exact discretisations.
#[derive(Clone, Debug)]
pub struct CachedZoh {
    system: StateSpace,
    /// Small move-to-front cache keyed on the exact bit pattern of `dt`.
    cache: Vec<(u64, DiscreteStateSpace)>,
    capacity: usize,
    /// The pre-step state, reused so a step does not allocate.
    scratch: Vec<f64>,
    hits: u64,
    misses: u64,
}

impl CachedZoh {
    /// Default number of cached durations.
    pub const DEFAULT_CAPACITY: usize = 16;

    /// Wraps a state-space system with a discretisation cache.
    pub fn new(system: StateSpace) -> Self {
        Self::with_capacity(system, Self::DEFAULT_CAPACITY)
    }

    /// Wraps with an explicit cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(system: StateSpace, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be nonzero");
        Self {
            system,
            cache: Vec::with_capacity(capacity),
            capacity,
            scratch: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The wrapped continuous system.
    pub fn system(&self) -> &StateSpace {
        &self.system
    }

    /// A zero state of the right dimension.
    pub fn zero_state(&self) -> Vec<f64> {
        self.system.zero_state()
    }

    /// Advances `state` in place by `dt` seconds with the input held at
    /// `u` — exact for any `dt` because the discretisation is the true
    /// matrix exponential.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite (zero-length segments
    /// should be skipped by the caller).
    pub fn step(&mut self, state: &mut [f64], u: f64, dt: f64) {
        let key = dt.to_bits();
        let pos = match self.cache.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                self.hits += 1;
                pos
            }
            None => {
                self.misses += 1;
                let disc = self.system.discretize(dt);
                if self.cache.len() == self.capacity {
                    self.cache.pop();
                }
                self.cache.push((key, disc));
                self.cache.len() - 1
            }
        };
        // Move to front so hot durations stay cheap to find.
        self.cache[..=pos].rotate_right(1);
        self.scratch.clear();
        self.scratch.extend_from_slice(state);
        self.cache[0].1.step_into(&self.scratch, u, state);
    }

    /// Output `y = C·x + D·u`.
    pub fn output(&self, state: &[f64], u: f64) -> f64 {
        self.system.output(state, u)
    }

    /// `(hits, misses)` counters — used by the engine-comparison ablation
    /// to show the cache carries the load.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_numeric::tf::TransferFunction;

    fn lowpass(tau: f64) -> CachedZoh {
        CachedZoh::new(StateSpace::from_transfer_function(
            &TransferFunction::first_order_lowpass(tau),
        ))
    }

    #[test]
    fn cached_step_matches_analytic() {
        let tau = 1e-3;
        let mut z = lowpass(tau);
        let mut x = z.zero_state();
        let mut t = 0.0;
        // Irregular durations exercise multiple cache entries.
        for &dt in [1e-4, 2.5e-4, 1e-4, 7e-5, 1e-4, 2.5e-4]
            .iter()
            .cycle()
            .take(60)
        {
            z.step(&mut x, 1.0, dt);
            t += dt;
            let want = 1.0 - (-t / tau).exp();
            assert!((z.output(&x, 1.0) - want).abs() < 1e-12, "t={t}");
        }
        let (hits, misses) = z.cache_stats();
        assert_eq!(misses, 3, "three distinct durations");
        assert_eq!(hits, 57);
    }

    #[test]
    fn eviction_keeps_correctness() {
        let mut z = CachedZoh::with_capacity(
            StateSpace::from_transfer_function(&TransferFunction::integrator(2.0)),
            2,
        );
        let mut x = z.zero_state();
        let mut integral = 0.0;
        for k in 1..=20 {
            let dt = 1e-3 * k as f64; // 20 distinct durations, capacity 2
            z.step(&mut x, 3.0, dt);
            integral += 2.0 * 3.0 * dt;
            assert!((z.output(&x, 3.0) - integral).abs() < 1e-9);
        }
        let (_, misses) = z.cache_stats();
        assert_eq!(misses, 20);
    }

    #[test]
    fn repeated_duration_hits_cache() {
        let mut z = lowpass(5e-3);
        let mut x = z.zero_state();
        for _ in 0..100 {
            z.step(&mut x, 0.5, 1e-4);
        }
        let (hits, misses) = z.cache_stats();
        assert_eq!((hits, misses), (99, 1));
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let mut z = lowpass(1e-3);
        let mut x = z.zero_state();
        z.step(&mut x, 1.0, 0.0);
    }
}
