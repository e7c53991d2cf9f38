//! The sweep supervisor: per-point guardrails, panic isolation and the
//! deterministic quarantine-and-retry policy.
//!
//! The paper's BIST runs unattended (§4–§5); its software reproduction
//! must too. This module layers fault tolerance over the
//! [`crate::scenario`] pipeline without touching the physics:
//!
//! * [`Supervised`] wraps any [`PllEngine`] and checks guardrails after
//!   every `advance_to` call — NaN/Inf on the control voltage, VCO
//!   frequency and phase; control-voltage range/rail-pinning; a work
//!   budget. All checks are **read-only**, so a supervised healthy
//!   run is bitwise identical to an unsupervised one.
//! * [`supervised_point`] executes one sweep point under
//!   [`std::panic::catch_unwind`], retrying per [`SupervisorPolicy`]
//!   (fresh engine, halved work granularity, extended settle) and
//!   quarantining the point as a typed [`SweepPointError`] when retries
//!   are exhausted. Every decision is recorded as an [`Incident`] and —
//!   when telemetry is enabled — as a `supervisor.incident` JSONL
//!   record.
//!
//! The guardrail sampling contract is **engine-agnostic**: guardrails
//! observe only the [`PllEngine`] surface (control voltage, frequency,
//! phase, [`PllEngine::work_stats`]), never an engine's integration
//! internals. The "step" budget counts whatever `work_stats().steps`
//! means on the backend at hand — ODE micro-steps on the micro-stepped
//! [`crate::behavioral::CpPll`], committed closed-form segments (an
//! *event budget*) on the per-event
//! [`crate::event_driven::EventDrivenCpPll`] — and the retry ladder's
//! [`PllEngine::set_step_scale`] tightens the engine's own work
//! granularity (micro-step or event-subdivision guard). Because the
//! event engine commits no more units per simulated second than the
//! micro-stepped engine (as many on a lossless loop, whose held
//! intervals `CpPll` takes whole; far fewer where a leaky filter keeps
//! `CpPll` micro-stepping), a budget tuned for `CpPll` is conservative,
//! not tight, on `EventDrivenCpPll`.
//!
//! A tripped guardrail aborts the in-flight point via
//! [`std::panic::panic_any`] with the typed error as payload; the
//! supervisor's `catch_unwind` recovers it *typed* (see
//! [`SweepPointError::from_panic`]). Drive a [`Supervised`] engine
//! through the supervisor entry points ([`supervised_point`], or any
//! supervised [`crate::plan::CampaignPlan`] handed to the one plan
//! entry [`crate::scenario::run_plan`]) rather than bare, so trips are
//! contained instead of unwinding the caller.
//!
//! Determinism: retries are a pure function of `(config, point)` —
//! attempt `k` always uses step scale `RETRY_STEP_SCALE^k` and settle
//! scale `RETRY_SETTLE_SCALE^k` from a freshly locked engine — so a
//! failing campaign replays incident for incident.

use crate::behavioral::Sample;
use crate::config::{DriveConfig, PllConfig};
use crate::engine::{AnalogAccess, PllEngine, WorkStats};
use crate::error::SweepPointError;
use crate::scenario::Scenario;
use crate::stimulus::FmStimulus;
use pllbist_telemetry::{fields, Collector, Record};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The deterministic quarantine-and-retry ladder plus the guardrail
/// thresholds of [`Supervised`].
///
/// Like the paper's BIST, which runs one fixed test plan against fixed
/// on-chip limits (Table 2), the ladder is fixed: its thresholds are the
/// associated constants below. The value itself is the switch a
/// [`crate::plan::CampaignPlan`] turns supervision on with.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SupervisorPolicy {}

impl SupervisorPolicy {
    /// Retries after the first failed attempt (attempt count is
    /// `MAX_RETRIES + 1`). Only [`SweepPointError::is_retryable`]
    /// failures are retried.
    pub const MAX_RETRIES: u32 = 2;
    /// Work-granularity multiplier per retry attempt: attempt `k` runs
    /// at `RETRY_STEP_SCALE^k` (halved each retry). Applied via
    /// [`PllEngine::set_step_scale`]: the integration micro-step where
    /// the filter moves on micro-stepped engines, the event-subdivision
    /// guard on event-exact engines.
    pub const RETRY_STEP_SCALE: f64 = 0.5;
    /// Lock-settle multiplier per retry attempt: attempt `k` settles for
    /// `RETRY_SETTLE_SCALE^k` times the scenario's wait.
    pub const RETRY_SETTLE_SCALE: f64 = 1.5;
    /// Work units (`work_stats().steps` — micro-steps or committed event
    /// segments, per backend) attempt 0 of one point may spend before
    /// [`SweepPointError::StepBudgetExhausted`] trips.
    pub const STEP_BUDGET: u64 = 10_000_000;
    /// Fraction of the rail span within which the control voltage counts
    /// as *pinned* to a rail.
    pub const RAIL_MARGIN_FRACTION: f64 = 1e-9;
    /// Rail spans beyond the rails at which the control voltage is
    /// declared numerically divergent outright.
    pub const RAIL_OVERSHOOT_FRACTION: f64 = 10.0;
    /// Consecutive checked `advance_to` calls pinned at a rail before the
    /// divergence watchdog trips.
    pub const RAIL_STREAK_LIMIT: u32 = 256;

    /// The step budget for retry `attempt` (zero-based).
    ///
    /// Attempt `k` settles for `RETRY_SETTLE_SCALE^k` times the nominal
    /// wait *at* a `RETRY_STEP_SCALE^k` micro-step, so even a healthy
    /// retry needs about `3^k` times the steps of attempt 0. A constant
    /// budget would kill exactly the deep retries the ladder exists to
    /// rescue, reporting spurious [`SweepPointError::StepBudgetExhausted`];
    /// the budget therefore scales with the work the attempt is *expected*
    /// to do: `STEP_BUDGET·3^k`, exact for every `k ≤ MAX_RETRIES`.
    fn step_budget_for_attempt(attempt: u32) -> u64 {
        let growth = Self::RETRY_SETTLE_SCALE / Self::RETRY_STEP_SCALE;
        (Self::STEP_BUDGET as f64 * growth.powi(attempt as i32)) as u64
    }
}

/// The control rails for `config`: `0..vdd` for a voltage drive and none
/// for a charge pump (whose control node is not supply-bounded in the
/// model).
fn control_rails(config: &PllConfig) -> Option<(f64, f64)> {
    match config.drive {
        DriveConfig::Voltage { vdd } => Some((0.0, vdd)),
        _ => None,
    }
}

/// What the supervisor did about one failed attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentAction {
    /// The point was re-attempted with a scaled step/settle.
    Retried,
    /// Retries were exhausted (or the error was not retryable); the
    /// point is reported as a per-point `Err`.
    Quarantined,
}

impl IncidentAction {
    /// Stable tag for telemetry records.
    pub fn as_str(&self) -> &'static str {
        match self {
            IncidentAction::Retried => "retried",
            IncidentAction::Quarantined => "quarantined",
        }
    }
}

/// One supervisor decision: which point failed, on which attempt, why,
/// and what happened next. Emitted as a `supervisor.incident` telemetry
/// record when the collector is enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// The failed point's modulation frequency in Hz.
    pub f_mod_hz: f64,
    /// Zero-based attempt index that failed.
    pub attempt: u32,
    /// Retry or quarantine.
    pub action: IncidentAction,
    /// The typed failure.
    pub error: SweepPointError,
}

/// Appends an incident to the collector (as a `Record::Result` named
/// `supervisor.incident`, plus the retry/quarantine counters).
pub fn emit_incident(telemetry: &Collector, incident: &Incident) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.extend(vec![Record::Result {
        name: "supervisor.incident".to_string(),
        fields: fields![
            f_mod_hz = incident.f_mod_hz,
            attempt = incident.attempt,
            kind = incident.error.kind(),
            error = incident.error.to_string(),
            action = incident.action.as_str()
        ],
    }]);
    match incident.action {
        IncidentAction::Retried => telemetry.add("supervisor.retries", 1),
        IncidentAction::Quarantined => telemetry.add("supervisor.quarantined", 1),
    }
}

/// One supervised point's outcome: the per-point `Result` plus every
/// incident its attempts produced (empty for a first-try success).
#[derive(Clone, Debug)]
pub struct PointOutcome<R> {
    /// The measured value, or the quarantining error.
    pub result: Result<R, SweepPointError>,
    /// Retry/quarantine incidents, in attempt order.
    pub incidents: Vec<Incident>,
}

/// A [`PllEngine`] wrapper that checks divergence guardrails after
/// every `advance_to`.
///
/// All checks are read-only — a supervised healthy run drives the inner
/// engine through *exactly* the same call sequence as an unsupervised
/// one, so results stay bitwise identical. A tripped guardrail aborts
/// the point via [`std::panic::panic_any`] with the typed
/// [`SweepPointError`] as payload, to be caught at the point boundary
/// by [`supervised_point`] (or any other `catch_unwind`).
pub struct Supervised<E: PllEngine> {
    inner: E,
    /// Work units one point may spend; `0` = unlimited.
    step_budget: u64,
    rails: Option<(f64, f64)>,
    rail_streak: u32,
    baseline_steps: u64,
}

impl<E: PllEngine> Supervised<E> {
    /// Wraps `inner` for retry `attempt` of one point: the guardrails of
    /// the [`SupervisorPolicy`] ladder (rails derived from the engine's
    /// drive configuration) with the step budget rescaled for the
    /// attempt, so a deep retry's deliberately finer micro-step and
    /// longer settle are not misdiagnosed as a runaway point.
    pub fn for_attempt(inner: E, attempt: u32) -> Self {
        let rails = control_rails(inner.config());
        let baseline_steps = inner.work_stats().steps;
        Self {
            inner,
            step_budget: SupervisorPolicy::step_budget_for_attempt(attempt),
            rails,
            rail_streak: 0,
            baseline_steps,
        }
    }

    /// Wraps `inner` with every guardrail disabled (finiteness checks
    /// still run — they are free and never false-positive).
    pub fn unsupervised(inner: E) -> Self {
        Self {
            inner,
            step_budget: 0,
            rails: None,
            rail_streak: 0,
            baseline_steps: 0,
        }
    }

    /// Resets the per-point counters (step-budget baseline, rail
    /// streak). Call at each point/attempt boundary.
    pub fn arm_point(&mut self) {
        self.baseline_steps = self.inner.work_stats().steps;
        self.rail_streak = 0;
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the supervised engine.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Runs every guardrail; aborts the point via
    /// [`std::panic::panic_any`] on a violation.
    fn check_guardrails(&mut self) {
        let t = self.inner.time();
        let cv = self.inner.control_voltage();
        for (quantity, value) in [
            ("control_voltage", cv),
            ("vco_frequency_hz", self.inner.vco_frequency_hz()),
            ("vco_phase_cycles", self.inner.vco_phase_cycles()),
        ] {
            if !value.is_finite() {
                std::panic::panic_any(SweepPointError::NumericalDivergence { t, quantity, value });
            }
        }
        if let Some((lo, hi)) = self.rails {
            let span = hi - lo;
            let overshoot = SupervisorPolicy::RAIL_OVERSHOOT_FRACTION * span;
            if cv < lo - overshoot || cv > hi + overshoot {
                std::panic::panic_any(SweepPointError::NumericalDivergence {
                    t,
                    quantity: "control_voltage_out_of_range",
                    value: cv,
                });
            }
            let margin = SupervisorPolicy::RAIL_MARGIN_FRACTION * span;
            if cv <= lo + margin || cv >= hi - margin {
                self.rail_streak = self.rail_streak.saturating_add(1);
                if self.rail_streak >= SupervisorPolicy::RAIL_STREAK_LIMIT {
                    std::panic::panic_any(SweepPointError::NumericalDivergence {
                        t,
                        quantity: "control_voltage_rail_pinned",
                        value: cv,
                    });
                }
            } else {
                self.rail_streak = 0;
            }
        }
        if self.step_budget > 0 {
            let steps = self
                .inner
                .work_stats()
                .steps
                .saturating_sub(self.baseline_steps);
            if steps > self.step_budget {
                std::panic::panic_any(SweepPointError::StepBudgetExhausted {
                    t,
                    steps,
                    budget: self.step_budget,
                });
            }
        }
    }
}

impl<E: PllEngine> PllEngine for Supervised<E> {
    type Checkpoint = E::Checkpoint;

    /// Builds an *unsupervised* wrapper (guardrails off) so the generic
    /// scenario paths can construct one; the supervisor entry points
    /// build armed wrappers via [`Supervised::for_attempt`] instead.
    fn new_locked(config: &PllConfig) -> Self {
        Self::unsupervised(E::new_locked(config))
    }

    fn config(&self) -> &PllConfig {
        self.inner.config()
    }

    fn time(&self) -> f64 {
        self.inner.time()
    }

    fn advance_to(&mut self, t_end: f64) {
        self.inner.advance_to(t_end);
        self.check_guardrails();
    }

    fn control_voltage(&self) -> f64 {
        self.inner.control_voltage()
    }

    fn vco_frequency_hz(&self) -> f64 {
        self.inner.vco_frequency_hz()
    }

    fn vco_phase_cycles(&self) -> f64 {
        self.inner.vco_phase_cycles()
    }

    fn set_stimulus(&mut self, stimulus: FmStimulus) {
        self.inner.set_stimulus(stimulus);
    }

    fn set_hold(&mut self, hold: bool) {
        self.inner.set_hold(hold);
    }

    fn is_held(&self) -> bool {
        self.inner.is_held()
    }

    fn collect_events(&mut self, on: bool) {
        self.inner.collect_events(on);
    }

    fn take_events(&mut self) -> Vec<crate::behavioral::LoopEvent> {
        self.inner.take_events()
    }

    fn checkpoint(&self) -> Self::Checkpoint {
        self.inner.checkpoint()
    }

    fn restore(&mut self, snapshot: &Self::Checkpoint) {
        self.inner.restore(snapshot);
        self.rail_streak = 0;
        self.baseline_steps = self.inner.work_stats().steps;
    }

    fn set_step_scale(&mut self, scale: f64) {
        self.inner.set_step_scale(scale);
    }

    fn backend_name() -> &'static str {
        E::backend_name()
    }

    fn check_class(config: &PllConfig) -> Result<(), crate::event_driven::OutOfClass> {
        E::check_class(config)
    }

    fn work_stats(&self) -> WorkStats {
        self.inner.work_stats()
    }
}

impl<E: AnalogAccess> AnalogAccess for Supervised<E> {
    fn enable_sampling(&mut self, interval: f64) {
        self.inner.enable_sampling(interval);
    }

    fn take_samples(&mut self) -> Vec<Sample> {
        self.inner.take_samples()
    }
}

/// Builds the engine for one attempt of one point.
///
/// Attempt `0` reproduces the unsupervised path exactly (restore the
/// shared snapshot, or settle from scratch) so healthy results stay
/// bitwise identical. Retry attempts rebuild from a fresh lock with the
/// ladder's scaled micro-step and extended settle — snapshots embody
/// the nominal step size, so they cannot seed a scaled retry.
pub fn engine_for_attempt<E: PllEngine>(
    scenario: &Scenario<'_>,
    snapshot: Option<&E::Checkpoint>,
    policy: Option<&SupervisorPolicy>,
    attempt: u32,
) -> Supervised<E> {
    let mut pll = match policy {
        Some(_) => Supervised::for_attempt(E::new_locked(scenario.config()), attempt),
        None => Supervised::unsupervised(E::new_locked(scenario.config())),
    };
    if attempt == 0 {
        if let Some(snap) = snapshot {
            pll.restore(snap);
            return pll;
        }
        let t0 = pll.time();
        pll.advance_to(t0 + scenario.lock_settle_secs());
        return pll;
    }
    assert!(
        policy.is_some(),
        "retry attempts require a supervision policy"
    );
    pll.set_step_scale(SupervisorPolicy::RETRY_STEP_SCALE.powi(attempt as i32));
    let t0 = pll.time();
    pll.advance_to(
        t0 + scenario.lock_settle_secs()
            * SupervisorPolicy::RETRY_SETTLE_SCALE.powi(attempt as i32),
    );
    pll
}

/// Runs one sweep point under full supervision: panic isolation,
/// guardrails, deterministic retries, quarantine.
///
/// `capture` receives a settled, armed engine and returns the point's
/// value (or a typed error — e.g. a failed lock qualification). Any
/// panic inside the attempt, including guardrail trips, is caught at
/// this boundary and converted via [`SweepPointError::from_panic`].
///
/// With `policy: None` the point still gets panic isolation and a typed
/// outcome, but runs exactly one attempt on an unguarded engine and
/// emits no `supervisor.*` telemetry — the unsupervised baseline every
/// supervised healthy run must match bit for bit.
pub fn supervised_point<E, R, F>(
    scenario: &Scenario<'_>,
    snapshot: Option<&E::Checkpoint>,
    policy: Option<&SupervisorPolicy>,
    f_mod_hz: f64,
    telemetry: &Collector,
    capture: F,
) -> PointOutcome<R>
where
    E: PllEngine,
    F: Fn(&mut Supervised<E>) -> Result<R, SweepPointError>,
{
    let max_retries = policy.map_or(0, |_| SupervisorPolicy::MAX_RETRIES);
    let mut incidents = Vec::new();
    for attempt in 0..=max_retries {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut pll = engine_for_attempt::<E>(scenario, snapshot, policy, attempt);
            pll.arm_point();
            capture(&mut pll)
        }))
        .unwrap_or_else(|payload| {
            // Injected SIGKILL-equivalents bypass containment entirely:
            // re-raise so the kill unwinds the sweep like a real one.
            Err(SweepPointError::from_panic(crate::error::rethrow_if_kill(
                payload,
            )))
        });
        match outcome {
            Ok(value) => {
                if telemetry.is_enabled() && policy.is_some() {
                    telemetry.add("supervisor.points_ok", 1);
                    if attempt > 0 {
                        telemetry.add("supervisor.points_recovered", 1);
                    }
                }
                return PointOutcome {
                    result: Ok(value),
                    incidents,
                };
            }
            Err(error) => {
                let retry = attempt < max_retries && error.is_retryable();
                let incident = Incident {
                    f_mod_hz,
                    attempt,
                    action: if retry {
                        IncidentAction::Retried
                    } else {
                        IncidentAction::Quarantined
                    },
                    error: error.clone(),
                };
                if policy.is_some() {
                    emit_incident(telemetry, &incident);
                }
                incidents.push(incident);
                if !retry {
                    return PointOutcome {
                        result: Err(error),
                        incidents,
                    };
                }
            }
        }
    }
    unreachable!("the retry loop returns on success or quarantine")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;
    use crate::config::FilterConfig;
    use crate::engine::ClosedFormPll;

    fn quiet() -> Collector {
        Collector::disabled()
    }

    #[test]
    fn supervised_healthy_advance_is_bitwise_identical() {
        let cfg = PllConfig::paper_table3();
        let mut bare = CpPll::new_locked(&cfg);
        let mut sup = Supervised::for_attempt(CpPll::new_locked(&cfg), 0);
        for k in 1..=20 {
            let t = k as f64 * 0.01;
            PllEngine::advance_to(&mut bare, t);
            sup.advance_to(t);
        }
        assert_eq!(
            PllEngine::vco_phase_cycles(&bare).to_bits(),
            sup.vco_phase_cycles().to_bits()
        );
        assert_eq!(
            PllEngine::control_voltage(&bare).to_bits(),
            sup.control_voltage().to_bits()
        );
        assert_eq!(PllEngine::work_stats(&bare), sup.work_stats());
    }

    #[test]
    fn step_budget_trips_as_typed_error() {
        let cfg = PllConfig::paper_table3();
        let mut sup = Supervised {
            step_budget: 10,
            ..Supervised::for_attempt(CpPll::new_locked(&cfg), 0)
        };
        sup.arm_point();
        let err = catch_unwind(AssertUnwindSafe(|| sup.advance_to(1.0)))
            .map(|_| ())
            .map_err(SweepPointError::from_panic)
            .unwrap_err();
        match err {
            SweepPointError::StepBudgetExhausted { budget, steps, .. } => {
                assert_eq!(budget, 10);
                assert!(steps > 10);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn supervised_point_retries_then_quarantines_deterministically() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.01);
        let run = || {
            supervised_point::<ClosedFormPll, f64, _>(
                &scenario,
                None,
                Some(&SupervisorPolicy::default()),
                8.0,
                &quiet(),
                |_pll| Err(SweepPointError::DegenerateFit { f_mod_hz: 8.0 }),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.result, b.result);
        assert_eq!(a.incidents, b.incidents);
        assert_eq!(a.incidents.len(), 3, "two retries then quarantine");
        assert_eq!(a.incidents[0].action, IncidentAction::Retried);
        assert_eq!(a.incidents[2].action, IncidentAction::Quarantined);
        assert!(a.result.is_err());
    }

    #[test]
    fn panics_are_contained_and_not_retried() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.01);
        let tel = Collector::enabled();
        let out = supervised_point::<ClosedFormPll, f64, _>(
            &scenario,
            None,
            Some(&SupervisorPolicy::default()),
            4.0,
            &tel,
            |_pll| panic!("injected point panic"),
        );
        assert_eq!(
            out.result,
            Err(SweepPointError::WorkerPanic {
                message: "injected point panic".into()
            })
        );
        assert_eq!(out.incidents.len(), 1, "panics are not retried");
        let records = tel.drain();
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Result { name, .. } if name == "supervisor.incident"
        )));
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Counter { name, value: 1 } if name == "supervisor.quarantined"
        )));
    }

    #[test]
    fn step_budget_scales_with_retry_attempt() {
        // Settle ×1.5 and step ×0.5 per attempt → expected work grows 3×
        // per attempt, and so must the budget.
        let budgets: Vec<u64> = (0..=SupervisorPolicy::MAX_RETRIES)
            .map(SupervisorPolicy::step_budget_for_attempt)
            .collect();
        assert_eq!(budgets, [10_000_000, 30_000_000, 90_000_000]);
    }

    #[test]
    fn deep_retries_are_not_spuriously_step_budget_killed() {
        // Regression: the retry deadline is `settle × 1.5^k` at a
        // `0.5^k` micro-step, so attempt 1 needs ~3× the steps of
        // attempt 0. With the budget held constant, a budget that
        // comfortably covers attempt 0 killed the retry during its own
        // settle, quarantining recoverable points as
        // StepBudgetExhausted. The filter leaks, so it moves between pump
        // pulses and the halved micro-step binds over the whole settle
        // (a lossless filter holds there, and its held intervals are one
        // segment at any step scale).
        let mut cfg = PllConfig::paper_table3();
        if let FilterConfig::PassiveLag { ref mut r_leak, .. } = cfg.filter {
            *r_leak = Some(50e6);
        }
        let lock_settle = 0.01;
        // Steps an attempt-0 settle costs on this engine.
        let steps0 = {
            let mut pll = CpPll::new_locked(&cfg);
            let t0 = PllEngine::time(&pll);
            PllEngine::advance_to(&mut pll, t0 + lock_settle);
            PllEngine::work_stats(&pll).steps
        };
        // A nominal budget of twice attempt 0's settle, and attempt 1's
        // settle under it, before and after the per-attempt rescaling.
        let nominal = steps0 * 2;
        let growth = SupervisorPolicy::step_budget_for_attempt(1)
            / SupervisorPolicy::step_budget_for_attempt(0);
        let retry_settle = |budget: u64| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut pll = Supervised {
                    step_budget: budget,
                    ..Supervised::for_attempt(CpPll::new_locked(&cfg), 1)
                };
                pll.set_step_scale(SupervisorPolicy::RETRY_STEP_SCALE);
                let t0 = pll.time();
                pll.advance_to(t0 + lock_settle * SupervisorPolicy::RETRY_SETTLE_SCALE);
            }))
            .map_err(SweepPointError::from_panic)
        };
        // The scenario is real: attempt 1's settle alone overruns the
        // nominal budget (this is what made the old constant-budget
        // check trip).
        let err = retry_settle(nominal).expect_err("the nominal budget must bite");
        assert_eq!(err.kind(), "step_budget_exhausted");
        assert!(
            retry_settle(nominal * growth).is_ok(),
            "attempt 1 was spuriously killed"
        );
    }

    #[test]
    fn retry_succeeds_after_transient_failure() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.01);
        let tel = Collector::enabled();
        let failures = std::sync::atomic::AtomicU32::new(1);
        let out = supervised_point::<ClosedFormPll, u64, _>(
            &scenario,
            None,
            Some(&SupervisorPolicy::default()),
            2.0,
            &tel,
            |pll| {
                if failures.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) > 0 {
                    return Err(SweepPointError::DegenerateFit { f_mod_hz: 2.0 });
                }
                let t = pll.time();
                pll.advance_to(t + 0.05);
                Ok(pll.vco_phase_cycles().to_bits())
            },
        );
        assert!(out.result.is_ok());
        assert_eq!(out.incidents.len(), 1);
        assert_eq!(out.incidents[0].action, IncidentAction::Retried);
        let records = tel.drain();
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Counter { name, value: 1 } if name == "supervisor.points_recovered"
        )));
    }
}
