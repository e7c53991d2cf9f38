//! The workspace-wide sweep error taxonomy.
//!
//! The paper's BIST runs unattended on possibly faulty silicon (§4–§5,
//! Table 3): a device that never locks, a solver step that produces
//! NaN, or a poisoned worker must degrade into a *diagnosable per-point
//! result*, not abort the campaign. [`SweepPointError`] is the single
//! typed channel every failure along the measure path flows through —
//! lock qualification ([`crate::lock::wait_for_lock`]), the per-point
//! guardrails of [`crate::supervisor::Supervised`], fault wiring
//! ([`crate::config::FaultWiringError`]) and worker panics caught by
//! [`crate::parallel::par_try_map_points_worker`].

use crate::config::FaultWiringError;
use crate::event_driven::OutOfClass;

/// Why one sweep point failed.
///
/// Every variant carries enough context to diagnose the incident from a
/// JSONL report alone; [`kind`](Self::kind) gives the stable
/// machine-readable tag and [`is_retryable`](Self::is_retryable) drives
/// the supervisor's deterministic quarantine-and-retry policy.
#[derive(Clone, Debug, PartialEq)]
pub enum SweepPointError {
    /// The lock detector never qualified the loop within the timeout.
    LockTimeout {
        /// The timeout that expired, in seconds.
        timeout_secs: f64,
        /// Consecutive in-window cycles when the timeout hit.
        consecutive_cycles: u32,
        /// Cycles the detector requires to declare lock.
        required_cycles: u32,
    },
    /// A watched quantity left the representable/physical range (NaN,
    /// ±∞, or pinned at a supply rail for too long).
    NumericalDivergence {
        /// Simulation time when the divergence was detected.
        t: f64,
        /// Which quantity diverged (e.g. `"control_voltage"`,
        /// `"vco_frequency_hz"`, `"control_voltage_rail_pinned"`).
        quantity: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The point burned through its solver step budget without
    /// completing — the watchdog against silently stiff configurations.
    StepBudgetExhausted {
        /// Simulation time when the budget ran out.
        t: f64,
        /// Steps spent on this point so far.
        steps: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The requested fault cannot be wired into the device topology
    /// (constructor-time failure, before any simulation ran).
    FaultWiring(FaultWiringError),
    /// A worker panicked; the payload was caught at the point boundary.
    WorkerPanic {
        /// The panic payload, rendered as text.
        message: String,
    },
    /// The captured record was too degenerate to fit (e.g. a
    /// rank-deficient sine fit from a dead output).
    DegenerateFit {
        /// Modulation frequency of the failed point, in Hz.
        f_mod_hz: f64,
    },
}

/// Every stable [`SweepPointError::kind`] tag, in declaration order.
///
/// Observability consumers (the campaign progress board's incident
/// tallies, dashboards parsing `/incidents`) register these up front so
/// per-incident accounting stays allocation-free. Adding an error
/// variant requires extending this list — a test pins the
/// correspondence.
pub const ERROR_KINDS: &[&str] = &[
    "lock_timeout",
    "numerical_divergence",
    "step_budget_exhausted",
    "fault_wiring",
    "worker_panic",
    "degenerate_fit",
];

/// Panic payload modelling a **SIGKILL-equivalent process death**: an
/// injected crash at a durable step ([`crate::durable::CrashFault`]).
///
/// Ordinary panics are *contained* per point (caught at the point
/// boundary and rendered as [`SweepPointError::WorkerPanic`], so one
/// sick point quarantines instead of unwinding the sweep). An injected
/// kill must do the opposite: a real `SIGKILL` takes the whole process
/// with it, completed prefix on disk, in-flight point lost. Every
/// containment site therefore checks the payload with
/// [`rethrow_if_kill`] and **re-raises** this marker instead of
/// recording it — the unwind propagates through the worker scope to the
/// job boundary, where the service catches it, marks the job
/// interrupted and resumes from the on-disk prefix. A killed write
/// leaves at most a torn tail, which the resume cuts, so the resumed
/// file stays byte-identical to an uninterrupted run's. Being contained
/// by design, it never reaches the panic reporter once
/// [`quiet_contained_panics`] is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedKill;

/// Installs, once per process, a panic hook that keeps the panics the
/// program contains by design out of the panic reporter: a payload that
/// is an [`InjectedKill`] or a [`SweepPointError`] prints nothing, and
/// every other payload goes to the hook installed before, unchanged
/// (the default one prints the message and, under `RUST_BACKTRACE`, the
/// backtrace). Every contained panic is recorded where it is caught —
/// as a point's incident or a job's `interrupted` event — so a report on
/// stderr would only repeat it, and with `RUST_BACKTRACE=1` symbolizing
/// each backtrace costs far more than the fault it reports.
///
/// A panic hook is process state, so this belongs to a binary's `main`
/// (or a test that seeds typed faults), never to a library entry point.
/// Later calls do nothing.
pub fn quiet_contained_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            report_uncontained(info.payload(), || report(info));
        }));
    });
}

/// Calls `report` unless `payload` is one the program contains by
/// design.
fn report_uncontained(payload: &(dyn std::any::Any + Send), report: impl FnOnce()) {
    if !(payload.is::<InjectedKill>() || payload.is::<SweepPointError>()) {
        report();
    }
}

/// Re-raises `payload` when it is an [`InjectedKill`]; otherwise hands
/// it back for normal per-point containment. Call this first inside
/// every `catch_unwind` recovery path on the sweep execution path.
pub fn rethrow_if_kill(payload: Box<dyn std::any::Any + Send>) -> Box<dyn std::any::Any + Send> {
    if payload.downcast_ref::<InjectedKill>().is_some() {
        std::panic::resume_unwind(payload);
    }
    payload
}

impl SweepPointError {
    /// Stable machine-readable tag for telemetry records.
    pub fn kind(&self) -> &'static str {
        match self {
            SweepPointError::LockTimeout { .. } => "lock_timeout",
            SweepPointError::NumericalDivergence { .. } => "numerical_divergence",
            SweepPointError::StepBudgetExhausted { .. } => "step_budget_exhausted",
            SweepPointError::FaultWiring(_) => "fault_wiring",
            SweepPointError::WorkerPanic { .. } => "worker_panic",
            SweepPointError::DegenerateFit { .. } => "degenerate_fit",
        }
    }

    /// Whether the supervisor's retry policy may re-attempt the point.
    ///
    /// Transient/numerical failures retry (a halved step or a longer
    /// settle can rescue them); wiring errors are deterministic facts
    /// about the topology and panics are treated as non-retryable bugs.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SweepPointError::LockTimeout { .. }
                | SweepPointError::NumericalDivergence { .. }
                | SweepPointError::StepBudgetExhausted { .. }
                | SweepPointError::DegenerateFit { .. }
        )
    }

    /// Renders a caught panic payload into a [`SweepPointError`].
    ///
    /// Supervisor guardrails abort a point via
    /// [`std::panic::panic_any`] with a `SweepPointError` payload, which
    /// this recovers *typed*; plain `&str`/`String` panics become
    /// [`WorkerPanic`](Self::WorkerPanic).
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast::<SweepPointError>() {
            Ok(err) => *err,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                SweepPointError::WorkerPanic { message }
            }
        }
    }
}

impl std::fmt::Display for SweepPointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepPointError::LockTimeout {
                timeout_secs,
                consecutive_cycles,
                required_cycles,
            } => write!(
                f,
                "lock timeout after {timeout_secs} s \
                 ({consecutive_cycles}/{required_cycles} qualifying cycles)"
            ),
            SweepPointError::NumericalDivergence { t, quantity, value } => {
                write!(f, "numerical divergence at t = {t} s: {quantity} = {value}")
            }
            SweepPointError::StepBudgetExhausted { t, steps, budget } => write!(
                f,
                "step budget exhausted at t = {t} s ({steps} steps, budget {budget})"
            ),
            SweepPointError::FaultWiring(e) => write!(f, "fault wiring: {e}"),
            SweepPointError::WorkerPanic { message } => {
                write!(f, "worker panicked: {message}")
            }
            SweepPointError::DegenerateFit { f_mod_hz } => {
                write!(f, "degenerate fit at f_mod = {f_mod_hz} Hz")
            }
        }
    }
}

impl std::error::Error for SweepPointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepPointError::FaultWiring(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FaultWiringError> for SweepPointError {
    fn from(e: FaultWiringError) -> Self {
        SweepPointError::FaultWiring(e)
    }
}

/// Why a campaign could not run: its engine cannot represent the
/// configuration, or its resumable results file could not be used.
///
/// The results-file variants come from [`crate::campaign::CampaignLog`]:
/// a resume must *refuse* a file it cannot prove belongs to this exact
/// run (config digest + grid size) rather than silently merging foreign
/// points into the output — the whole value of the results file is that
/// a resumed run is byte-identical to an uninterrupted one.
#[derive(Debug)]
pub enum CampaignError {
    /// [`crate::engine::PllEngine::check_class`] refused the plan.
    OutOfClass(OutOfClass),
    /// Filesystem failure on the results file.
    Io(std::io::Error),
    /// The file's campaign header does not match this run (different
    /// config digest or point count) — likely a stale file from an
    /// earlier grid definition.
    HeaderMismatch {
        /// Digest/points expected by the resuming run.
        expected: String,
        /// Digest/points found in the file.
        found: String,
    },
    /// A non-trailing line could not be parsed as a campaign record
    /// (a truncated *final* line is tolerated — that is what a kill
    /// mid-write leaves behind — but corruption anywhere else is not).
    Malformed {
        /// One-based line number of the offending record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::OutOfClass(e) => write!(f, "plan out of the engine's class: {e}"),
            CampaignError::Io(e) => write!(f, "campaign file I/O: {e}"),
            CampaignError::HeaderMismatch { expected, found } => write!(
                f,
                "campaign header mismatch: expected {expected}, found {found}"
            ),
            CampaignError::Malformed { line, reason } => {
                write!(f, "malformed campaign record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            CampaignError::OutOfClass(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_analog::fault::Fault;

    #[test]
    fn kinds_are_stable_tags() {
        let errs = [
            SweepPointError::LockTimeout {
                timeout_secs: 0.1,
                consecutive_cycles: 3,
                required_cycles: 16,
            },
            SweepPointError::NumericalDivergence {
                t: 1.0,
                quantity: "control_voltage",
                value: f64::NAN,
            },
            SweepPointError::StepBudgetExhausted {
                t: 1.0,
                steps: 10,
                budget: 5,
            },
            SweepPointError::WorkerPanic {
                message: "boom".into(),
            },
            SweepPointError::DegenerateFit { f_mod_hz: 8.0 },
        ];
        let kinds: Vec<_> = errs.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "lock_timeout",
                "numerical_divergence",
                "step_budget_exhausted",
                "worker_panic",
                "degenerate_fit"
            ]
        );
        for e in &errs {
            assert!(!e.to_string().is_empty());
            assert!(
                ERROR_KINDS.contains(&e.kind()),
                "{} not registered",
                e.kind()
            );
        }
        assert!(ERROR_KINDS.contains(&"fault_wiring"));
        assert_eq!(ERROR_KINDS.len(), 6);
    }

    #[test]
    fn error_kinds_stays_in_sync_with_the_variant_set() {
        // One representative per variant, tagged through a
        // **wildcard-free** match: adding a `SweepPointError` variant
        // fails to compile this test until a representative (and its
        // tag) is added here — and the assertions below then force the
        // same extension onto `ERROR_KINDS`, in declaration order.
        let wiring = crate::config::PllConfig::paper_table3()
            .with_fault(Fault::PumpMismatch(1.2))
            .map(|_| ())
            .unwrap_err();
        let representatives = [
            SweepPointError::LockTimeout {
                timeout_secs: 0.1,
                consecutive_cycles: 3,
                required_cycles: 16,
            },
            SweepPointError::NumericalDivergence {
                t: 1.0,
                quantity: "control_voltage",
                value: f64::NAN,
            },
            SweepPointError::StepBudgetExhausted {
                t: 1.0,
                steps: 10,
                budget: 5,
            },
            SweepPointError::FaultWiring(wiring),
            SweepPointError::WorkerPanic {
                message: "boom".into(),
            },
            SweepPointError::DegenerateFit { f_mod_hz: 8.0 },
        ];
        let tags: Vec<&'static str> = representatives
            .iter()
            .map(|e| match e {
                SweepPointError::LockTimeout { .. } => "lock_timeout",
                SweepPointError::NumericalDivergence { .. } => "numerical_divergence",
                SweepPointError::StepBudgetExhausted { .. } => "step_budget_exhausted",
                SweepPointError::FaultWiring(_) => "fault_wiring",
                SweepPointError::WorkerPanic { .. } => "worker_panic",
                SweepPointError::DegenerateFit { .. } => "degenerate_fit",
            })
            .collect();
        // Every variant is represented exactly once, and the registry
        // lists exactly these tags in declaration order.
        assert_eq!(tags, ERROR_KINDS, "ERROR_KINDS out of sync");
        for (e, tag) in representatives.iter().zip(&tags) {
            assert_eq!(e.kind(), *tag, "kind() disagrees with the registry");
        }
        let mut deduped = tags.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), representatives.len(), "duplicate tag");
    }

    #[test]
    fn retry_policy_splits_transient_from_structural() {
        assert!(SweepPointError::LockTimeout {
            timeout_secs: 0.1,
            consecutive_cycles: 0,
            required_cycles: 16,
        }
        .is_retryable());
        assert!(SweepPointError::DegenerateFit { f_mod_hz: 1.0 }.is_retryable());
        assert!(!SweepPointError::WorkerPanic {
            message: "x".into()
        }
        .is_retryable());
        let wiring = crate::config::PllConfig::paper_table3()
            .with_fault(Fault::PumpMismatch(1.2))
            .map(|_| ())
            .unwrap_err();
        let err: SweepPointError = wiring.into();
        assert_eq!(err.kind(), "fault_wiring");
        assert!(!err.is_retryable());
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn only_uncontained_payloads_reach_the_previous_hook() {
        let reported = |payload: Box<dyn std::any::Any + Send>| {
            let mut called = false;
            report_uncontained(&*payload, || called = true);
            called
        };
        assert!(!reported(Box::new(InjectedKill)));
        assert!(!reported(Box::new(SweepPointError::WorkerPanic {
            message: "injected worker panic at point 3".into()
        })));
        assert!(!reported(Box::new(SweepPointError::DegenerateFit {
            f_mod_hz: 8.0
        })));
        assert!(reported(Box::new("a real bug")));
        assert!(reported(Box::new(String::from("a real bug at 7"))));
        assert!(reported(Box::new(42_u32)));
    }

    #[test]
    fn panic_payloads_round_trip() {
        let typed = std::panic::catch_unwind(|| {
            std::panic::panic_any(SweepPointError::DegenerateFit { f_mod_hz: 4.0 })
        })
        .unwrap_err();
        assert_eq!(
            SweepPointError::from_panic(typed),
            SweepPointError::DegenerateFit { f_mod_hz: 4.0 }
        );
        let s = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(
            SweepPointError::from_panic(s),
            SweepPointError::WorkerPanic {
                message: "boom 7".into()
            }
        );
    }
}
