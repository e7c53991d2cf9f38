#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Mixed-signal closed-loop CP-PLL simulation.
//!
//! Two loop models share one component catalogue (`pllbist-analog`,
//! `pllbist-digital`):
//!
//! * [`loop_shell`] — the behavioural loop, written once: the PFD is an
//!   edge state machine, the hold mux, divider, reference-edge scheduler,
//!   instrumentation and checkpointing live in one `LoopShell`, and
//!   reference/feedback edges bound constant-drive segments, whose
//!   feedback edges one solver finds (safeguarded Newton on the phase
//!   advance, whose derivative is the VCO frequency).
//! * [`behavioral`] (`CpPll`) — the shell over its one integrator. Under
//!   each drive with a scalar filter reduction and a linear VCO, a
//!   segment is one closed-form affine step (Kuznetsov–Yuldashev style:
//!   state, output and phase integral from one exponential); elsewhere
//!   (ripple capacitors, VCO curvature and clamping, a frequency law
//!   below zero) the filter's state vector is stepped **exactly** over
//!   micro-steps. Handles every configuration, cold start included.
//! * [`cosim`] — gate-level co-simulation: the digital side (DCO, dividers,
//!   PFDs, counters, the paper's fig. 7 peak detector) runs in the
//!   `pllbist-digital` event kernel with real propagation delays while the
//!   analogue loop integrates between events. Used to validate the fast
//!   path and to regenerate the waveform-level figures.
//!
//! All of them (plus the closed-form reference adapter) implement the
//! [`engine::PllEngine`] trait, so the BIST monitor and every sweep
//! drive them interchangeably; [`scenario`] owns the shared
//! settle→stimulate→capture pipeline with lock-state checkpointing.
//!
//! Supporting modules: [`config`] (the PLL description and fault
//! injection), [`linear`] (closed-loop transfer function, eq. 4/5/6 of the
//! paper), [`stimulus`] (sine FM, two-tone and multi-tone FSK — fig. 4),
//! [`bench_measure`] (the fig. 3 bench-style measurement baseline that
//! needs analogue node access), [`parallel`] (the one work-stealing
//! executor under the campaign runner — each modulation point is
//! independent, so sweeps scale with cores), and the robustness layer:
//! [`error`] (the typed per-point failure taxonomy) plus [`supervisor`]
//! (guardrails, panic isolation and deterministic quarantine-and-retry
//! over the scenario pipeline).
//!
//! # Example
//!
//! Lock the paper's PLL and check it stays at the lock frequency:
//!
//! ```
//! use pllbist_sim::config::PllConfig;
//! use pllbist_sim::behavioral::CpPll;
//!
//! let config = PllConfig::paper_table3();
//! let mut pll = CpPll::new_locked(&config);
//! pll.advance_to(0.1); // run 100 ms at lock
//! let f = pll.average_frequency_hz(0.05); // counter-style readout
//! assert!((f - 5_000.0).abs() < 5.0, "still at lock: {f}");
//! ```

pub mod behavioral;
pub mod bench_measure;
pub mod campaign;
pub mod config;
pub mod cosim;
pub mod durable;
pub mod engine;
pub mod error;
pub mod linear;
pub mod lock;
pub mod loop_shell;
pub mod noise;
pub mod observe;
pub mod parallel;
pub mod plan;
pub mod scenario;
pub mod server;
pub mod service;
pub mod sidecar;
pub mod stimulus;
pub mod supervisor;
pub mod transient;

pub use behavioral::{CpPll, EventDrivenCpPll};
pub use campaign::{CampaignLog, NullCodec, PointCodec};
pub use config::PllConfig;
pub use engine::{AnalogAccess, ClosedFormPll, PllEngine, WorkStats};
pub use error::{CampaignError, SweepPointError, ERROR_KINDS};
pub use linear::LoopAnalysis;
pub use observe::{CampaignObserver, ObservatoryConfig};
pub use plan::{CampaignPlan, Scheduler};
pub use scenario::{run_plan, PlanOutcome, PlanRun, Scenario};
pub use server::{http_get, http_get_with_retries, http_post, HttpError};
pub use service::{
    submission_body, CampaignService, CrashFault, FaultPlan, JobSpec, ServiceConfig, VoltsCodec,
};
pub use sidecar::{LockSidecar, SidecarOutcome};
pub use supervisor::{Incident, IncidentAction, Supervised, SupervisorPolicy};
