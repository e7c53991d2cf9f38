//! The composable campaign description: one [`CampaignPlan`] instead of
//! a combinatorial family of suffixed entry points. Engine, checkpoint
//! reuse, supervision, scheduling, resume and observation are orthogonal
//! axes, so they are **options on one plan**:
//!
//! ```no_run
//! use pllbist_sim::config::PllConfig;
//! use pllbist_sim::engine::ClosedFormPll;
//! use pllbist_sim::plan::{CampaignPlan, Scheduler};
//! use pllbist_sim::supervisor::SupervisorPolicy;
//!
//! let plan = CampaignPlan::new(PllConfig::paper_table3())
//!     .engine::<ClosedFormPll>()
//!     .checkpoint(true)
//!     .supervised(SupervisorPolicy::default())
//!     .scheduler(Scheduler::WorkStealing { threads: 8 })
//!     .resume_from("campaign.jsonl");
//! ```
//!
//! Every plan runs through the one plan entry,
//! [`crate::scenario::run_plan`] (or its two steps,
//! [`crate::scenario::PlanRun`]); on a healthy grid every combination is
//! bitwise identical to the serial unsupervised baseline at every thread
//! count (pinned by `crates/sim/tests/plan_matrix.rs`).
//!
//! A plan is also the campaign service's **submission payload**:
//! [`CampaignPlan::header_line`] serialises everything result-affecting
//! (config digest, grid size, engine backend, lock-settle override,
//! whether supervision is on) and [`CampaignPlan::from_header`]
//! round-trips it, refusing backend or digest mismatches like a foreign
//! results file. The supervision ladder's thresholds are constants
//! ([`SupervisorPolicy`]), so the header carries no threshold values.
//! Scheduling knobs are **excluded from the digest**: they never change
//! results, so a campaign killed on 16 threads may resume on 1.

use crate::behavioral::CpPll;
use crate::campaign::{
    bits_hex, config_digest, f64_from_bits_hex, json_bool_field, json_str_field, json_u64_field,
};
use crate::config::PllConfig;
use crate::engine::PllEngine;
use crate::error::CampaignError;
use crate::observe::CampaignObserver;
use crate::scenario::Scenario;
use crate::supervisor::SupervisorPolicy;
use pllbist_telemetry::TelemetryConfig;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The digest salt's policy text for a supervised plan: the `Debug` form
/// of [`SupervisorPolicy::default`] from when its thresholds were
/// settable fields. Kept verbatim so results files, job ids and job
/// directories written then still resume under the same digest.
const SUPERVISED_SALT: &str = "SupervisorPolicy { max_retries: 2, retry_step_scale: 0.5, \
     retry_settle_scale: 1.5, step_budget: 10000000, control_rails: None, \
     rail_margin_fraction: 1e-9, rail_overshoot_fraction: 10.0, rail_streak_limit: 256 }";

/// How sweep points are distributed over workers.
///
/// Both variants run the same work-stealing executor
/// ([`crate::parallel::par_map_points_worker`]); `Serial` is exactly the
/// one-worker schedule (no threads spawned, points claimed in input
/// order), kept as a named variant because serial runs are the
/// bit-exactness baseline every parallel schedule is compared against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheduler {
    /// One worker on the caller's thread.
    Serial,
    /// Work-stealing over `threads` workers (`0` = one per core).
    WorkStealing {
        /// Worker threads: `0` = auto ([`crate::parallel::available_parallelism`]).
        threads: usize,
    },
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::WorkStealing { threads: 0 }
    }
}

impl Scheduler {
    /// The `threads` knob this schedule lowers to (`Serial` = 1).
    pub fn threads(self) -> usize {
        match self {
            Scheduler::Serial => 1,
            Scheduler::WorkStealing { threads } => threads,
        }
    }
}

/// A complete, self-contained description of one sweep campaign:
/// engine backend, configuration, lock-settle wait, checkpoint reuse,
/// supervision, scheduling, resume file (with its lock sidecar) and
/// observer.
///
/// Construct with [`CampaignPlan::new`] and chain the builder methods;
/// execute it on the one plan entry, [`crate::scenario::run_plan`],
/// directly or through the bench layer
/// ([`crate::bench_measure::run_sweep`]), the campaign service or the
/// monitor (`TransferFunctionMonitor::measure`). See the
/// [module docs](self) for the digest/serialisation contract.
pub struct CampaignPlan<E: PllEngine = CpPll> {
    config: PllConfig,
    lock_settle_secs: Option<f64>,
    checkpoint: bool,
    supervision: Option<SupervisorPolicy>,
    scheduler: Scheduler,
    resume_path: Option<PathBuf>,
    observer: Option<Arc<CampaignObserver>>,
    telemetry: TelemetryConfig,
    _engine: PhantomData<fn() -> E>,
}

impl<E: PllEngine> Clone for CampaignPlan<E> {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            lock_settle_secs: self.lock_settle_secs,
            checkpoint: self.checkpoint,
            supervision: self.supervision.clone(),
            scheduler: self.scheduler,
            resume_path: self.resume_path.clone(),
            observer: self.observer.clone(),
            telemetry: self.telemetry.clone(),
            _engine: PhantomData,
        }
    }
}

impl<E: PllEngine> std::fmt::Debug for CampaignPlan<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignPlan")
            .field("backend", &E::backend_name())
            .field("lock_settle_secs", &self.lock_settle_secs)
            .field("checkpoint", &self.checkpoint)
            .field("supervision", &self.supervision)
            .field("scheduler", &self.scheduler)
            .field("resume_path", &self.resume_path)
            .field("observed", &self.observer.is_some())
            .field("telemetry", &self.telemetry)
            .finish_non_exhaustive()
    }
}

impl CampaignPlan<CpPll> {
    /// A plan with the defaults every legacy entry point assumed: the
    /// behavioural [`CpPll`] backend, auto lock settle
    /// ([`crate::scenario::settle_time`]), checkpoint reuse on, no
    /// supervision, auto-threaded work stealing, no resume file, no
    /// observer, telemetry off.
    ///
    /// `CpPll` runs every configuration, on its closed-form segments
    /// wherever the filter and VCO allow; the other backends are
    /// selected with [`engine`](Self::engine).
    pub fn new(config: PllConfig) -> Self {
        Self {
            config,
            lock_settle_secs: None,
            checkpoint: true,
            supervision: None,
            scheduler: Scheduler::default(),
            resume_path: None,
            observer: None,
            telemetry: TelemetryConfig::disabled(),
            _engine: PhantomData,
        }
    }
}

impl<E: PllEngine> CampaignPlan<E> {
    /// Re-types the plan onto engine backend `E2`, keeping every option.
    ///
    /// The backend is part of the digest: engines agree physically but
    /// not bit for bit, so results produced by one must never be resumed
    /// by another.
    pub fn engine<E2: PllEngine>(self) -> CampaignPlan<E2> {
        CampaignPlan {
            config: self.config,
            lock_settle_secs: self.lock_settle_secs,
            checkpoint: self.checkpoint,
            supervision: self.supervision,
            scheduler: self.scheduler,
            resume_path: self.resume_path,
            observer: self.observer,
            telemetry: self.telemetry,
            _engine: PhantomData,
        }
    }

    /// Overrides the lock-settle wait (the monitor's `loop_settle_secs`
    /// knob). Result-affecting: part of the digest.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite (same contract as
    /// [`Scenario::with_lock_settle`]).
    pub fn lock_settle(mut self, secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "lock settle must be non-negative"
        );
        self.lock_settle_secs = Some(secs);
        self
    }

    /// Reuse one settled lock snapshot across the sweep (default `true`).
    /// [`PllEngine::restore`] is bit-exact, so this changes wall-clock
    /// time only, never results — and is therefore *not* in the digest.
    pub fn checkpoint(mut self, on: bool) -> Self {
        self.checkpoint = on;
        self
    }

    /// Runs every point under the sweep supervisor: guardrails, panic
    /// isolation, deterministic quarantine-and-retry on the fixed
    /// [`SupervisorPolicy`] ladder. Result-affecting on sick devices
    /// (retries are part of the outcome), so supervision is part of the
    /// digest.
    pub fn supervised(mut self, policy: SupervisorPolicy) -> Self {
        self.supervision = Some(policy);
        self
    }

    /// Removes supervision (the default): a point failure is returned
    /// as-is with no retries, and guardrails are off.
    pub fn unsupervised(mut self) -> Self {
        self.supervision = None;
        self
    }

    /// Picks the point schedule (default: auto-threaded work stealing).
    /// Never result-affecting; excluded from the digest.
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Attaches a resumable results file: completed points load from
    /// `path` and newly computed points stream to it, so a killed
    /// campaign restarts where it left off (see [`crate::campaign`]).
    ///
    /// A checkpointed plan with a results file also keeps its settled
    /// lock snapshot in a [`crate::sidecar::LockSidecar`] next to it
    /// (`campaign.jsonl` → `campaign.ckpt`), so a resumed run skips the
    /// settle transient. A missing, foreign or torn sidecar falls back
    /// to re-settling, and restores are bit-exact: the sidecar changes
    /// wall-clock time only, never results.
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_path = Some(path.into());
        self
    }

    /// Attaches a [`CampaignObserver`]: claims, outcomes, incidents and
    /// log flushes are reported live. Observers are read-only — results
    /// are byte-identical with and without one.
    pub fn observed(mut self, observer: Arc<CampaignObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Telemetry for the run (default off). Telemetry observes, never
    /// steers; excluded from the digest.
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }

    /// The configuration this plan measures.
    pub fn config(&self) -> &PllConfig {
        &self.config
    }

    /// The engine backend's stable tag ([`PllEngine::backend_name`]).
    pub fn backend(&self) -> &'static str {
        E::backend_name()
    }

    /// The explicit lock-settle override, if any (`None` = the
    /// [`crate::scenario::settle_time`] heuristic).
    pub fn lock_settle_override(&self) -> Option<f64> {
        self.lock_settle_secs
    }

    /// Whether the sweep reuses one settled lock snapshot.
    pub fn checkpoint_enabled(&self) -> bool {
        self.checkpoint
    }

    /// The supervision ladder, if supervision is on.
    pub fn supervision(&self) -> Option<&SupervisorPolicy> {
        self.supervision.as_ref()
    }

    /// The point schedule.
    pub fn schedule(&self) -> Scheduler {
        self.scheduler
    }

    /// The resumable results file, if one is attached.
    pub fn resume_path(&self) -> Option<&Path> {
        self.resume_path.as_deref()
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&CampaignObserver> {
        self.observer.as_deref()
    }

    /// The telemetry configuration.
    pub fn telemetry_config(&self) -> &TelemetryConfig {
        &self.telemetry
    }

    /// The [`Scenario`] this plan's runs start from: the config plus the
    /// effective lock-settle wait.
    pub fn scenario(&self) -> Scenario<'_> {
        match self.lock_settle_secs {
            Some(secs) => Scenario::with_lock_settle(&self.config, secs),
            None => Scenario::new(&self.config),
        }
    }

    /// The part of the digest salt the plan itself contributes: engine
    /// backend, lock-settle override and supervision. Scheduling
    /// knobs (threads, checkpoint, telemetry, observer, resume path) are
    /// deliberately absent — they never change results.
    fn digest_salt(&self, workload_salt: &str) -> String {
        let settle = self
            .lock_settle_secs
            .map_or_else(|| "auto".to_string(), bits_hex);
        let policy = match self.supervision {
            Some(_) => SUPERVISED_SALT,
            None => "none",
        };
        format!(
            "plan|{workload_salt}|engine:{}|settle:{settle}|policy:{policy}",
            E::digest_tag()
        )
    }

    /// The campaign config digest of this plan over `f_mod_hz`:
    /// [`config_digest`] over the config, the grid and the plan's
    /// result-affecting options plus the caller's `workload_salt`
    /// (measurement settings the plan does not know about).
    pub fn digest(&self, f_mod_hz: &[f64], workload_salt: &str) -> String {
        config_digest(&self.config, f_mod_hz, &self.digest_salt(workload_salt))
    }

    /// Serialises the plan as one campaign-shaped JSONL header line: the
    /// existing `{"type":"campaign","digest":…,"points":…}` shape
    /// extended with the backend tag and every result-affecting plan
    /// option, each `f64` as its exact bit pattern. This is the
    /// submission payload the campaign service front door accepts.
    pub fn header_line(&self, f_mod_hz: &[f64], workload_salt: &str) -> String {
        let mut line = format!(
            "{{\"type\":\"campaign\",\"digest\":\"{}\",\"points\":{},\"backend\":\"{}\",\"checkpoint\":{}",
            self.digest(f_mod_hz, workload_salt),
            f_mod_hz.len(),
            E::backend_name(),
            self.checkpoint,
        );
        if let Some(settle) = self.lock_settle_secs {
            line.push_str(&format!(",\"lock_settle_bits\":\"{}\"", bits_hex(settle)));
        }
        line.push_str(&format!(",\"supervised\":{}}}", self.supervision.is_some()));
        line
    }

    /// Rebuilds a plan from a [`header_line`](Self::header_line) (the
    /// digest round trip the campaign service depends on). The caller
    /// supplies the config, grid and workload salt the header was
    /// written against; the header contributes the result-affecting plan
    /// options. Scheduling knobs come back at their defaults — they were
    /// never serialised. Any other key is ignored: a header naming
    /// supervision thresholds other than the fixed ladder's has a digest
    /// over those values, so it is refused by the digest check.
    ///
    /// # Errors
    ///
    /// * [`CampaignError::HeaderMismatch`] when the header's backend tag
    ///   is not `E`'s, its point count is not the grid's, or its digest
    ///   does not match the one recomputed from the rebuilt plan — the
    ///   same refusal a foreign results file gets.
    /// * [`CampaignError::Malformed`] when required fields are missing
    ///   or unparsable.
    pub fn from_header(
        line: &str,
        config: PllConfig,
        f_mod_hz: &[f64],
        workload_salt: &str,
    ) -> Result<Self, CampaignError> {
        let malformed = |reason: &str| CampaignError::Malformed {
            line: 1,
            reason: reason.to_string(),
        };
        let digest = json_str_field(line, "digest").ok_or_else(|| malformed("missing digest"))?;
        let points = json_u64_field(line, "points").ok_or_else(|| malformed("missing points"))?;
        let backend =
            json_str_field(line, "backend").ok_or_else(|| malformed("missing backend"))?;
        if backend != E::backend_name() {
            return Err(CampaignError::HeaderMismatch {
                expected: format!("backend \"{}\"", E::backend_name()),
                found: format!("backend \"{backend}\""),
            });
        }
        if points != f_mod_hz.len() as u64 {
            return Err(CampaignError::HeaderMismatch {
                expected: format!("points {}", f_mod_hz.len()),
                found: format!("points {points}"),
            });
        }
        let checkpoint =
            json_bool_field(line, "checkpoint").ok_or_else(|| malformed("missing checkpoint"))?;
        let lock_settle_secs = match json_str_field(line, "lock_settle_bits") {
            Some(bits) => Some(
                f64_from_bits_hex(&bits).ok_or_else(|| malformed("invalid lock_settle_bits"))?,
            ),
            None => None,
        };
        let supervised =
            json_bool_field(line, "supervised").ok_or_else(|| malformed("missing supervised"))?;
        let mut plan = CampaignPlan::new(config)
            .engine::<E>()
            .checkpoint(checkpoint);
        plan.lock_settle_secs = lock_settle_secs;
        plan.supervision = supervised.then(SupervisorPolicy::default);
        let recomputed = plan.digest(f_mod_hz, workload_salt);
        if recomputed != digest {
            return Err(CampaignError::HeaderMismatch {
                expected: format!("digest {recomputed}"),
                found: format!("digest {digest}"),
            });
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClosedFormPll;

    #[test]
    fn builder_lowers_options_onto_fields() {
        let plan = CampaignPlan::new(PllConfig::paper_table3())
            .engine::<ClosedFormPll>()
            .checkpoint(false)
            .supervised(SupervisorPolicy::default())
            .scheduler(Scheduler::WorkStealing { threads: 8 })
            .resume_from("campaign.jsonl")
            .lock_settle(0.25)
            .telemetry(TelemetryConfig::enabled());
        assert_eq!(plan.backend(), "closed_form");
        assert!(!plan.checkpoint_enabled());
        assert_eq!(plan.supervision(), Some(&SupervisorPolicy::default()));
        assert_eq!(plan.schedule().threads(), 8);
        assert_eq!(
            plan.resume_path(),
            Some(std::path::Path::new("campaign.jsonl"))
        );
        assert_eq!(plan.lock_settle_override(), Some(0.25));
        assert_eq!(plan.telemetry_config(), &TelemetryConfig::enabled());
        assert_eq!(plan.scenario().lock_settle_secs(), 0.25);
        // Defaults.
        let plain = CampaignPlan::new(PllConfig::paper_table3());
        assert_eq!(plain.backend(), "cp_pll");
        assert!(plain.checkpoint_enabled());
        assert!(plain.supervision().is_none());
        assert_eq!(plain.schedule(), Scheduler::WorkStealing { threads: 0 });
        assert_eq!(Scheduler::Serial.threads(), 1);
    }

    #[test]
    fn digest_excludes_scheduling_but_not_results_inputs() {
        let cfg = PllConfig::paper_table3();
        let grid = [2.0, 8.0, 20.0];
        let base = CampaignPlan::new(cfg.clone()).digest(&grid, "w");
        // Scheduling knobs never change results → never change the digest.
        let rescheduled = CampaignPlan::new(cfg.clone())
            .checkpoint(false)
            .scheduler(Scheduler::Serial)
            .telemetry(TelemetryConfig::enabled())
            .resume_from("x.jsonl")
            .digest(&grid, "w");
        assert_eq!(base, rescheduled);
        // Result-affecting inputs must change it.
        assert_ne!(
            base,
            CampaignPlan::new(cfg.clone())
                .engine::<ClosedFormPll>()
                .digest(&grid, "w")
        );
        assert_ne!(
            base,
            CampaignPlan::new(cfg.clone())
                .supervised(SupervisorPolicy::default())
                .digest(&grid, "w")
        );
        assert_ne!(
            base,
            CampaignPlan::new(cfg.clone())
                .lock_settle(0.1)
                .digest(&grid, "w")
        );
        assert_ne!(base, CampaignPlan::new(cfg.clone()).digest(&grid, "other"));
        assert_ne!(base, CampaignPlan::new(cfg).digest(&grid[..2], "w"));
    }
}
