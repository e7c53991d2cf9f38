//! The shared settle→stimulate→capture pipeline and the **one** plan
//! entry every measurement lowers onto.
//!
//! Every transfer-function measurement here — the Table 2 BIST monitor,
//! the bench-style baseline, the service's campaigns — walks the same
//! skeleton: build a locked loop, let the lock transient die out, program
//! a stimulus, wait for the modulation steady state, capture. This module
//! owns it once, for any [`PllEngine`], with **lock-state
//! checkpointing**: the settle runs once per configuration and each point
//! restores the snapshot.
//!
//! [`run_plan`] (or its two steps, [`PlanRun::open`] then
//! [`PlanRun::run`]) lowers a [`CampaignPlan`] onto the one runner,
//! composing checkpointing, supervision, work stealing, resume and
//! observation from the plan's options. Every capture receives the
//! point's grid index and every run returns one [`PlanOutcome`];
//! [`Scenario::run_points`] is a value-only shim for callers that own
//! their log and collector.
//!
//! No option changes results on a healthy grid: restores are bit-exact,
//! guardrails read-only, observers and telemetry only watch, scheduling
//! only picks *which worker* computes a point. A run with every option on
//! is bitwise identical to the serial unsupervised baseline at any thread
//! count (pinned by `crates/sim/tests/plan_matrix.rs` and the
//! workspace's `checkpoint_determinism` test).

use crate::campaign::{CampaignLog, PointCodec};
use crate::config::PllConfig;
use crate::engine::PllEngine;
use crate::error::{CampaignError, SweepPointError};
use crate::observe::CampaignObserver;
use crate::parallel::par_try_map_points_worker;
use crate::plan::CampaignPlan;
use crate::sidecar::{LockSidecar, SidecarOutcome};
use crate::stimulus::FmStimulus;
use crate::supervisor::{
    emit_incident, engine_for_attempt, supervised_point, Incident, IncidentAction, Supervised,
    SupervisorPolicy,
};
use pllbist_telemetry::{Collector, Record};
use std::collections::BTreeMap;

/// The loop-settle-time heuristic, in seconds — the **single** workspace
/// definition (bench, monitor and transient-horizon logic all derive
/// from here).
///
/// A second-order loop's envelope decays as `exp(−ζ·ωn·t)`; after
/// `8/(ζ·ωn)` the lock transient is at `e⁻⁸ ≈ 3×10⁻⁴` of its initial
/// amplitude, comfortably below the BIST counters' quantisation floor.
/// The `max(1e-9)` guard keeps degenerate (near-undamped) configurations
/// finite rather than dividing by zero.
pub fn settle_time(config: &PllConfig) -> f64 {
    let params = config.analysis().dominant_params();
    8.0 / (params.damping * params.omega_n).max(1e-9)
}

/// One measurement scenario: a configuration plus the lock-settle wait
/// its engines start from. It builds engines at their *settled* lock
/// point, from scratch ([`settle_fresh`](Self::settle_fresh)) or by
/// restoring a [`lock_checkpoint`](Self::lock_checkpoint).
#[derive(Clone, Copy, Debug)]
pub struct Scenario<'a> {
    config: &'a PllConfig,
    lock_settle_secs: f64,
}

impl<'a> Scenario<'a> {
    /// A scenario whose lock-settle wait is the documented
    /// [`settle_time`] heuristic.
    pub fn new(config: &'a PllConfig) -> Self {
        Self {
            config,
            lock_settle_secs: settle_time(config),
        }
    }

    /// A scenario with an explicit lock-settle wait (the monitor's
    /// `loop_settle_secs` knob).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn with_lock_settle(config: &'a PllConfig, secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "lock settle must be non-negative"
        );
        Self {
            config,
            lock_settle_secs: secs,
        }
    }

    /// The configuration this scenario measures.
    pub fn config(&self) -> &'a PllConfig {
        self.config
    }

    /// The lock-settle wait in seconds.
    pub fn lock_settle_secs(&self) -> f64 {
        self.lock_settle_secs
    }

    /// Builds a locked engine and runs the lock-settle wait from scratch.
    pub fn settle_fresh<E: PllEngine>(&self) -> E {
        let mut pll = E::new_locked(self.config);
        let t0 = pll.time();
        pll.advance_to(t0 + self.lock_settle_secs);
        pll
    }

    /// Settles one engine from scratch and snapshots it — the per-config
    /// cost a checkpointed sweep pays exactly once.
    pub fn lock_checkpoint<E: PllEngine>(&self, telemetry: &Collector) -> E::Checkpoint {
        let _span = pllbist_telemetry::span!(telemetry, "scenario.checkpoint");
        self.settle_fresh::<E>().checkpoint()
    }

    /// An engine ready for one sweep point: restored from `snapshot` when
    /// one is given, settled from scratch otherwise. Both paths yield
    /// bit-identical state.
    pub fn point_engine<E: PllEngine>(&self, snapshot: Option<&E::Checkpoint>) -> E {
        match snapshot {
            Some(snap) => {
                let mut pll = E::new_locked(self.config);
                pll.restore(snap);
                pll
            }
            None => self.settle_fresh(),
        }
    }

    /// The stimulate stage: programs `stimulus` phase-continuously and
    /// waits `settle_secs` for the modulation steady state.
    pub fn stimulate<E: PllEngine>(pll: &mut E, stimulus: FmStimulus, settle_secs: f64) {
        pll.set_stimulus(stimulus);
        let t = pll.time();
        pll.advance_to(t + settle_secs);
    }

    /// **The** campaign runner with a value-only capture, for callers
    /// that own their log, sidecar and collector (replays, ablations);
    /// everything else enters through [`run_plan`], whose captures also
    /// get the grid index. Each feature is an argument: `threads` (work
    /// stealing, [`par_try_map_points_worker`]; `1` is the serial
    /// baseline), `checkpoint` (settle once, restore per point), `policy`
    /// (guardrails and the quarantine-and-retry ladder of
    /// [`supervised_point`]; panics are contained either way), `log`
    /// (resume: completed points load, counted in
    /// `campaign.points_skipped`; new ones stream in index order),
    /// `sidecar` (a valid one replaces the settle, `campaign.sidecar_hits`;
    /// a rejected one, `campaign.sidecar_rejects`, falls back and is
    /// rewritten) and `observer` (read-only live progress). On a healthy
    /// grid every combination captures the same sequence, so every result
    /// bit is identical at every thread count. The outcome's `telemetry`
    /// is empty: the caller drains its own collector.
    #[allow(clippy::too_many_arguments)]
    pub fn run_points<E, C, F>(
        &self,
        f_mod_hz: &[f64],
        threads: usize,
        checkpoint: bool,
        policy: Option<&SupervisorPolicy>,
        telemetry: &Collector,
        log: Option<&CampaignLog<C>>,
        sidecar: Option<&LockSidecar>,
        observer: Option<&CampaignObserver>,
        capture: F,
    ) -> PlanOutcome<C::Point>
    where
        E: PllEngine,
        C: PointCodec,
        C::Point: Clone + Sync,
        F: Fn(&mut Supervised<E>, f64) -> Result<C::Point, SweepPointError> + Sync,
    {
        self.sweep(
            f_mod_hz,
            threads,
            checkpoint,
            policy,
            telemetry,
            log,
            sidecar,
            observer,
            |pll, _, f_mod| capture(pll, f_mod),
        )
    }

    /// [`run_points`](Self::run_points) with an indexed capture: the
    /// indexed core under the plan entry. `capture` receives the point's
    /// engine, grid index and frequency.
    #[allow(clippy::too_many_arguments)]
    fn sweep<E, C, F>(
        &self,
        f_mod_hz: &[f64],
        threads: usize,
        checkpoint: bool,
        policy: Option<&SupervisorPolicy>,
        telemetry: &Collector,
        log: Option<&CampaignLog<C>>,
        sidecar: Option<&LockSidecar>,
        observer: Option<&CampaignObserver>,
        capture: F,
    ) -> PlanOutcome<C::Point>
    where
        E: PllEngine,
        C: PointCodec,
        C::Point: Clone + Sync,
        F: Fn(&mut Supervised<E>, usize, f64) -> Result<C::Point, SweepPointError> + Sync,
    {
        let missing: Vec<usize> = (0..f_mod_hz.len())
            .filter(|&i| !log.is_some_and(|log| log.is_completed(i)))
            .collect();
        let skipped = f_mod_hz.len() - missing.len();
        if log.is_some() {
            telemetry.add("campaign.points_skipped", skipped as u64);
        }
        if let Some(obs) = observer {
            obs.on_skipped(skipped);
        }
        let snapshot = if missing.is_empty() || !checkpoint {
            None
        } else {
            let cached = sidecar.and_then(|sc| match sc.load::<E>() {
                SidecarOutcome::Hit(snap) => {
                    telemetry.add("campaign.sidecar_hits", 1);
                    if let Some(obs) = observer {
                        obs.note("sidecar hit: settle skipped");
                    }
                    Some(snap)
                }
                SidecarOutcome::Rejected(reason) => {
                    telemetry.add("campaign.sidecar_rejects", 1);
                    if let Some(obs) = observer {
                        obs.note(&format!("sidecar rejected: {reason}"));
                    }
                    None
                }
                SidecarOutcome::Absent => None,
            });
            match cached {
                Some(snap) => Some(snap),
                None => {
                    // Settle once under the run's guardrails. A divergent
                    // settle drops the snapshot: each point then settles
                    // (and fails, and is quarantined) on its own.
                    let snap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _span = pllbist_telemetry::span!(telemetry, "scenario.checkpoint");
                        engine_for_attempt::<E>(self, None, policy, 0).checkpoint()
                    }))
                    .map_err(crate::error::rethrow_if_kill)
                    .ok();
                    if let (Some(sc), Some(snap)) = (sidecar, snap.as_ref()) {
                        // Best-effort cache write: an IO failure here
                        // costs the next restart a settle, nothing more.
                        let _ = sc.store::<E>(snap);
                    }
                    snap
                }
            }
        };
        let computed =
            par_try_map_points_worker(&missing, threads, telemetry, |worker, _, &index| {
                let f_mod = f_mod_hz[index];
                if let Some(obs) = observer {
                    obs.on_claim(worker, index);
                }
                let point_start = std::time::Instant::now();
                let outcome = supervised_point::<E, _, _>(
                    self,
                    snapshot.as_ref(),
                    policy,
                    f_mod,
                    telemetry,
                    |pll| capture(pll, index, f_mod),
                );
                if let Some(log) = log {
                    log.record(index, &outcome.result);
                }
                if let Some(obs) = observer {
                    obs.on_outcome(worker, index, &outcome, point_start.elapsed().as_secs_f64());
                    if log.is_some() {
                        obs.on_flush(worker, index);
                    }
                }
                Ok(outcome)
            });
        let mut fresh: BTreeMap<usize, _> = missing.iter().copied().zip(computed).collect();
        let mut points = Vec::with_capacity(f_mod_hz.len());
        let mut incidents = Vec::new();
        for (index, &f_mod) in f_mod_hz.iter().enumerate() {
            if let Some(loaded) = log.and_then(|log| log.loaded(index)) {
                points.push(loaded.clone());
                continue;
            }
            match fresh.remove(&index) {
                Some(Ok(point)) => {
                    incidents.extend(point.incidents);
                    points.push(point.result);
                }
                // A failure that escaped per-point containment: the
                // point never reached `log.record`, so write its
                // quarantined outcome here to keep the file's in-order
                // flusher moving.
                Some(Err(error)) => {
                    let incident = Incident {
                        f_mod_hz: f_mod,
                        attempt: 0,
                        action: IncidentAction::Quarantined,
                        error: error.clone(),
                    };
                    if policy.is_some() {
                        emit_incident(telemetry, &incident);
                    }
                    incidents.push(incident);
                    if let Some(log) = log {
                        log.record(index, &Err(error.clone()));
                    }
                    if let Some(obs) = observer {
                        obs.on_escaped_quarantine(index, &error);
                        if log.is_some() {
                            obs.on_flush(0, index);
                        }
                    }
                    points.push(Err(error));
                }
                None => unreachable!("index {index} neither loaded nor computed"),
            }
        }
        PlanOutcome {
            points,
            incidents,
            telemetry: Vec::new(),
        }
    }
}

/// A completed campaign run: per-point outcomes in input order, the
/// incident log, and the drained telemetry — the one result type of
/// [`run_plan`], [`PlanRun::run`] and [`Scenario::run_points`].
#[derive(Clone, Debug)]
pub struct PlanOutcome<R> {
    /// Per-point outcomes, aligned with the requested `f_mod_hz`.
    pub points: Vec<Result<R, SweepPointError>>,
    /// Every retry/quarantine incident, in occurrence order per point.
    pub incidents: Vec<Incident>,
    /// Drained telemetry (empty when the plan's telemetry is off, and
    /// from [`Scenario::run_points`], whose caller owns the collector).
    pub telemetry: Vec<Record>,
}

impl<R> PlanOutcome<R> {
    /// Number of healthy points.
    pub fn ok_count(&self) -> usize {
        self.points.iter().filter(|p| p.is_ok()).count()
    }

    /// Number of quarantined points.
    pub fn quarantined_count(&self) -> usize {
        self.points.len() - self.ok_count()
    }

    /// The surviving (non-quarantined) points, in sweep order.
    pub fn ok_points(&self) -> Vec<R>
    where
        R: Clone,
    {
        self.points.iter().filter_map(|p| p.clone().ok()).collect()
    }
}

/// A [`CampaignPlan`] opened over a grid — the open step of
/// [`run_plan`], for callers that need the run before it starts: the
/// service tells a refused results file from a failed open, the monitor
/// takes its nominal reading on the [`telemetry`](Self::telemetry).
pub struct PlanRun<'p, E: PllEngine, C: PointCodec> {
    plan: &'p CampaignPlan<E>,
    f_mod_hz: &'p [f64],
    telemetry: Collector,
    log: Option<CampaignLog<C>>,
    sidecar: Option<LockSidecar>,
}

impl<'p, E: PllEngine, C: PointCodec> PlanRun<'p, E, C> {
    /// [`in_memory`](Self::in_memory), plus the plan's resume file
    /// (digest = [`CampaignPlan::digest`] over `workload_salt`) and the
    /// lock sidecar next to it, when the plan names one.
    ///
    /// # Errors
    ///
    /// A results file that belongs to another campaign
    /// ([`CampaignError::HeaderMismatch`]), is corrupted before its final
    /// line, or fails on the filesystem.
    pub fn open(
        plan: &'p CampaignPlan<E>,
        f_mod_hz: &'p [f64],
        codec: C,
        workload_salt: &str,
    ) -> Result<Self, CampaignError> {
        let mut run = Self::in_memory(plan, f_mod_hz);
        if let Some(path) = plan.resume_path() {
            let digest = plan.digest(f_mod_hz, workload_salt);
            let log = CampaignLog::open(path, codec, digest.clone(), f_mod_hz.len())?;
            run.log = Some(log);
            run.sidecar = Some(LockSidecar::for_results_file(path, digest));
        }
        Ok(run)
    }

    /// Builds the run's collector. The plan's `resume_from` is ignored:
    /// nothing touches the disk (for outcomes that have no
    /// [`PointCodec`] yet).
    pub fn in_memory(plan: &'p CampaignPlan<E>, f_mod_hz: &'p [f64]) -> Self {
        Self {
            plan,
            f_mod_hz,
            telemetry: Collector::from_config(plan.telemetry_config()),
            log: None,
            sidecar: None,
        }
    }

    /// The run's collector, drained into [`PlanOutcome::telemetry`].
    pub fn telemetry(&self) -> &Collector {
        &self.telemetry
    }

    /// Runs the grid with every plan option composed in, closes the
    /// results file and drains the telemetry. `capture` gets the point's
    /// engine, grid index, modulation frequency and the run's collector.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`] from [`CampaignLog::finish`].
    pub fn run<F>(self, capture: F) -> Result<PlanOutcome<C::Point>, CampaignError>
    where
        C::Point: Clone + Sync,
        F: Fn(&mut Supervised<E>, usize, f64, &Collector) -> Result<C::Point, SweepPointError>
            + Sync,
    {
        let plan = self.plan;
        let mut outcome = plan.scenario().sweep::<E, C, _>(
            self.f_mod_hz,
            plan.schedule().threads(),
            plan.checkpoint_enabled(),
            plan.supervision(),
            &self.telemetry,
            self.log.as_ref(),
            self.sidecar.as_ref(),
            plan.observer(),
            |pll, index, f_mod| capture(pll, index, f_mod, &self.telemetry),
        );
        if let Some(log) = &self.log {
            log.finish(true)?;
        }
        outcome.telemetry = self.telemetry.drain();
        Ok(outcome)
    }
}

/// **The** plan entry, [`PlanRun::open`] then [`PlanRun::run`]: the bench
/// sweep, the service's attempts and (through [`PlanRun::in_memory`])
/// the Table 2 monitor all lower onto it.
///
/// # Errors
///
/// Those of the two steps; none for a plan without a resume file.
pub fn run_plan<E, C, F>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    codec: C,
    workload_salt: &str,
    capture: F,
) -> Result<PlanOutcome<C::Point>, CampaignError>
where
    E: PllEngine,
    C: PointCodec,
    C::Point: Clone + Sync,
    F: Fn(&mut Supervised<E>, usize, f64, &Collector) -> Result<C::Point, SweepPointError> + Sync,
{
    PlanRun::open(plan, f_mod_hz, codec, workload_salt)?.run(capture)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavioral::CpPll;
    use crate::campaign::NullCodec;
    use crate::engine::ClosedFormPll;

    #[test]
    fn settle_time_matches_dominant_pole_heuristic() {
        let cfg = PllConfig::paper_table3();
        let params = cfg.analysis().dominant_params();
        let t = settle_time(&cfg);
        assert!((t * params.damping * params.omega_n - 8.0).abs() < 1e-12);
        // fn = 8 Hz, ζ = 0.43 → ≈ 0.37 s.
        assert!(t > 0.2 && t < 0.6, "settle {t}");
    }

    #[test]
    fn point_engine_paths_are_bit_identical() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.3);
        let tel = Collector::disabled();
        let snap = scenario.lock_checkpoint::<CpPll>(&tel);
        let mut fresh: CpPll = scenario.settle_fresh();
        let mut restored: CpPll = scenario.point_engine(Some(&snap));
        assert_eq!(
            PllEngine::time(&fresh).to_bits(),
            PllEngine::time(&restored).to_bits()
        );
        Scenario::stimulate(&mut fresh, FmStimulus::pure_sine(1_000.0, 10.0, 8.0), 0.4);
        Scenario::stimulate(
            &mut restored,
            FmStimulus::pure_sine(1_000.0, 10.0, 8.0),
            0.4,
        );
        assert_eq!(
            fresh.vco_phase_cycles().to_bits(),
            restored.vco_phase_cycles().to_bits()
        );
        assert_eq!(
            fresh.control_voltage().to_bits(),
            restored.control_voltage().to_bits()
        );
    }

    fn capture_bits(
        pll: &mut Supervised<ClosedFormPll>,
        f_mod: f64,
    ) -> Result<u64, SweepPointError> {
        Scenario::stimulate(pll, FmStimulus::pure_sine(1_000.0, 10.0, f_mod), 0.1);
        let t = pll.time();
        pll.advance_to(t + 1.0 / f_mod);
        Ok(pll.vco_phase_cycles().to_bits())
    }

    #[test]
    fn runner_checkpoint_and_threads_invariant() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.05);
        let tones = [1.0, 4.0, 8.0, 12.0, 20.0];
        let tel = Collector::disabled();
        let baseline = scenario
            .run_points::<ClosedFormPll, NullCodec<u64>, _>(
                &tones,
                1,
                false,
                None,
                &tel,
                None,
                None,
                None,
                capture_bits,
            )
            .points;
        for (threads, use_ckpt) in [(1, true), (4, false), (4, true)] {
            let got = scenario
                .run_points::<ClosedFormPll, NullCodec<u64>, _>(
                    &tones,
                    threads,
                    use_ckpt,
                    None,
                    &tel,
                    None,
                    None,
                    None,
                    capture_bits,
                )
                .points;
            assert_eq!(got, baseline, "threads {threads}, checkpoint {use_ckpt}");
        }
    }

    #[test]
    fn supervised_runner_matches_unsupervised_on_healthy_points() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.05);
        let tones = [1.0, 4.0, 8.0, 12.0, 20.0];
        let tel = Collector::disabled();
        let baseline = scenario
            .run_points::<ClosedFormPll, NullCodec<u64>, _>(
                &tones,
                1,
                true,
                None,
                &tel,
                None,
                None,
                None,
                capture_bits,
            )
            .points;
        let policy = SupervisorPolicy::default();
        for threads in [1usize, 4] {
            let supervised = scenario.run_points::<ClosedFormPll, NullCodec<u64>, _>(
                &tones,
                threads,
                true,
                Some(&policy),
                &tel,
                None,
                None,
                None,
                capture_bits,
            );
            assert!(supervised.incidents.is_empty(), "threads = {threads}");
            assert_eq!(supervised.quarantined_count(), 0);
            assert_eq!(supervised.points, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn supervised_runner_quarantines_sick_points_only() {
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.01);
        let tones = [1.0, 4.0, 8.0];
        let tel = Collector::enabled();
        let policy = SupervisorPolicy::default();
        let out = scenario.run_points::<ClosedFormPll, NullCodec<f64>, _>(
            &tones,
            2,
            true,
            Some(&policy),
            &tel,
            None,
            None,
            None,
            |pll, f_mod| {
                if f_mod == 4.0 {
                    return Err(SweepPointError::DegenerateFit { f_mod_hz: f_mod });
                }
                let t = pll.time();
                pll.advance_to(t + 0.01);
                Ok(f_mod)
            },
        );
        assert_eq!(out.ok_count(), 2);
        assert_eq!(out.quarantined_count(), 1);
        assert!(out.points[1].is_err());
        // The ladder's retries then quarantine, all logged.
        assert_eq!(
            out.incidents.len(),
            SupervisorPolicy::MAX_RETRIES as usize + 1
        );
        assert!(out
            .incidents
            .iter()
            .all(|i| i.f_mod_hz == 4.0 && i.error.kind() == "degenerate_fit"));
        let records = tel.drain();
        assert!(records.iter().any(|r| matches!(
            r,
            pllbist_telemetry::Record::Counter { name, .. } if name == "supervisor.quarantined"
        )));
    }

    #[test]
    fn unsupervised_runner_contains_failures_without_supervisor_noise() {
        // policy: None still gets panic isolation and typed quarantine,
        // but exactly one attempt and no supervisor.* telemetry.
        let cfg = PllConfig::paper_table3();
        let scenario = Scenario::with_lock_settle(&cfg, 0.01);
        let tones = [1.0, 4.0];
        let tel = Collector::enabled();
        let out = scenario.run_points::<ClosedFormPll, NullCodec<f64>, _>(
            &tones,
            1,
            true,
            None,
            &tel,
            None,
            None,
            None,
            |pll, f_mod| {
                if f_mod == 4.0 {
                    return Err(SweepPointError::DegenerateFit { f_mod_hz: f_mod });
                }
                let t = pll.time();
                pll.advance_to(t + 0.01);
                Ok(f_mod)
            },
        );
        assert_eq!(out.ok_count(), 1);
        assert_eq!(out.quarantined_count(), 1);
        // The failure is reported in the incident log…
        assert_eq!(out.incidents.len(), 1);
        assert_eq!(out.incidents[0].action, IncidentAction::Quarantined);
        // …but no retries happen and no supervisor telemetry is emitted
        // (the unsupervised baseline stays clean).
        let records = tel.drain();
        assert!(!records.iter().any(|r| matches!(
            r,
            pllbist_telemetry::Record::Counter { name, .. } if name.starts_with("supervisor.")
        )));
    }
}
