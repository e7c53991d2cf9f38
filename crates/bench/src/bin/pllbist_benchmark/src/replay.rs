//! In-process replay of a service job through the same public calls the
//! service's attempt makes, with a span around each call.
//!
//! The service times nothing between HTTP and the engine, so the layer
//! numbers come from here: once the service is idle, a sample of its jobs
//! is run again in this process, in the order `execute_attempt` runs them
//! (`from_header`, `CampaignLog::open`, the lock sidecar, the observer,
//! `run_points`, `finish`). The capture closure is the service's own
//! `VoltsCodec` capture with the stimulate call timed inside it. The
//! settle is taken out of `run_points` (`lock_checkpoint`, then stored in
//! the sidecar, which `run_points` then hits) so that it can be timed
//! apart from the runner; restores are bit-exact, so the results file is
//! byte-identical to the service's either way.
//!
//! Crash faults are never injected here: the replay runs a job's
//! reference fault plan (its retry and quarantine points), whose results
//! file the service must reproduce byte for byte however often it was
//! killed on the way.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pllbist_sim::campaign::CampaignLog;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{
    CampaignPlan, EventDrivenCpPll, JobSpec, LockSidecar, PllEngine, Scenario, SidecarOutcome,
    Supervised, SweepPointError, VoltsCodec, WorkStats,
};
use pllbist_telemetry::{Collector, Record};

use crate::spans::SpanLog;

type Engine = EventDrivenCpPll;

/// Restores timed per replayed job for `engine.restore_us`.
const RESTORES: usize = 8;

/// What one replayed job did and how long each call took (seconds).
#[derive(Clone, Debug, Default)]
pub struct Replay {
    /// The results file the replay wrote.
    pub results: Vec<u8>,
    /// Grid points.
    pub points: usize,
    /// `JobSpec::parse`.
    pub parse: f64,
    /// `CampaignPlan::from_header`.
    pub from_header: f64,
    /// `CampaignLog::open` on a fresh file.
    pub open: f64,
    /// `CampaignLog::open` over the finished file (not part of the attempt).
    pub reopen: f64,
    /// `LockSidecar::load` before the settle.
    pub sidecar_load: f64,
    /// `LockSidecar::store` of the settled snapshot (0 on a sidecar hit).
    pub sidecar_store: f64,
    /// `Scenario::lock_checkpoint` (0 on a sidecar hit).
    pub settle: f64,
    /// `CampaignObserver::new`.
    pub observer_new: f64,
    /// `Scenario::run_points`.
    pub run_points: f64,
    /// Wall covered by at least one `Scenario::stimulate` inside `run_points`.
    pub stimulate_union: f64,
    /// Σ `Scenario::stimulate` over all workers.
    pub stimulate_sum: f64,
    /// Σ capture-closure time over all workers.
    pub capture_sum: f64,
    /// `CampaignLog::finish`.
    pub finish: f64,
    /// `CampaignObserver::finish`.
    pub observer_finish: f64,
    /// `from_header` through `CampaignObserver::finish`: what the
    /// service's `done` record reports as `wall_ms`.
    pub attempt: f64,
    /// `CampaignLog::record`, once per point, on a second log.
    pub records: Vec<f64>,
    /// `Scenario::point_engine(Some(_))`.
    pub restores: Vec<f64>,
    /// Engine work inside `Scenario::stimulate`.
    pub work: WorkStats,
    /// Supervisor counters of the attempt.
    pub points_ok: u64,
    /// Retried attempts.
    pub retries: u64,
    /// Quarantined points.
    pub quarantined: u64,
}

#[derive(Default)]
struct CaptureTotals {
    intervals: Vec<(f64, f64)>,
    stimulate: f64,
    capture: f64,
    work: WorkStats,
}

/// Times `f`, recording a span named `name` when `spans` is given.
pub fn timed<T>(
    spans: Option<&SpanLog>,
    name: &str,
    parent: Option<usize>,
    op: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let end = Instant::now();
    if let Some(log) = spans {
        log.record(name, parent, Some(op), start, end);
    }
    (value, (end - start).as_secs_f64())
}

fn counter(records: &[Record], wanted: &str) -> u64 {
    records
        .iter()
        .find_map(|r| match r {
            Record::Counter { name, value } if name == wanted => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

/// Replays the job submitted as `body` in `dir`. In an empty directory
/// this is a first attempt; over a results prefix and a sidecar left by
/// an earlier attempt it is a resumed one, which loads the prefix and
/// skips the settle exactly as the service's resumed attempts do. `op`
/// tags the spans (the job's index).
///
/// # Errors
///
/// A rejected submission or results file, or a filesystem failure.
pub fn replay_job(
    body: &str,
    dir: &Path,
    op: usize,
    spans: Option<&SpanLog>,
) -> Result<Replay, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("replay dir: {e}"))?;
    let job_span = spans.map(|log| log.open("replay.job", None, Some(op)));
    let (spec, parse) = timed(spans, "plan.parse", job_span, op, || JobSpec::parse(body));
    let spec = spec?;
    let results = dir.join("campaign.jsonl");
    let points = spec.grid.len();
    let attempt_span = spans.map(|log| log.open("replay.attempt", job_span, Some(op)));
    let attempt_start = Instant::now();
    let (plan, from_header) = timed(spans, "plan.from_header", attempt_span, op, || {
        CampaignPlan::<Engine>::from_header(
            &spec.header,
            spec.config.clone(),
            &spec.grid,
            &spec.salt,
        )
    });
    let plan = plan.map_err(|e| format!("header rejected: {e}"))?;
    let (log, open) = timed(spans, "campaign.open", attempt_span, op, || {
        CampaignLog::open(&results, VoltsCodec, spec.digest.clone(), points)
    });
    let log = log.map_err(|e| format!("results open: {e}"))?;
    let loaded = log.completed_count();
    let scenario = plan.scenario();
    let sidecar = LockSidecar::for_results_file(&results, spec.digest.clone());
    let (cached, sidecar_load) = timed(spans, "sidecar.load", attempt_span, op, || {
        sidecar.load::<Engine>()
    });
    let (mut settle, mut sidecar_store) = (0.0, 0.0);
    let snapshot = match cached {
        SidecarOutcome::Hit(snapshot) => snapshot,
        SidecarOutcome::Absent => {
            let snapshot;
            (snapshot, settle) = timed(spans, "engine.settle", attempt_span, op, || {
                scenario.lock_checkpoint::<Engine>(&Collector::disabled())
            });
            let stored;
            (stored, sidecar_store) = timed(spans, "sidecar.store", attempt_span, op, || {
                sidecar.store::<Engine>(&snapshot)
            });
            stored.map_err(|e| format!("sidecar store: {e}"))?;
            snapshot
        }
        SidecarOutcome::Rejected(reason) => return Err(format!("sidecar rejected: {reason}")),
    };
    let (observer, observer_new) = timed(spans, "observe.new", attempt_span, op, || {
        CampaignObserver::new(
            points,
            spec.threads,
            ObservatoryConfig::for_results_file(&results),
        )
    });

    let run_span = spans.map(|log| log.open("runner.run_points", attempt_span, Some(op)));
    let totals = Mutex::new(CaptureTotals::default());
    let retry_fired: Vec<AtomicBool> = spec.grid.iter().map(|_| AtomicBool::new(false)).collect();
    let f_ref = spec.config.f_ref_hz;
    let epoch = Instant::now();
    // The service's capture, fault injection included, minus the
    // process-level kill.
    let capture = |pll: &mut Supervised<Engine>, fm: f64| -> Result<f64, SweepPointError> {
        let started = Instant::now();
        let index = spec
            .grid
            .iter()
            .position(|g| g.to_bits() == fm.to_bits())
            .unwrap_or(usize::MAX);
        if spec.faults.flaky_quarantine.contains(&index) {
            panic!("injected worker panic at point {index}");
        }
        if spec.faults.flaky_retry.contains(&index)
            && !retry_fired[index].fetch_or(true, Ordering::SeqCst)
        {
            return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
        }
        let before = pll.work_stats();
        let stim_start = Instant::now();
        Scenario::stimulate(
            pll,
            FmStimulus::pure_sine(f_ref, 0.02 * f_ref, fm),
            2.0 / fm,
        );
        let stim_end = Instant::now();
        let work = pll.work_stats().since(&before);
        let volts = pll.control_voltage();
        if let Some(log) = spans {
            log.record("engine.stimulate", run_span, Some(op), stim_start, stim_end);
        }
        let mut totals = totals.lock().expect("capture totals poisoned");
        totals.intervals.push((
            (stim_start - epoch).as_secs_f64(),
            (stim_end - epoch).as_secs_f64(),
        ));
        totals.stimulate += (stim_end - stim_start).as_secs_f64();
        totals.capture += started.elapsed().as_secs_f64();
        totals.work.absorb(&work);
        Ok(volts)
    };
    let telemetry = Collector::enabled();
    let run_start = Instant::now();
    let outcome = scenario.run_points::<Engine, VoltsCodec, _>(
        &spec.grid,
        spec.threads,
        plan.checkpoint_enabled(),
        plan.supervision(),
        &telemetry,
        Some(&log),
        Some(&sidecar),
        Some(&observer),
        capture,
    );
    let run_points = run_start.elapsed().as_secs_f64();
    if let (Some(log), Some(id)) = (spans, run_span) {
        log.close(id);
    }
    let (finished, finish) = timed(spans, "campaign.finish", attempt_span, op, || {
        log.finish(true)
    });
    finished.map_err(|e| format!("results finish: {e}"))?;
    let (_, observer_finish) = timed(spans, "observe.finish", attempt_span, op, || {
        observer.finish()
    });
    let attempt = attempt_start.elapsed().as_secs_f64();
    if let (Some(log), Some(id)) = (spans, attempt_span) {
        log.close(id);
    }
    let counters = telemetry.drain();
    if loaded < points && counter(&counters, "campaign.sidecar_hits") != 1 {
        return Err("run_points did not restore the stored sidecar".to_string());
    }
    let totals = totals.into_inner().expect("capture totals poisoned");
    let bytes = std::fs::read(&results).map_err(|e| format!("read replayed results: {e}"))?;

    // Calls timed beside the attempt rather than inside it.
    let (reopened, reopen) = timed(spans, "campaign.reopen", job_span, op, || {
        CampaignLog::open(&results, VoltsCodec, spec.digest.clone(), points)
    });
    match reopened {
        Ok(log) if log.completed_count() == points => {}
        Ok(log) => {
            return Err(format!(
                "reopen loaded {} of {points} points",
                log.completed_count()
            ))
        }
        Err(e) => return Err(format!("reopen: {e}")),
    }
    let second = CampaignLog::open(
        dir.join("record.jsonl"),
        VoltsCodec,
        spec.digest.clone(),
        points,
    )
    .map_err(|e| format!("record log: {e}"))?;
    let records = outcome
        .points
        .iter()
        .enumerate()
        .map(|(index, point)| {
            timed(spans, "campaign.record", job_span, op, || {
                second.record(index, point)
            })
            .1
        })
        .collect();
    second
        .finish(true)
        .map_err(|e| format!("record log finish: {e}"))?;
    let restores = (0..RESTORES)
        .map(|_| {
            timed(spans, "engine.restore", job_span, op, || {
                std::hint::black_box(scenario.point_engine::<Engine>(Some(&snapshot)))
            })
            .1
        })
        .collect();
    if let (Some(log), Some(id)) = (spans, job_span) {
        log.close(id);
    }

    Ok(Replay {
        results: bytes,
        points,
        parse,
        from_header,
        open,
        reopen,
        sidecar_load,
        sidecar_store,
        settle,
        observer_new,
        run_points,
        stimulate_union: crate::stats::union_len(&totals.intervals),
        stimulate_sum: totals.stimulate,
        capture_sum: totals.capture,
        finish,
        observer_finish,
        attempt,
        records,
        restores,
        work: totals.work,
        points_ok: counter(&counters, "supervisor.points_ok"),
        retries: counter(&counters, "supervisor.retries"),
        quarantined: counter(&counters, "supervisor.quarantined"),
    })
}

/// Wall of `run_points` on `body`'s job with its supervision policy and
/// without, bare (no log, sidecar or observer), alternating which runs
/// first: `(supervised, unsupervised)` seconds.
///
/// # Errors
///
/// A rejected submission.
pub fn guard_cost(body: &str, first_supervised: bool) -> Result<(f64, f64), String> {
    let spec = JobSpec::parse(body)?;
    let plan = CampaignPlan::<Engine>::from_header(
        &spec.header,
        spec.config.clone(),
        &spec.grid,
        &spec.salt,
    )
    .map_err(|e| format!("header rejected: {e}"))?;
    let f_ref = spec.config.f_ref_hz;
    let scenario = plan.scenario();
    let run = |supervised: bool| {
        let started = Instant::now();
        scenario.run_points::<Engine, VoltsCodec, _>(
            &spec.grid,
            spec.threads,
            plan.checkpoint_enabled(),
            if supervised { plan.supervision() } else { None },
            &Collector::disabled(),
            None,
            None,
            None,
            |pll, fm| {
                Scenario::stimulate(
                    pll,
                    FmStimulus::pure_sine(f_ref, 0.02 * f_ref, fm),
                    2.0 / fm,
                );
                Ok(pll.control_voltage())
            },
        );
        started.elapsed().as_secs_f64()
    };
    Ok(if first_supervised {
        let with = run(true);
        (with, run(false))
    } else {
        let without = run(false);
        (run(true), without)
    })
}
