//! The three service workloads: set-up, the timed closed loop against
//! `pllbist_serve`, the correctness gate and the traced replay.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use pllbist_sim::http_get;
use pllbist_telemetry::json::json_str_field;

use crate::client::{self, JobEnd, JobRecord, Launcher, Phase, Server};
use crate::replay::{self, Replay};
use crate::report::{tail_note, waterfall_note};
use crate::spans::SpanLog;
use crate::stats::{deepest_tail, mean, pct_or_zero, windowed_percentile, LATENCY_WINDOW};
use crate::traffic::{
    write_interrupted_job, Job, Traffic, Workload, CHECK_EVERY, PRESEEDED_JOBS, SETUPS, THREADS,
    TRACED_BASE, WARMUP_INDEX,
};
use crate::Outcome;

/// What a job's journal says.
#[derive(Clone, Debug, Default)]
struct Journal {
    /// Complete `job.event` records: one fsynced append each.
    appends: u64,
    /// Fields of the `done` record's detail.
    quarantined: Option<u64>,
    skipped: Option<u64>,
    wall_ms: Option<u64>,
}

fn read_journal(root: &Path, digest: &str) -> Journal {
    let text =
        std::fs::read_to_string(root.join(format!("job-{digest}/job.jsonl"))).unwrap_or_default();
    let mut journal = Journal::default();
    for line in text.lines().filter(|l| l.contains("\"job.event\"")) {
        journal.appends += 1;
        if json_str_field(line, "state").as_deref() != Some("done") {
            continue;
        }
        let detail = json_str_field(line, "detail").unwrap_or_default();
        let field = |key: &str| {
            detail
                .split(' ')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        };
        journal.quarantined = field("quarantined");
        journal.skipped = field("skipped");
        journal.wall_ms = field("wall_ms");
    }
    journal
}

/// Starts the service [`SETUPS`] times, each on a fresh root: spawn,
/// ready line (after the start-up rescan), one warm-up job. Keeps the
/// last service running. For `svc_recover` each root is first seeded
/// with [`PRESEEDED_JOBS`] interrupted jobs, which the warm-up waits
/// behind.
fn set_up(
    launcher: &Launcher,
    traffic: &Traffic,
    root: &Path,
) -> Result<(Server, PathBuf, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    for k in 0..SETUPS {
        let dir = root.join(format!("service-{k}"));
        if traffic.workload() == Workload::SvcRecover {
            for index in 0..PRESEEDED_JOBS {
                write_interrupted_job(&dir, &traffic.preseeded_job(index))
                    .map_err(|e| format!("seed interrupted job: {e}"))?;
            }
        }
        let started = Instant::now();
        let server = launcher.start(&dir)?;
        let warm_up = client::drive(
            server.addr(),
            &mut std::iter::once(traffic.job(WARMUP_INDEX)),
            0.0,
            None,
        );
        times.push(started.elapsed().as_secs_f64());
        if warm_up.jobs.iter().any(|j| j.end != JobEnd::Done) || !warm_up.problems.is_empty() {
            return Err(format!(
                "warm-up job did not complete: {:?}",
                warm_up.problems
            ));
        }
        if k + 1 == SETUPS {
            return Ok((server, dir, times));
        }
        server.stop()?;
    }
    unreachable!("SETUPS is positive")
}

/// Replays `job` in a fresh directory under `scratch` and compares the
/// bytes with the service's results file.
fn check_job(
    server: &Server,
    job: &Job,
    scratch: &Path,
    spans: Option<&SpanLog>,
) -> Result<Replay, String> {
    let dir = scratch.join(format!("replay-{}", job.index));
    let replayed = replay::replay_job(&job.body, &dir, job.index, spans);
    let _ = std::fs::remove_dir_all(&dir);
    let replayed = replayed.map_err(|e| format!("job {} replay: {e}", job.index))?;
    let served = http_get(server.addr(), &format!("/jobs/{}/results", job.digest))
        .map_err(|e| format!("job {} results: {e}", job.index))?;
    if served.as_bytes() != replayed.results.as_slice() {
        return Err(format!(
            "job {} results differ from the in-process replay ({} vs {} bytes)",
            job.index,
            served.len(),
            replayed.results.len()
        ));
    }
    Ok(replayed)
}

/// Replays only the final attempt of a job the service resumed after
/// `skipped` points: the first `skipped` records of `full` and the
/// settled sidecar are laid down first, as the killed attempts left them.
/// Returns the attempt's seconds.
fn replay_final_attempt(
    job: &Job,
    full: &[u8],
    skipped: usize,
    scratch: &Path,
) -> Result<f64, String> {
    let first = scratch.join(format!("first-{}", job.index));
    let resumed = scratch.join(format!("resumed-{}", job.index));
    let run = || -> Result<f64, String> {
        replay::replay_job(&job.body, &first, job.index, None)?;
        std::fs::create_dir_all(&resumed).map_err(|e| e.to_string())?;
        let prefix: Vec<&[u8]> = full
            .split_inclusive(|&b| b == b'\n')
            .take(2 + skipped)
            .collect();
        std::fs::write(resumed.join("campaign.jsonl"), prefix.concat())
            .map_err(|e| e.to_string())?;
        std::fs::copy(first.join("campaign.ckpt"), resumed.join("campaign.ckpt"))
            .map_err(|e| e.to_string())?;
        Ok(replay::replay_job(&job.body, &resumed, job.index, None)?.attempt)
    };
    let attempt = run();
    let _ = std::fs::remove_dir_all(&first);
    let _ = std::fs::remove_dir_all(&resumed);
    attempt.map_err(|e| format!("job {} final-attempt replay: {e}", job.index))
}

/// Latency in ms of every job; a failed or refused job counts as
/// missing any limit.
fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .jobs
        .iter()
        .map(|j| {
            if j.end == JobEnd::Done {
                j.latency() * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Runs one service workload for `seconds` (then, when `trace`, once
/// more traced) and checks the results.
///
/// # Errors
///
/// The service could not be started or stopped.
pub fn run(
    traffic: &Traffic,
    seconds: f64,
    trace: bool,
    root: &Path,
    launcher: &Launcher,
) -> Result<Outcome, String> {
    let (server, dir, setups) = set_up(launcher, traffic, root)?;
    let scratch = root.join("replays");
    let phase = client::drive(
        server.addr(),
        &mut (0..).map(|i| traffic.job(i)),
        seconds,
        None,
    );
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let mut outcome = Outcome {
        attempted: phase.jobs.len(),
        failed: phase.jobs.iter().filter(|j| j.end != JobEnd::Done).count(),
        problems: phase.problems.clone(),
        ..Outcome::default()
    };

    // Correctness gate, after the timed region.
    let mut digests = BTreeSet::new();
    let mut submitted = 0usize;
    let mut lost = 0u64;
    for record in &phase.jobs {
        if !digests.insert(record.digest.clone()) {
            outcome
                .problems
                .push(format!("duplicate digest {}", record.digest));
        }
        submitted += record.points;
        if record.end != JobEnd::Done {
            lost += record.points as u64;
            continue;
        }
        if record.results_lines != record.points as u64 {
            outcome.problems.push(format!(
                "job {} results file holds {} of {} records",
                record.index, record.results_lines, record.points
            ));
        }
        match read_journal(&dir, &record.digest).quarantined {
            Some(q) => lost += q,
            None => outcome
                .problems
                .push(format!("job {} journal has no done record", record.index)),
        }
        if record.index % CHECK_EVERY == 0 {
            if let Err(e) = check_job(&server, &traffic.job(record.index), &scratch, None) {
                outcome.problems.push(e);
            }
        }
    }
    if traffic.workload() == Workload::SvcRecover {
        for index in 0..PRESEEDED_JOBS {
            let job = traffic.preseeded_job(index);
            if read_journal(&dir, &job.digest).quarantined.is_none() {
                outcome
                    .problems
                    .push(format!("interrupted job {index} was not resumed to done"));
            } else if index % CHECK_EVERY == 0 {
                if let Err(e) = check_job(&server, &job, &scratch, None) {
                    outcome.problems.push(e);
                }
            }
        }
    }

    let latencies = latencies_ms(&phase);
    let e2e = &mut outcome.end_to_end;
    e2e.insert("points_per_s", phase.points_per_s());
    e2e.insert("latency_p50_ms", pct_or_zero(&latencies, 50.0));
    e2e.insert(
        "latency_p90_ms",
        windowed_percentile(&latencies, LATENCY_WINDOW, 90.0),
    );
    e2e.insert("setup_s", crate::stats::median(&setups));
    e2e.insert("ok_frac", 1.0 - lost as f64 / submitted.max(1) as f64);
    e2e.insert("peak_rss_mb", peak_rss_mb);
    if let Some(tail) = deepest_tail(&latencies) {
        outcome.notes.push(tail_note(&tail));
    }

    if trace {
        let spans = SpanLog::new();
        let traced = client::drive(
            server.addr(),
            &mut (TRACED_BASE..).map(|i| traffic.job(i)),
            seconds,
            Some(&spans),
        );
        outcome.problems.extend(traced.problems.iter().cloned());
        traced_layers(
            traffic,
            &server,
            &dir,
            &scratch,
            &phase,
            &traced,
            &spans,
            &mut outcome,
        );
        outcome.spans = Some(spans);
    }
    server.stop()?;
    Ok(outcome)
}

/// One replayed traced job beside what the client and journal saw.
struct Sampled<'a> {
    record: &'a JobRecord,
    journal: Journal,
    replay: Replay,
    final_attempt: f64,
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    traffic: &Traffic,
    server: &Server,
    dir: &Path,
    scratch: &Path,
    untraced: &Phase,
    traced: &Phase,
    spans: &SpanLog,
    outcome: &mut Outcome,
) {
    let (stride, cap) = traffic.workload().trace_sample();
    let mut sample = Vec::new();
    for record in traced
        .jobs
        .iter()
        .filter(|j| (j.index - TRACED_BASE).is_multiple_of(stride) && j.end == JobEnd::Done)
        .take(cap)
    {
        let job = traffic.job(record.index);
        let journal = read_journal(dir, &record.digest);
        let replay = match client::under_polling(server.addr(), &record.digest, || {
            check_job(server, &job, scratch, Some(spans))
        }) {
            Ok(replay) => replay,
            Err(e) => {
                outcome.problems.push(e);
                continue;
            }
        };
        let final_attempt = match journal.skipped {
            Some(skipped) if skipped > 0 => {
                match client::under_polling(server.addr(), &record.digest, || {
                    replay_final_attempt(&job, &replay.results, skipped as usize, scratch)
                }) {
                    Ok(secs) => secs,
                    Err(e) => {
                        outcome.problems.push(e);
                        continue;
                    }
                }
            }
            _ => replay.attempt,
        };
        sample.push(Sampled {
            record,
            journal,
            replay,
            final_attempt,
        });
    }
    let mut guard = (0.0, 0.0);
    for (k, s) in sample.iter().enumerate() {
        match replay::guard_cost(&traffic.job(s.record.index).body, k % 2 == 0) {
            Ok((with, without)) => {
                guard.0 += with;
                guard.1 += without;
            }
            Err(e) => outcome.problems.push(e),
        }
    }

    let ms = |v: f64| v * 1e3;
    let us = |v: f64| v * 1e6;
    let p50 = |f: &dyn Fn(&Replay) -> f64| -> f64 {
        let v: Vec<f64> = sample.iter().map(|s| f(&s.replay)).collect();
        pct_or_zero(&v, 50.0)
    };
    let sum = |f: &dyn Fn(&Replay) -> f64| -> f64 { sample.iter().map(|s| f(&s.replay)).sum() };
    let journals: Vec<Journal> = traced
        .jobs
        .iter()
        .map(|j| read_journal(dir, &j.digest))
        .collect();
    let records: Vec<f64> = sample
        .iter()
        .flat_map(|s| s.replay.records.clone())
        .collect();
    let restores: Vec<f64> = sample
        .iter()
        .flat_map(|s| s.replay.restores.clone())
        .collect();
    let threads = THREADS as f64;
    let events = sum(&|r| (r.work.ref_edges + r.work.fb_edges) as f64);
    let attempts = sum(&|r| (r.points_ok + r.retries + r.quarantined) as f64);

    let layers = &mut outcome.per_layer;
    layers.insert(
        "service.submit_ms_p50",
        ms(pct_or_zero(&traced.submit_secs, 50.0)),
    );
    layers.insert(
        "service.poll_ms_p50",
        ms(pct_or_zero(&traced.poll_secs, 50.0)),
    );
    layers.insert(
        "service.journal_appends_per_job",
        mean(
            &journals
                .iter()
                .map(|j| j.appends as f64)
                .collect::<Vec<_>>(),
        ),
    );
    layers.insert(
        "service.attempts_per_job",
        mean(
            &traced
                .jobs
                .iter()
                .map(|j| j.attempts as f64)
                .collect::<Vec<_>>(),
        ),
    );
    layers.insert("plan.parse_us_p50", us(p50(&|r| r.parse + r.from_header)));
    layers.insert(
        "runner.busy_frac",
        sum(&|r| r.capture_sum) / sum(&|r| threads * r.run_points),
    );
    layers.insert(
        "runner.overhead_us_per_point",
        us(sum(&|r| threads * r.run_points - r.capture_sum) / sum(&|r| r.points as f64)),
    );
    layers.insert("engine.events_per_s", events / sum(&|r| r.stimulate_sum));
    layers.insert("engine.events", events);
    layers.insert("engine.steps", sum(&|r| r.work.steps as f64));
    layers.insert(
        "engine.step_rejections",
        sum(&|r| r.work.step_rejections as f64),
    );
    layers.insert("engine.settle_ms_p50", ms(p50(&|r| r.settle)));
    layers.insert("engine.restore_us_p50", us(pct_or_zero(&restores, 50.0)));
    layers.insert("supervisor.retries", sum(&|r| r.retries as f64));
    layers.insert("supervisor.quarantined", sum(&|r| r.quarantined as f64));
    layers.insert(
        "supervisor.useful_frac",
        sum(&|r| r.points_ok as f64) / attempts,
    );
    layers.insert(
        "supervisor.guard_overhead_pct",
        100.0 * (guard.0 - guard.1) / guard.1,
    );
    layers.insert("campaign.record_us_p50", us(pct_or_zero(&records, 50.0)));
    layers.insert("campaign.record_us_p99", us(pct_or_zero(&records, 99.0)));
    layers.insert("campaign.open_ms_p50", ms(p50(&|r| r.open)));
    layers.insert("campaign.reopen_ms_p50", ms(p50(&|r| r.reopen)));
    layers.insert("sidecar.store_us_p50", us(p50(&|r| r.sidecar_store)));
    layers.insert("sidecar.load_us_p50", us(p50(&|r| r.sidecar_load)));
    layers.insert("observe.finish_ms_p50", ms(p50(&|r| r.observer_finish)));
    layers.insert(
        "trace_overhead_pct",
        100.0 * (untraced.points_per_s() - traced.points_per_s()) / untraced.points_per_s(),
    );

    // The waterfall: per-job self times of the replayed calls, plus what
    // is left of the job's latency (HTTP, durable submit, journal fsyncs,
    // polling, and on svc_recover the killed attempts). Means over the
    // sample, so the layers sum to the mean latency exactly.
    let attempt_layers = |r: &Replay| {
        [
            r.parse + r.from_header,
            r.open + r.finish,
            r.sidecar_load + r.sidecar_store,
            r.observer_new + r.observer_finish,
            r.settle + r.stimulate_union,
            r.run_points - r.stimulate_union,
        ]
    };
    let residual = |s: &Sampled| s.record.latency() - attempt_layers(&s.replay).iter().sum::<f64>();
    let residuals: Vec<f64> = sample.iter().map(|s| ms(residual(s))).collect();
    let n = sample.len().max(1) as f64;
    let per_job = |f: &dyn Fn(&Sampled) -> f64| ms(sample.iter().map(f).sum::<f64>() / n);
    let layers = &mut outcome.per_layer;
    layers.insert("service.residual_ms_p50", pct_or_zero(&residuals, 50.0));
    for (k, name) in [
        "waterfall.plan_ms",
        "waterfall.campaign_ms",
        "waterfall.sidecar_ms",
        "waterfall.observe_ms",
        "waterfall.engine_ms",
        "waterfall.runner_ms",
    ]
    .into_iter()
    .enumerate()
    {
        layers.insert(name, per_job(&|s| attempt_layers(&s.replay)[k]));
    }
    layers.insert("waterfall.latency_ms", per_job(&|s| s.record.latency()));
    layers.insert("waterfall.residual_ms", per_job(&residual));

    // The waterfall check: the replayed final attempt against the
    // journal's `done` wall_ms, which the service truncates to whole ms
    // (hence the midpoint, and why only jobs of 10 ms or more are checked).
    // Replays run under the client's polling load, as the live jobs did.
    let checked: Vec<(f64, f64)> = sample
        .iter()
        .filter_map(|s| Some((ms(s.final_attempt), s.journal.wall_ms? as f64 + 0.5)))
        .filter(|(_, served)| *served >= 10.0)
        .collect();
    outcome
        .notes
        .push(waterfall_note(&outcome.per_layer, sample.len(), &checked));
}
