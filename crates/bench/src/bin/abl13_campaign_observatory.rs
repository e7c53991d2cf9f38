//! **Ablation abl13** — the campaign observatory: progress board, flight
//! recorder and the campaign service's live per-job views over a
//! supervised resumable campaign.
//!
//! Part A (no steering): the same retry-heavy campaign runs unobserved
//! and then fully observed — flight recorder on, snapshots read back —
//! at 1, 4 and 16 threads. Every observed results file must be
//! **byte-identical** to the unobserved reference, and the observer's
//! wall-clock tax is measured (reported as an ungated trajectory
//! metric).
//!
//! Part B (live service): the campaign runs as a retry-heavy job on the
//! crash-only [`CampaignService`], twice, each on a fresh root. One run
//! is polled through the job's live views (`GET /jobs/<id>/progress`,
//! `/workers`, `/incidents`) with the workspace's own `std::net`
//! client; the other is not polled at all. Completion counts must be
//! **monotone non-decreasing** poll over poll, the views must answer
//! 404 with the journal state once the job is done, and the polled
//! results file must be **byte-identical** to the unpolled one. This
//! doubles as the offline smoke for the service's live views.
//!
//! Part C (post-mortem): a run is killed after a prefix of points — the
//! observer drops without `finish()`, as in a real abort — and must
//! leave a parseable flight-recorder dump ending in an `abort` note. A
//! stalled run (worker claims a point and goes silent) must trip the
//! stall detector and dump too. The resumed campaign must reproduce the
//! uninterrupted results file byte-for-byte.
//!
//! Knobs: `PLLBIST_ABL13_POINTS` (default 12, minimum 8).
//! `--jsonl <path>` writes the run report.

use pllbist_sim::behavioral::CpPll;
use pllbist_sim::campaign::{config_digest, json_str_field, CampaignLog};
use pllbist_sim::config::PllConfig;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::parallel::available_parallelism;
use pllbist_sim::scenario::Scenario;
use pllbist_sim::supervisor::Supervised;
use pllbist_sim::{
    http_get, http_post, submission_body, CampaignPlan, CampaignService, FaultPlan, HttpError,
    PllEngine, Scheduler, ServiceConfig, SupervisorPolicy, SweepPointError, VoltsCodec,
};
use pllbist_telemetry::recorder::{parse_dump, FlightEventKind};
use pllbist_telemetry::{fields, json_u64_field, Collector, RunReport};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

const LOCK_SETTLE: f64 = 0.1;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn capture(
    pll: &mut Supervised<CpPll>,
    f_mod: f64,
    sick_cutoff: f64,
) -> Result<f64, SweepPointError> {
    let t = pll.time();
    pll.advance_to(t + 0.01);
    if f_mod <= sick_cutoff {
        return Err(SweepPointError::DegenerateFit { f_mod_hz: f_mod });
    }
    Ok(pll.control_voltage())
}

struct Campaign<'a> {
    scenario: Scenario<'a>,
    policy: SupervisorPolicy,
    tones: Vec<f64>,
    sick_cutoff: f64,
    digest: String,
}

impl Campaign<'_> {
    fn run(
        &self,
        path: &Path,
        threads: usize,
        observer: Option<&CampaignObserver>,
        finish: bool,
        tones: &[f64],
    ) -> usize {
        let log = CampaignLog::open(path, VoltsCodec, self.digest.clone(), self.tones.len())
            .expect("open campaign log");
        let tel = Collector::disabled();
        let swept = self.scenario.run_points::<CpPll, VoltsCodec, _>(
            tones,
            threads,
            true,
            Some(&self.policy),
            &tel,
            Some(&log),
            None,
            observer,
            |pll, fm| capture(pll, fm, self.sick_cutoff),
        );
        if finish {
            log.finish(true).expect("campaign completes");
        }
        swept.quarantined_count()
    }
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pllbist_abl13_{}_{name}", std::process::id()))
}

/// One live view of a service job: the body while the job runs, or the
/// journal state its 404 names when it does not (queued, between
/// attempts, or finished).
fn live_view(addr: SocketAddr, job: &str, view: &str) -> Result<String, String> {
    match http_get(addr, &format!("/jobs/{job}/{view}")) {
        Ok(body) => Ok(body),
        Err(HttpError::Status { code: 404, body }) => {
            Err(json_str_field(&body, "state").expect("a 404 view names the job state"))
        }
        Err(e) => panic!("poll /jobs/{job}/{view}: {e}"),
    }
}

/// Runs `body` as a service job on a fresh root and returns its results
/// file and flight dump. With `poll`, the job's live views are polled
/// until it is done: returns the number of live `/progress` answers,
/// each asserted monotone in `done`.
fn service_job(root: &Path, body: &str, job: &str, poll: bool) -> (Vec<u8>, String, u64) {
    let _ = std::fs::remove_dir_all(root);
    let service = CampaignService::start(ServiceConfig::rooted(root)).expect("start service");
    let addr = service.addr();
    let reply = http_post(addr, "/jobs", body).expect("submit job");
    assert!(reply.contains(job), "the reply names the job: {reply}");
    let mut polls = 0u64;
    if poll {
        let mut last_done = 0u64;
        loop {
            match live_view(addr, job, "progress") {
                Ok(progress) => {
                    let done = json_u64_field(&progress, "done").expect("done in /progress");
                    assert!(
                        done >= last_done,
                        "completion count went backwards: {last_done} -> {done}"
                    );
                    assert!(progress.contains("\"heartbeat_age_secs\""));
                    last_done = done;
                    polls += 1;
                    // The job may finish between two views; a 404 then
                    // is an answer, not a failure.
                    if let Ok(workers) = live_view(addr, job, "workers") {
                        assert!(workers.contains("\"type\":\"workers\""));
                    }
                    if let Ok(incidents) = live_view(addr, job, "incidents") {
                        assert!(incidents.contains("\"type\":\"incidents\""));
                    }
                }
                Err(state) if state == "done" => break,
                Err(state) => assert_ne!(state, "failed", "the live job failed"),
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        for view in ["progress", "workers", "incidents"] {
            assert_eq!(
                live_view(addr, job, view),
                Err("done".to_string()),
                "a finished job's /{view} answers 404 with its state"
            );
        }
    }
    // Shutdown drains: the queued job runs to completion first.
    service.shutdown();
    let dir = root.join(format!("job-{job}"));
    let results = std::fs::read(dir.join("campaign.jsonl")).expect("service results file");
    let flight = std::fs::read_to_string(dir.join("campaign.flight.jsonl")).expect("flight dump");
    (results, flight, polls)
}

fn main() {
    let mut report = RunReport::from_args("abl13_campaign_observatory");
    let points = env_usize("PLLBIST_ABL13_POINTS", 12).max(8);
    let cores = available_parallelism();
    let cfg = PllConfig::paper_table3();
    let tones: Vec<f64> = (0..points).map(|i| 1.0 + i as f64).collect();
    let n_sick = (points / 4).max(1);
    let sick_cutoff = tones[n_sick - 1];
    let policy = SupervisorPolicy::default();
    let digest = config_digest(
        &cfg,
        &tones,
        &format!("abl13-observatory|settle:{LOCK_SETTLE}|sick:{sick_cutoff}|{policy:?}"),
    );
    let campaign = Campaign {
        scenario: Scenario::with_lock_settle(&cfg, LOCK_SETTLE),
        policy,
        tones: tones.clone(),
        sick_cutoff,
        digest,
    };
    println!(
        "abl13 — campaign observatory ({points} points, {n_sick} retry-heavy, {cores} core(s))\n"
    );

    // ---- Part A: observation must not steer --------------------------
    let reference_path = tmp("plain.jsonl");
    let _ = std::fs::remove_file(&reference_path);
    let t0 = Instant::now();
    let quarantined = campaign.run(&reference_path, 0, None, true, &tones);
    let plain_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        quarantined, n_sick,
        "retry-heavy grid quarantines the sick prefix"
    );
    let reference = std::fs::read(&reference_path).expect("reference results file");

    let mut observed_secs = plain_secs;
    for threads in [1usize, 4, 16] {
        let path = tmp(&format!("observed_t{threads}.jsonl"));
        let flight = path.with_extension("flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&flight);
        let observer =
            CampaignObserver::new(points, threads, ObservatoryConfig::for_results_file(&path));
        let t1 = Instant::now();
        campaign.run(&path, threads, Some(&observer), true, &tones);
        if threads == 1 {
            observed_secs = t1.elapsed().as_secs_f64();
        }
        observer.finish().expect("flight dump");
        assert_eq!(
            std::fs::read(&path).expect("observed results file"),
            reference,
            "threads {threads}: the observer changed the results file"
        );
        let snap = observer.snapshot();
        assert_eq!(
            (snap.done, snap.quarantined),
            (points as u64, n_sick as u64),
            "threads {threads}: the board saw every point"
        );
        let dump = std::fs::read_to_string(&flight).expect("flight dump exists");
        let events = parse_dump(&dump);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind == FlightEventKind::Done)
                .count(),
            points,
            "threads {threads}: one done event per point"
        );
        println!(
            " threads {threads:>2}: byte-identical under observation \
             ({} flight events)",
            events.len()
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&flight);
    }
    // The tax is informational (ungated suffix): wall clocks on a busy
    // host are too noisy to gate, the byte-identity assertions above are
    // the real contract.
    let observer_tax_pct = (observed_secs - plain_secs) / plain_secs * 100.0;
    println!(
        "\n serial wall: plain {plain_secs:.3}s, observed {observed_secs:.3}s \
         → observer tax {observer_tax_pct:+.2} %"
    );
    report.result(
        "identity",
        fields![
            points = points,
            sick_points = n_sick,
            cores = cores,
            threads_checked = 3u64,
            byte_identical = true,
            observer_tax_trajectory_pct = observer_tax_pct
        ],
    );

    // ---- Part B: live per-job views on the campaign service ----------
    // The service stimulates each tone for two modulation periods; the
    // tones are scaled down 20× so the job runs long enough (~0.1 s on
    // two cores) for the poller to catch it live.
    let live_tones: Vec<f64> = tones.iter().map(|f| f / 20.0).collect();
    let plan = CampaignPlan::new(cfg.clone())
        .lock_settle(LOCK_SETTLE)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing {
            threads: cores.max(2),
        });
    let faults = FaultPlan {
        flaky_retry: (0..n_sick).collect(),
        ..FaultPlan::none()
    };
    let body = submission_body(&plan, &live_tones, "abl13-live", &faults);
    let job = plan.digest(&live_tones, "abl13-live");
    let polled_root = tmp("service_polled");
    let unpolled_root = tmp("service_unpolled");
    let (polled, flight_dump, polls) = service_job(&polled_root, &body, &job, true);
    let (unpolled, _, _) = service_job(&unpolled_root, &body, &job, false);
    assert!(polls >= 1, "no poll caught the job running");
    assert_eq!(
        polled, unpolled,
        "polling the live views changed the job's results file"
    );
    let events = parse_dump(&flight_dump);
    let count = |kind: FlightEventKind| events.iter().filter(|e| e.kind == kind).count();
    let (done, retries) = (count(FlightEventKind::Done), count(FlightEventKind::Retry));
    assert_eq!(done, points, "one done event per point");
    assert_eq!(retries, n_sick, "one retry per flaky point");
    println!(
        " live service: {polls} monotone /jobs/<id>/progress polls, \
         {done}/{points} done, {retries} retries, polled file byte-identical"
    );
    report.result(
        "server",
        fields![
            polls = polls,
            monotone = true,
            done = done,
            retries = retries,
            polled_byte_identical = true
        ],
    );

    // ---- Part C: kill, stall, resume ---------------------------------
    let killed_path = tmp("killed.jsonl");
    let flight = killed_path.with_extension("flight.jsonl");
    let _ = std::fs::remove_file(&killed_path);
    let _ = std::fs::remove_file(&flight);
    let prefix = points / 2;
    {
        // The "kill": only a prefix of the campaign executes and the
        // observer drops without finish(), exactly what an aborted
        // process's unwind does.
        let observer =
            CampaignObserver::new(points, 2, ObservatoryConfig::for_results_file(&killed_path));
        campaign.run(&killed_path, 2, Some(&observer), false, &tones[..prefix]);
    }
    let dump = std::fs::read_to_string(&flight).expect("abort flight dump");
    assert!(
        dump.contains("\"reason\":\"abort\""),
        "killed run records why it dumped"
    );
    let abort_events = parse_dump(&dump).len();
    assert!(abort_events > 0, "abort dump is parseable and non-empty");

    // The stall detector: a worker claims a point and goes silent.
    let stall_flight = tmp("stall.flight.jsonl");
    let _ = std::fs::remove_file(&stall_flight);
    let stalled = CampaignObserver::new(
        points,
        1,
        ObservatoryConfig {
            stall_floor_secs: 0.005,
            stall_multiple: 0.0,
            dump_path: Some(stall_flight.clone()),
        },
    );
    stalled.on_claim(0, 0);
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert!(stalled.check_stall(), "silent worker trips the detector");
    let stall_dump = std::fs::read_to_string(&stall_flight).expect("stall dump");
    assert!(stall_dump.contains("\"reason\":\"stall\""));
    assert!(parse_dump(&stall_dump)
        .iter()
        .any(|e| e.kind == FlightEventKind::Stall));
    // Its `Drop` dumps the ring again: drop it before the cleanup below.
    drop(stalled);

    // Resume the killed campaign: the file must converge to the
    // uninterrupted reference, and the resume's own dump must record the
    // skip.
    let resume_observer =
        CampaignObserver::new(points, 4, ObservatoryConfig::for_results_file(&killed_path));
    campaign.run(&killed_path, 4, Some(&resume_observer), true, &tones);
    resume_observer.finish().expect("resume dump");
    assert_eq!(
        std::fs::read(&killed_path).expect("resumed results file"),
        reference,
        "killed-and-resumed file is byte-identical to the uninterrupted run"
    );
    let resume_dump = std::fs::read_to_string(&flight).expect("resume dump");
    assert!(
        parse_dump(&resume_dump)
            .iter()
            .any(|e| e.kind == FlightEventKind::Note && e.detail.contains("loaded from log")),
        "resume records the points it loaded instead of recomputing"
    );
    println!(
        " post-mortem: abort dump {abort_events} events, stall detector \
         tripped, resume byte-identical (skipped {prefix})"
    );
    report.result(
        "postmortem",
        fields![
            abort_events = abort_events,
            killed_after = prefix,
            stall_detected = true,
            resume_byte_identical = true
        ],
    );

    for path in [&reference_path, &killed_path, &flight, &stall_flight] {
        let _ = std::fs::remove_file(path);
    }
    for root in [&polled_root, &unpolled_root] {
        let _ = std::fs::remove_dir_all(root);
    }
    report.finish().expect("write --jsonl output");
    println!(
        "\nabl13: PASS — observation never steers, the service's live views \
         report monotone progress, and killed runs leave parseable timelines"
    );
}
