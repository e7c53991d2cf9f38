//! Contract tests for the campaign observatory: attaching the progress
//! board and flight recorder to a supervised resumable campaign must
//! never change the physics — results files stay byte-identical with
//! observability on or off, at every thread count — while a killed run
//! leaves a parseable flight dump, and the campaign service's live
//! per-job views report monotone progress without changing the job's
//! results file.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pllbist_sim::campaign::CampaignLog;
use pllbist_sim::config::PllConfig;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::scenario::Scenario;
use pllbist_sim::{
    http_get, http_post, submission_body, CampaignPlan, CampaignService, ClosedFormPll, FaultPlan,
    HttpError, PllEngine, Scheduler, ServiceConfig, SupervisorPolicy, SweepPointError, VoltsCodec,
};
use pllbist_telemetry::json::json_str_field;
use pllbist_telemetry::recorder::{parse_dump, FlightEventKind};
use pllbist_telemetry::{json_u64_field, Collector};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pllbist_observatory_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

const TONES: [f64; 6] = [1.0, 3.0, 7.0, 9.0, 21.0, 55.0];
const SICK_TONE: f64 = 9.0;

fn capture(
    pll: &mut pllbist_sim::Supervised<ClosedFormPll>,
    fm: f64,
) -> Result<f64, SweepPointError> {
    let t = pll.time();
    pll.advance_to(t + 0.02);
    if fm == SICK_TONE {
        // One typed, deterministic failure so the observer sees real
        // retry and quarantine traffic on every run.
        return Err(SweepPointError::DegenerateFit { f_mod_hz: fm });
    }
    Ok(pll.control_voltage())
}

/// Runs the supervised resumable campaign over `tones`, optionally
/// observed, and returns the quarantined count.
fn run_campaign(
    path: &PathBuf,
    tones: &[f64],
    threads: usize,
    observer: Option<&CampaignObserver>,
    finish: bool,
) -> usize {
    let cfg = PllConfig::paper_table3();
    let scenario = Scenario::with_lock_settle(&cfg, 0.1);
    let policy = SupervisorPolicy::default();
    let tel = Collector::disabled();
    let log = CampaignLog::open(path, VoltsCodec, "obsit0000000001".into(), TONES.len())
        .expect("open log");
    let swept = scenario.run_points::<ClosedFormPll, VoltsCodec, _>(
        tones,
        threads,
        true,
        Some(&policy),
        &tel,
        Some(&log),
        None,
        observer,
        capture,
    );
    if finish {
        log.finish(true).expect("complete");
    }
    swept.quarantined_count()
}

#[test]
fn observed_campaign_is_byte_identical_to_unobserved() {
    // Unobserved reference.
    let reference_path = tmp("plain.jsonl");
    let _ = std::fs::remove_file(&reference_path);
    assert_eq!(run_campaign(&reference_path, &TONES, 1, None, true), 1);
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    for threads in [1usize, 4, 16] {
        let path = tmp(&format!("observed_t{threads}.jsonl"));
        let flight = path.with_extension("flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&flight);

        let observer = CampaignObserver::new(
            TONES.len(),
            threads,
            ObservatoryConfig::for_results_file(&path),
        );
        let quarantined = run_campaign(&path, &TONES, threads, Some(&observer), true);
        observer.finish().expect("flight dump");

        // The no-steering contract: same physics, same bytes.
        assert_eq!(quarantined, 1, "threads {threads}");
        assert_eq!(
            std::fs::read(&path).expect("observed bytes"),
            reference,
            "threads {threads}: the observer changed the results file"
        );

        // The completed board accounts for every point and incident.
        let snap = observer.snapshot();
        assert_eq!(snap.total, TONES.len() as u64);
        assert_eq!(snap.done, TONES.len() as u64);
        assert_eq!(snap.quarantined, 1);
        let incidents = snap.incidents_json();
        assert!(
            json_u64_field(&incidents, "degenerate_fit").unwrap_or(0) >= 1,
            "threads {threads}: {incidents}"
        );

        // The finish dump is a parseable timeline ending in a clean
        // finish note, with claim/done coverage for every point.
        let dump = std::fs::read_to_string(&flight).expect("flight dump");
        assert!(dump.contains("\"reason\":\"finish\""));
        let events = parse_dump(&dump);
        let claims = events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Claim)
            .count();
        let dones = events
            .iter()
            .filter(|e| e.kind == FlightEventKind::Done)
            .count();
        assert_eq!(claims, TONES.len(), "threads {threads}");
        assert_eq!(dones, TONES.len(), "threads {threads}");
        assert!(events.iter().any(|e| e.kind == FlightEventKind::Retry));
        assert!(events.iter().any(|e| e.kind == FlightEventKind::Quarantine));

        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&flight).unwrap();
    }
    std::fs::remove_file(&reference_path).unwrap();
}

#[test]
fn killed_observed_campaign_dumps_flight_and_resumes_byte_identically() {
    let reference_path = tmp("kill_reference.jsonl");
    let _ = std::fs::remove_file(&reference_path);
    assert_eq!(run_campaign(&reference_path, &TONES, 1, None, true), 1);
    let reference = std::fs::read(&reference_path).expect("reference bytes");

    let path = tmp("kill_observed.jsonl");
    let flight = path.with_extension("flight.jsonl");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&flight);

    // "Kill" the campaign after three points: the sweep only covers a
    // prefix of the tone list, and the observer dies without finish()
    // (the Drop path a panicking or aborted process takes).
    {
        let observer =
            CampaignObserver::new(TONES.len(), 2, ObservatoryConfig::for_results_file(&path));
        run_campaign(&path, &TONES[..3], 2, Some(&observer), false);
    }
    let dump = std::fs::read_to_string(&flight).expect("abort dump exists");
    assert!(
        dump.contains("\"reason\":\"abort\""),
        "a killed run records why it dumped: {dump}"
    );
    let events = parse_dump(&dump);
    assert!(
        events.iter().any(|e| e.kind == FlightEventKind::Claim),
        "the timeline reaches back into the killed run"
    );

    // Resume across thread counts: skipped points load from the log, the
    // rest recompute, and the final file matches the never-killed run.
    for threads in [4usize, 1, 16] {
        let observer = CampaignObserver::new(
            TONES.len(),
            threads,
            ObservatoryConfig::for_results_file(&path),
        );
        assert_eq!(
            run_campaign(&path, &TONES, threads, Some(&observer), true),
            1
        );
        observer.finish().expect("finish dump");
        assert_eq!(
            std::fs::read(&path).expect("resumed bytes"),
            reference,
            "resume on {threads} threads"
        );
        let resumed = parse_dump(&std::fs::read_to_string(&flight).expect("resume dump"));
        assert!(
            resumed
                .iter()
                .any(|e| e.kind == FlightEventKind::Note && e.detail.contains("loaded from log")),
            "resume on {threads} threads records the skip"
        );
        // Rewind for the next resume round: keep only the first three
        // points again.
        let full = std::fs::read_to_string(&path).expect("utf8");
        let lines: Vec<&str> = full.lines().collect();
        let mut killed = lines[..2 + 3].join("\n");
        killed.push('\n');
        killed.push_str("{\"type\":\"result\",\"na");
        std::fs::write(&path, &killed).expect("re-kill");
    }

    std::fs::remove_file(&path).unwrap();
    std::fs::remove_file(&flight).unwrap();
    std::fs::remove_file(&reference_path).unwrap();
}

/// A retry-heavy service job over the test tones, scaled down 20× so
/// the service's two-period stimulus keeps the job running long enough
/// for a poller to catch it live: `(submission body, job id)`.
fn live_job() -> (String, String) {
    let plan = CampaignPlan::new(PllConfig::paper_table3())
        .lock_settle(0.1)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads: 2 });
    let tones: Vec<f64> = TONES.iter().map(|f| f / 20.0).collect();
    let faults = FaultPlan {
        flaky_retry: vec![0, 3],
        ..FaultPlan::none()
    };
    (
        submission_body(&plan, &tones, "obs-live", &faults),
        plan.digest(&tones, "obs-live"),
    )
}

fn tmp_root(name: &str) -> PathBuf {
    let root = tmp(&format!("service_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn results_file(root: &Path, job: &str) -> Vec<u8> {
    std::fs::read(root.join(format!("job-{job}/campaign.jsonl"))).expect("job results file")
}

/// The journal state a 404 from a live view names.
fn not_running_state(result: Result<String, HttpError>) -> String {
    match result {
        Err(HttpError::Status { code: 404, body }) => {
            assert!(body.contains("\"error\":\"job not running\""), "{body}");
            json_str_field(&body, "state").expect("the 404 names the job state")
        }
        other => panic!("expected a 404 from a view, got {other:?}"),
    }
}

/// The campaign service is the status server: its per-job views report
/// a live campaign's progress.
#[test]
fn status_server_reports_monotone_progress_over_a_live_campaign() {
    let (body, job) = live_job();
    let view = |name: &str| format!("/jobs/{job}/{name}");
    let polled_root = tmp_root("polled");
    let service = CampaignService::start(ServiceConfig::rooted(&polled_root)).expect("start");
    let addr = service.addr();
    http_post(addr, "/jobs", &body).expect("submit");

    // Poll while the job runs: completion counts must never move
    // backwards, and every view must parse. Between two views the job
    // may finish, so a 404 there is an answer, not a failure.
    let (mut live_polls, mut worker_polls, mut last_done) = (0u32, 0u32, 0u64);
    loop {
        match http_get(addr, &view("progress")) {
            Ok(progress) => {
                let done = json_u64_field(&progress, "done").expect("done field");
                assert!(
                    done >= last_done,
                    "done went backwards: {last_done} -> {done}"
                );
                last_done = done;
                live_polls += 1;
                assert_eq!(json_u64_field(&progress, "total"), Some(TONES.len() as u64));
                assert!(progress.contains("\"stall_timeout_secs\""), "{progress}");
                assert!(progress.contains("\"heartbeat_age_secs\""), "{progress}");
                // Query strings are tolerated.
                if let Ok(workers) = http_get(addr, &format!("{}?pretty=1", view("workers"))) {
                    assert_eq!(json_str_field(&workers, "type").as_deref(), Some("workers"));
                    assert_eq!(
                        workers.matches("\"index\":").count(),
                        2,
                        "one entry per worker: {workers}"
                    );
                    worker_polls += 1;
                }
                if let Ok(incidents) = http_get(addr, &view("incidents")) {
                    assert_eq!(
                        json_str_field(&incidents, "type").as_deref(),
                        Some("incidents")
                    );
                    assert!(incidents.contains("\"lock_timeout\":0"), "{incidents}");
                }
            }
            other => match not_running_state(other).as_str() {
                "done" => break,
                "failed" => panic!("the live job failed"),
                _ => {} // queued, or running before its observer attaches
            },
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(live_polls >= 1, "no poll caught the job running");
    assert!(worker_polls >= 1, "no /workers poll caught the job running");

    // Once the job is done its views answer 404 with the journal state.
    for name in ["progress", "workers", "incidents"] {
        assert_eq!(not_running_state(http_get(addr, &view(name))), "done");
    }
    service.shutdown();

    // The same job, never polled, writes the same bytes.
    let unpolled_root = tmp_root("unpolled");
    let service = CampaignService::start(ServiceConfig::rooted(&unpolled_root)).expect("start");
    http_post(service.addr(), "/jobs", &body).expect("submit");
    service.shutdown(); // drains: the queued job runs to completion
    assert_eq!(
        results_file(&polled_root, &job),
        results_file(&unpolled_root, &job),
        "polling the live views changed the job's results file"
    );
    let _ = std::fs::remove_dir_all(&polled_root);
    let _ = std::fs::remove_dir_all(&unpolled_root);
}
