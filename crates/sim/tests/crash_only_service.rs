//! End-to-end contract of the crash-only campaign service: durable
//! submissions over HTTP, deterministic fault injection, byte-identical
//! recovery, backpressure and graceful drain — plus the
//! [`CampaignPlan::from_header`] rejection paths and resume-after-rename
//! the service's digest round trip rests on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pllbist_sim::campaign::bits_hex;
use pllbist_sim::config::PllConfig;
use pllbist_sim::error::{quiet_contained_panics, CampaignError};
use pllbist_sim::plan::Scheduler;
use pllbist_sim::service::{
    submission_body, CampaignService, CrashFault, FaultPlan, ServiceConfig, VoltsCodec,
};
use pllbist_sim::{
    http_get, http_post, CampaignLog, CampaignPlan, ClosedFormPll, CpPll, PllEngine,
    SupervisorPolicy,
};
use pllbist_telemetry::json::json_str_field;
use pllbist_telemetry::{Record, SCHEMA_VERSION};

fn tmp_root(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pllbist_crash_only_service_{}_{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn closed_form_plan(threads: usize) -> CampaignPlan<ClosedFormPll> {
    CampaignPlan::new(PllConfig::paper_table3())
        .engine::<ClosedFormPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads })
}

fn cp_pll_plan(threads: usize) -> CampaignPlan<CpPll> {
    CampaignPlan::new(PllConfig::paper_table3())
        .engine::<CpPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads })
}

/// Polls `/jobs/<id>` until its state is one of `states`.
fn wait_state(addr: std::net::SocketAddr, job: &str, states: &[&str], budget: Duration) -> String {
    let started = Instant::now();
    loop {
        if let Ok(body) = http_get(addr, &format!("/jobs/{job}")) {
            if let Some(state) = json_str_field(&body, "state") {
                if states.contains(&state.as_str()) {
                    return state;
                }
            }
        }
        assert!(
            started.elapsed() < budget,
            "job {job} not {states:?} within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Polls `/jobs/<id>` until its state is terminal (`done`/`failed`).
fn wait_terminal(addr: std::net::SocketAddr, job: &str, budget: Duration) -> String {
    wait_state(addr, job, &["done", "failed"], budget)
}

#[test]
fn submitted_campaign_runs_to_done_and_resubmission_is_idempotent() {
    let root = tmp_root("happy");
    let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
    let addr = service.addr();

    let plan = closed_form_plan(2);
    let grid = [2.0, 5.0, 11.0, 24.0];
    let job = plan.digest(&grid, "svc-it");
    let body = submission_body(&plan, &grid, "svc-it", &FaultPlan::none());
    let reply = http_post(addr, "/jobs", &body).expect("submit");
    assert!(reply.contains(&job), "reply names the job: {reply}");

    assert_eq!(wait_terminal(addr, &job, Duration::from_secs(60)), "done");
    let results = http_get(addr, &format!("/jobs/{job}/results")).expect("results");
    let lines: Vec<&str> = results.lines().collect();
    assert_eq!(lines.len(), 2 + grid.len(), "header + one line per point");
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"ok\":true") && l.contains("v_bits"))
            .count(),
        grid.len(),
        "all points healthy"
    );

    // Resubmitting a finished job is answered from the journal, without
    // re-running anything.
    let again = http_post(addr, "/jobs", &body).expect("resubmit");
    assert!(again.contains("\"state\":\"done\""), "idempotent: {again}");

    let progress = http_get(addr, "/progress").expect("progress");
    assert!(progress.contains("\"done\":1"), "progress: {progress}");
    let listing = http_get(addr, "/jobs").expect("jobs");
    assert!(listing.contains(&job), "listing: {listing}");

    // Unknown and malformed job ids are 404s, not panics.
    assert!(http_get(addr, "/jobs/0000000000000000").is_err());
    assert!(http_get(addr, "/jobs/../etc/passwd").is_err());

    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn faulted_campaign_recovers_byte_identical_to_unfaulted_reference() {
    // The tentpole contract: a campaign battered by kills, a torn
    // results line and a torn journal append must converge to the *same
    // bytes* an uninterrupted single-threaded reference produces — point
    // faults (retries, quarantines) included. An attempt's durable steps
    // are its `running` append, the results header and the sidecar store
    // when the file and sidecar are new, one step per results line, and
    // the final fsync.
    quiet_contained_panics();
    let grid = [2.0, 4.5, 7.0, 11.0, 16.0, 23.0];
    let mut faults = FaultPlan::from_seed(11, grid.len(), 0);
    let crash = |step, bytes| CrashFault { step, bytes };
    faults.crash = vec![
        // Attempt 0 (steps: running, header, sidecar, lines 0..): killed
        // before line 2 lands.
        crash(5, 0),
        // Attempt 1 (steps: running, lines 2..): line 3 torn at 7 bytes.
        crash(2, 7),
        // Attempt 2: its own `running` append torn at 12 bytes.
        crash(0, 12),
        // Attempt 3: killed before line 5 lands.
        crash(3, 0),
    ];
    assert!(
        !faults.flaky_retry.is_empty(),
        "seed must exercise the retry path"
    );

    let ref_root = tmp_root("byte_ref");
    let ref_service = CampaignService::start(ServiceConfig::rooted(&ref_root)).expect("start ref");
    let ref_plan = cp_pll_plan(1);
    let job = ref_plan.digest(&grid, "svc-bytes");
    let ref_body = submission_body(&ref_plan, &grid, "svc-bytes", &faults.reference());
    http_post(ref_service.addr(), "/jobs", &ref_body).expect("submit ref");
    assert_eq!(
        wait_terminal(ref_service.addr(), &job, Duration::from_secs(120)),
        "done"
    );
    ref_service.shutdown();

    let hot_root = tmp_root("byte_hot");
    let hot_service =
        CampaignService::start(ServiceConfig::rooted(&hot_root)).expect("start faulted");
    let hot_plan = cp_pll_plan(3);
    let hot_body = submission_body(&hot_plan, &grid, "svc-bytes", &faults);
    http_post(hot_service.addr(), "/jobs", &hot_body).expect("submit faulted");
    assert_eq!(
        wait_terminal(hot_service.addr(), &job, Duration::from_secs(120)),
        "done"
    );
    hot_service.shutdown();

    let job_dir = |root: &PathBuf| root.join(format!("job-{job}"));
    let reference = std::fs::read(job_dir(&ref_root).join("campaign.jsonl")).expect("ref bytes");
    let recovered = std::fs::read(job_dir(&hot_root).join("campaign.jsonl")).expect("hot bytes");
    assert_eq!(
        reference, recovered,
        "recovered campaign must be byte-identical to the reference"
    );

    // The journal tells the whole story: four interruptions (one after
    // a torn `running` append, healed), then done.
    let journal = std::fs::read_to_string(job_dir(&hot_root).join("job.jsonl")).expect("journal");
    assert_eq!(
        journal
            .lines()
            .filter(|l| l.contains("\"interrupted\""))
            .count(),
        faults.crash.len(),
        "every crash fired and was journaled:\n{journal}"
    );
    let done_line = journal
        .lines()
        .rfind(|l| l.contains("\"done\""))
        .expect("done event");
    // The resumed final attempt restored lock from the checkpoint
    // sidecar instead of re-settling.
    assert!(
        done_line.contains("sidecar_hits=1"),
        "sidecar resume recorded: {done_line}"
    );
    assert!(
        job_dir(&hot_root).join("campaign.ckpt").is_file(),
        "checkpoint sidecar persisted"
    );

    // The flight recorder marks every resumed attempt.
    let flight = std::fs::read_to_string(job_dir(&hot_root).join("campaign.flight.jsonl"))
        .expect("flight sidecar");
    assert!(
        flight.contains("\"restart\""),
        "restart event on the flight timeline:\n{flight}"
    );

    let _ = std::fs::remove_dir_all(&ref_root);
    let _ = std::fs::remove_dir_all(&hot_root);
}

#[test]
fn bounded_queue_answers_429_and_drops_the_durable_trace() {
    let root = tmp_root("backpressure");
    let mut config = ServiceConfig::rooted(&root);
    config.queue_capacity = 1;
    let service = CampaignService::start(config).expect("start");
    let addr = service.addr();

    // A deliberately slow occupant: each point simulates two modulation
    // periods, so millihertz points keep the behavioural engine busy for
    // thousands of simulated seconds while the queue fills behind it.
    let slow_plan = CampaignPlan::new(PllConfig::paper_table3())
        .engine::<CpPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::Serial);
    let slow_grid = [0.002, 0.0025];
    let slow_body = submission_body(&slow_plan, &slow_grid, "svc-slow", &FaultPlan::none());
    let slow_job = slow_plan.digest(&slow_grid, "svc-slow");
    http_post(addr, "/jobs", &slow_body).expect("submit slow");
    // Queued work counts against the capacity only once the runner has
    // taken the occupant off the queue.
    wait_state(addr, &slow_job, &["running"], Duration::from_secs(60));

    let queued_plan = closed_form_plan(1);
    let queued_grid = [3.0, 6.0];
    let queued_body = submission_body(&queued_plan, &queued_grid, "svc-q", &FaultPlan::none());
    let queued_reply = http_post(addr, "/jobs", &queued_body).expect("queued submit");
    assert!(
        queued_reply.contains("queued"),
        "second job queues: {queued_reply}"
    );

    let extra_plan = closed_form_plan(1);
    let extra_grid = [4.0, 8.0];
    let extra_body = submission_body(&extra_plan, &extra_grid, "svc-extra", &FaultPlan::none());
    let extra_job = extra_plan.digest(&extra_grid, "svc-extra");
    match http_post(addr, "/jobs", &extra_body) {
        Err(pllbist_sim::HttpError::Status { code, body }) => {
            assert_eq!(code, 429, "backpressure status: {body}");
            assert!(body.contains("queue full"), "backpressure body: {body}");
        }
        other => panic!("expected 429, got {other:?}"),
    }
    // The rejected job leaves no durable trace — a restart must not
    // resurrect work the client was told was refused.
    assert!(
        !root.join(format!("job-{extra_job}")).exists(),
        "429'd job dir removed"
    );

    assert_eq!(
        wait_terminal(addr, &slow_job, Duration::from_secs(120)),
        "done"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn draining_service_refuses_new_work_with_503() {
    let root = tmp_root("drain");
    let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
    let addr = service.addr();

    let reply = http_post(addr, "/drain", "").expect("drain");
    assert!(reply.contains("\"draining\":true"), "drain reply: {reply}");
    let progress = http_get(addr, "/progress").expect("progress");
    assert!(
        progress.contains("\"draining\":true"),
        "progress: {progress}"
    );

    let plan = closed_form_plan(1);
    let grid = [3.0, 9.0];
    let body = submission_body(&plan, &grid, "svc-drain", &FaultPlan::none());
    match http_post(addr, "/jobs", &body) {
        Err(pllbist_sim::HttpError::Status { code, .. }) => {
            assert_eq!(code, 503, "draining service refuses submissions");
        }
        other => panic!("expected 503, got {other:?}"),
    }
    service.shutdown();
    let journal = std::fs::read_to_string(root.join("service.jsonl")).expect("service journal");
    assert!(journal.contains("\"drain\""), "drain journaled:\n{journal}");
    assert!(journal.contains("\"stop\""), "stop journaled:\n{journal}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unappendable_journal_ends_the_job_failed_within_the_attempt_budget() {
    // A job directory whose journal and results file are directories:
    // every journal append and every results open fails, so the journal
    // never counts an attempt. The attempts the service starts must
    // still run out, ending the job `failed` instead of retrying forever.
    let root = tmp_root("unappendable");
    let plan = closed_form_plan(1);
    let grid = [3.0, 9.0];
    let dir = root.join(format!("job-{}", plan.digest(&grid, "svc-unappendable")));
    for name in ["job.jsonl", "campaign.jsonl"] {
        std::fs::create_dir_all(dir.join(name)).expect("pre-create");
    }
    let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
    let addr = service.addr();
    let body = submission_body(&plan, &grid, "svc-unappendable", &FaultPlan::none());
    http_post(addr, "/jobs", &body).expect("submit");
    let started = Instant::now();
    loop {
        let progress = http_get(addr, "/progress").expect("progress");
        if progress.contains("\"failed\":1") {
            break;
        }
        if started.elapsed() > Duration::from_secs(60) {
            // A runner that never ends the job would hang `Drop`.
            std::mem::forget(service);
            panic!("job not failed within 60 s: {progress}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn restart_rescan_resumes_an_interrupted_job_and_preserves_its_work() {
    // Simulate the aftermath of SIGKILL by hand-crafting the job
    // directory a dead service would leave: a durable submission, a
    // journal ending mid-flight, and a partial results file.
    let root = tmp_root("rescan");
    let plan = closed_form_plan(2);
    let grid = [2.0, 5.0, 11.0, 24.0];
    let salt = "svc-rescan";
    let job = plan.digest(&grid, salt);
    let dir = root.join(format!("job-{job}"));
    std::fs::create_dir_all(&dir).expect("mkdir");

    let run_header = Record::Run {
        bin: "serve".to_string(),
        schema: SCHEMA_VERSION,
    }
    .to_json();
    let body = submission_body(&plan, &grid, salt, &FaultPlan::none());
    std::fs::write(dir.join("submit.jsonl"), format!("{run_header}\n{body}")).expect("submit");

    let event = |state: &str, attempt: u32| {
        format!(
            "{{\"type\":\"result\",\"name\":\"job.event\",\"fields\":{{\"state\":\"{state}\",\"attempt\":{attempt},\"detail\":\"handcrafted\"}}}}"
        )
    };
    std::fs::write(
        dir.join("job.jsonl"),
        format!(
            "{run_header}\n{}\n{}\n{}\n",
            event("queued", 0),
            event("running", 0),
            event("interrupted", 0),
        ),
    )
    .expect("journal");

    // Two points already on disk, with sentinel values a re-run of the
    // physics would never produce: recovery must keep them verbatim.
    let log = CampaignLog::open(
        dir.join("campaign.jsonl"),
        VoltsCodec,
        job.clone(),
        grid.len(),
    )
    .expect("open partial");
    log.record(0, &Ok(123.456));
    log.record(1, &Ok(-654.321));
    log.finish(false).expect("partial finish");
    drop(log);

    let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("restart");
    assert_eq!(
        wait_terminal(service.addr(), &job, Duration::from_secs(60)),
        "done"
    );
    let results = http_get(service.addr(), &format!("/jobs/{job}/results")).expect("results");
    service.shutdown();

    assert!(
        results.contains(&bits_hex(123.456)) && results.contains(&bits_hex(-654.321)),
        "preserved pre-crash work verbatim:\n{results}"
    );
    assert_eq!(
        results
            .lines()
            .filter(|l| l.contains("\"campaign.point\""))
            .count(),
        grid.len(),
        "completed the remaining points"
    );
    let flight =
        std::fs::read_to_string(dir.join("campaign.flight.jsonl")).expect("flight sidecar");
    assert!(
        flight.contains("\"restart\""),
        "rescan resume marked on the flight timeline:\n{flight}"
    );
    let journal = std::fs::read_to_string(dir.join("job.jsonl")).expect("journal");
    assert!(
        journal.contains("requeued by restart rescan"),
        "rescan journaled:\n{journal}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// from_header rejection paths and resume-after-rename
// ---------------------------------------------------------------------------

#[test]
fn from_header_rejects_tampered_and_truncated_headers() {
    let plan = closed_form_plan(1).checkpoint(true);
    let grid = [2.0, 5.0, 11.0];
    let salt = "hdr";
    let header = plan.header_line(&grid, salt);
    let config = PllConfig::paper_table3;

    // The genuine header round trips.
    CampaignPlan::<ClosedFormPll>::from_header(&header, config(), &grid, salt).expect("round trip");

    // Truncation loses required fields.
    let truncated = &header[..header.len() / 2];
    assert!(matches!(
        CampaignPlan::<ClosedFormPll>::from_header(truncated, config(), &grid, salt),
        Err(CampaignError::Malformed { .. })
    ));

    // A tampered digest is refused like a foreign results file.
    let digest = plan.digest(&grid, salt);
    let flipped = if digest.starts_with('0') {
        digest.replacen('0', "1", 1)
    } else {
        format!("0{}", &digest[1..])
    };
    let tampered = header.replace(&digest, &flipped);
    assert!(matches!(
        CampaignPlan::<ClosedFormPll>::from_header(&tampered, config(), &grid, salt),
        Err(CampaignError::HeaderMismatch { .. })
    ));

    // The wrong engine type sees a backend mismatch.
    assert!(matches!(
        CampaignPlan::<CpPll>::from_header(&header, config(), &grid, salt),
        Err(CampaignError::HeaderMismatch { .. })
    ));

    // A shorter grid contradicts the point count.
    assert!(matches!(
        CampaignPlan::<ClosedFormPll>::from_header(&header, config(), &grid[..2], salt),
        Err(CampaignError::HeaderMismatch { .. })
    ));

    // The wrong salt recomputes a different digest.
    assert!(matches!(
        CampaignPlan::<ClosedFormPll>::from_header(&header, config(), &grid, "other-salt"),
        Err(CampaignError::HeaderMismatch { .. })
    ));
}

#[test]
fn renamed_results_file_resumes_without_recomputing_points() {
    // The results file is location-independent: its digest header, not
    // its path, is its identity. Complete a two-point prefix, rename
    // the file, and resume — the completed points must be skipped.
    let dir = tmp_root("rename");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let grid = [2.0, 5.0, 11.0];
    let plan = closed_form_plan(1);
    let digest = plan.digest(&grid, "mv");

    let before = dir.join("before.jsonl");
    let log = CampaignLog::open(&before, VoltsCodec, digest.clone(), grid.len()).expect("open");
    log.record(0, &Ok(1.25));
    log.record(1, &Ok(2.5));
    log.finish(false).expect("partial");
    drop(log);

    let after = dir.join("after.jsonl");
    std::fs::rename(&before, &after).expect("rename");

    let reopened = CampaignLog::open(&after, VoltsCodec, digest, grid.len()).expect("reopen");
    assert_eq!(reopened.completed_count(), 2, "prefix survives the rename");
    let captured = AtomicUsize::new(0);
    let outcome = plan.scenario().run_points::<ClosedFormPll, VoltsCodec, _>(
        &grid,
        1,
        true,
        plan.supervision(),
        &pllbist_telemetry::Collector::disabled(),
        Some(&reopened),
        None,
        None,
        |pll, _fm| {
            captured.fetch_add(1, Ordering::SeqCst);
            let t = pll.time();
            pll.advance_to(t + 0.01);
            Ok(pll.control_voltage())
        },
    );
    reopened.finish(true).expect("finish");
    assert_eq!(
        captured.load(Ordering::SeqCst),
        1,
        "only the missing point is recomputed"
    );
    assert_eq!(outcome.points.len(), grid.len());
    assert!(outcome.points.iter().all(|p| p.is_ok()));
    let _ = std::fs::remove_dir_all(&dir);
}
