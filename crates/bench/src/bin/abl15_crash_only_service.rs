//! **Ablation abl15** — the crash-only campaign service under fire.
//!
//! One campaign is submitted to the service three ways: an
//! uninterrupted single-threaded reference, a battered run whose fault
//! plan crashes five attempts at chosen durable steps — kills before a
//! results line, a torn results line and a torn journal append
//! (repeated at several thread counts,
//! with a client disconnecting mid-results-stream for good measure),
//! and a SIGKILL-style restart whose job directory is seeded with a
//! torn prefix of the reference results file. Every run must reach
//! `done` with a campaign file **byte-identical** to the reference, the
//! restarted runs must preserve pre-crash work verbatim
//! (`preserved_work_ratio` = 1.0), and the journal must show the
//! resumed final attempt restoring lock from the checkpoint sidecar
//! instead of re-settling (`sidecar_hits=1`).
//!
//! `PLLBIST_ABL15_POINTS` (default 8) sizes the grid;
//! `PLLBIST_ABL15_SEED` (default 2003) seeds the point-fault plan.
//! `--jsonl <path>` records the run report (and appends the ledger row
//! when `PLLBIST_LEDGER` is set).

use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pllbist_sim::config::PllConfig;
use pllbist_sim::error::quiet_contained_panics;
use pllbist_sim::service::{
    submission_body, CampaignService, CrashFault, FaultPlan, ServiceConfig,
};
use pllbist_sim::{
    http_get_with_retries, http_post, CampaignPlan, EventDrivenCpPll, Scheduler, SupervisorPolicy,
};
use pllbist_telemetry::json::json_str_field;
use pllbist_telemetry::{fields, Record, RunReport, SCHEMA_VERSION};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pllbist_abl15_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn plan(threads: usize) -> CampaignPlan<EventDrivenCpPll> {
    let scheduler = if threads == 1 {
        Scheduler::Serial
    } else {
        Scheduler::WorkStealing { threads }
    };
    CampaignPlan::new(PllConfig::paper_table3())
        .engine::<EventDrivenCpPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(scheduler)
}

fn wait_done(addr: std::net::SocketAddr, job: &str) {
    let started = Instant::now();
    loop {
        // The hardened client: overall per-request deadline plus
        // bounded exponential backoff over transient failures.
        let body =
            http_get_with_retries(addr, &format!("/jobs/{job}"), 4, Duration::from_millis(5))
                .expect("poll job state");
        match json_str_field(&body, "state").as_deref() {
            Some("done") => return,
            Some("failed") => panic!("job {job} failed: {body}"),
            _ => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(300),
            "job {job} did not finish"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A client that connects, asks for the results stream, reads a few
/// bytes and hangs up — the server must shrug it off.
fn disconnect_mid_stream(addr: std::net::SocketAddr, job: &str) {
    if let Ok(mut stream) = std::net::TcpStream::connect(addr) {
        let _ = write!(
            stream,
            "GET /jobs/{job}/results HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        );
        let mut first = [0u8; 16];
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.read(&mut first);
        // Drop: the socket closes with the response mid-flight.
    }
}

fn main() {
    // Injected kills and quarantines unwind as typed panics by design;
    // keep their reports out of the campaign log and let any other panic
    // report as usual.
    quiet_contained_panics();

    let mut report = RunReport::from_args("abl15_crash_only_service");
    let points = env_usize("PLLBIST_ABL15_POINTS", 8).max(4);
    let seed = env_u64("PLLBIST_ABL15_SEED", 2003);
    let grid: Vec<f64> = (0..points).map(|i| 1.5 + 2.7 * i as f64).collect();
    let salt = "abl15";

    // Point-level faults fire in every run, reference included; the
    // crash schedule below is what only the battered runs endure — five
    // interrupted attempts before the clean sixth. An attempt's durable
    // steps are its `running` append, the results header and the sidecar
    // store when both are new, one step per results line, and the
    // final fsync; a crash writes `bytes` bytes of its step, then dies.
    let mut faults = FaultPlan::from_seed(seed, points, 0);
    let crash = |step, bytes| CrashFault { step, bytes };
    faults.crash = vec![
        // Attempt 0 (running, header, sidecar, lines): killed before
        // line points/3 lands.
        crash(3 + (points / 3).max(1), 0),
        // Attempt 1 (running, lines): its second line torn at 9 bytes.
        crash(2, 9),
        // Attempt 2: its own `running` append torn at 12 bytes.
        crash(0, 12),
        // Attempt 3: killed before its second line lands.
        crash(2, 0),
        // Attempt 4: killed before its first line lands.
        crash(1, 0),
    ];
    let kills = faults.crash.iter().filter(|c| c.bytes == 0).count();
    println!(
        "abl15 — crash-only campaign service ({points} points, {} crash faults, {kills} kills, {} flaky, {} quarantined)\n",
        faults.crash.len(),
        faults.flaky_retry.len(),
        faults.flaky_quarantine.len(),
    );

    let job = plan(1).digest(&grid, salt);
    let job_file = |root: &PathBuf, name: &str| root.join(format!("job-{job}")).join(name);

    // Reference: serial, no crash faults, one attempt.
    let ref_root = tmp_root("reference");
    let t0 = Instant::now();
    let reference_bytes = {
        let service = CampaignService::start(ServiceConfig::rooted(&ref_root)).expect("start ref");
        let body = submission_body(&plan(1), &grid, salt, &faults.reference());
        http_post(service.addr(), "/jobs", &body).expect("submit ref");
        wait_done(service.addr(), &job);
        service.shutdown();
        std::fs::read(job_file(&ref_root, "campaign.jsonl")).expect("reference bytes")
    };
    let reference_secs = t0.elapsed().as_secs_f64();
    println!(" reference        | serial   | 1 attempt  | {reference_secs:.3}s");

    // Battered runs: same job, crash faults armed, several thread
    // counts, a client disconnecting mid-stream while each runs.
    let mut identical = 0usize;
    let mut runs = 0usize;
    let mut interruptions = 0usize;
    let mut sidecar_hits_seen = 0usize;
    let mut faulted_secs = 0.0f64;
    for threads in [1usize, 4] {
        let root = tmp_root(&format!("faulted_t{threads}"));
        let t1 = Instant::now();
        let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start faulted");
        let body = submission_body(&plan(threads), &grid, salt, &faults);
        http_post(service.addr(), "/jobs", &body).expect("submit faulted");
        disconnect_mid_stream(service.addr(), &job);
        wait_done(service.addr(), &job);
        disconnect_mid_stream(service.addr(), &job);
        service.shutdown();
        let secs = t1.elapsed().as_secs_f64();
        faulted_secs = faulted_secs.max(secs);

        let bytes = std::fs::read(job_file(&root, "campaign.jsonl")).expect("faulted bytes");
        let same = bytes == reference_bytes;
        runs += 1;
        identical += usize::from(same);
        let journal = std::fs::read_to_string(job_file(&root, "job.jsonl")).expect("journal");
        let interrupted = journal
            .lines()
            .filter(|l| l.contains("\"interrupted\""))
            .count();
        interruptions += interrupted;
        let done_line = journal
            .lines()
            .rfind(|l| l.contains("\"done\""))
            .expect("done event");
        let sidecar_hit = done_line.contains("sidecar_hits=1");
        sidecar_hits_seen += usize::from(sidecar_hit);
        println!(
            " faulted          | {threads:>2} thread | {interrupted} interrupts | {secs:.3}s | bytes {} | sidecar {}",
            if same { "identical" } else { "DIVERGED" },
            if sidecar_hit { "hit" } else { "MISS" },
        );
        assert!(same, "threads {threads}: recovered bytes diverged");
        assert_eq!(
            interrupted,
            faults.crash.len(),
            "threads {threads}: every crash fault must fire"
        );
        assert!(
            sidecar_hit,
            "threads {threads}: resumed attempt must restore lock from the sidecar:\n{journal}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    // SIGKILL-style restart: seed a job directory with exactly what a
    // killed service leaves on disk — the durable submission, a journal
    // whose last append was torn, and a results file truncated mid-line
    // — then start a fresh service on it and let the rescan finish the
    // job.
    let restart_root = tmp_root("restart");
    let dir = restart_root.join(format!("job-{job}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let run_header = Record::Run {
        bin: "serve".to_string(),
        schema: SCHEMA_VERSION,
    }
    .to_json();
    let body = submission_body(&plan(2), &grid, salt, &faults.reference());
    std::fs::write(dir.join("submit.jsonl"), format!("{run_header}\n{body}")).expect("submit");
    let reference_text = String::from_utf8(reference_bytes.clone()).expect("utf8");
    let all_lines: Vec<&str> = reference_text.lines().collect();
    let keep_records = points / 2;
    let preserved: Vec<String> = all_lines[..2 + keep_records]
        .iter()
        .map(|l| l.to_string())
        .collect();
    let mut torn = preserved.join("\n");
    torn.push('\n');
    torn.push_str(&all_lines[2 + keep_records][..all_lines[2 + keep_records].len() / 2]);
    std::fs::write(dir.join("campaign.jsonl"), &torn).expect("torn results");
    let event = |state: &str| {
        format!(
            "{{\"type\":\"result\",\"name\":\"job.event\",\"fields\":{{\"state\":\"{state}\",\"attempt\":0,\"detail\":\"pre-kill\"}}}}"
        )
    };
    std::fs::write(
        dir.join("job.jsonl"),
        // The trailing fragment is a torn journal append: no newline.
        format!(
            "{run_header}\n{}\n{}\n{{\"type\":\"result\",\"na",
            event("queued"),
            event("running"),
        ),
    )
    .expect("torn journal");

    let t2 = Instant::now();
    let service = CampaignService::start(ServiceConfig::rooted(&restart_root)).expect("restart");
    wait_done(service.addr(), &job);
    service.shutdown();
    let restart_secs = t2.elapsed().as_secs_f64();
    let restarted = std::fs::read(job_file(&restart_root, "campaign.jsonl")).expect("bytes");
    let restart_same = restarted == reference_bytes;
    runs += 1;
    identical += usize::from(restart_same);
    // Preserved-work ratio: every pre-kill record must survive
    // verbatim at its original position.
    let restarted_text = String::from_utf8(restarted).expect("utf8");
    let restarted_lines: Vec<&str> = restarted_text.lines().collect();
    let kept = preserved
        .iter()
        .enumerate()
        .filter(|(i, line)| restarted_lines.get(*i) == Some(&line.as_str()))
        .count();
    let preserved_ratio = kept as f64 / preserved.len() as f64;
    let flight =
        std::fs::read_to_string(job_file(&restart_root, "campaign.flight.jsonl")).expect("flight");
    let restart_marked = flight.contains("\"restart\"");
    println!(
        " restart (rescan) | 2 thread | torn tail  | {restart_secs:.3}s | bytes {} | preserved {kept}/{} | flight restart {}",
        if restart_same { "identical" } else { "DIVERGED" },
        preserved.len(),
        if restart_marked { "marked" } else { "MISSING" },
    );
    assert!(restart_same, "restart: recovered bytes diverged");
    assert!(
        (preserved_ratio - 1.0).abs() < f64::EPSILON,
        "restart: pre-kill work not preserved verbatim ({kept}/{})",
        preserved.len()
    );
    assert!(restart_marked, "restart: flight timeline missing marker");
    let _ = std::fs::remove_dir_all(&restart_root);
    let _ = std::fs::remove_dir_all(&ref_root);

    let byte_identical = identical == runs;
    println!(
        "\ncompletion: {runs}/{runs} campaigns done, {identical}/{runs} byte-identical, {interruptions} injected interruptions survived"
    );
    report.result(
        "crash_only",
        fields![
            points = points,
            runs = runs,
            kills = kills,
            crash_faults = faults.crash.len(),
            interruptions = interruptions,
            byte_identical = byte_identical,
            preserved_work_ratio = preserved_ratio,
            sidecar_resumes = sidecar_hits_seen,
            reference_secs = reference_secs,
            faulted_secs = faulted_secs,
            restart_secs = restart_secs
        ],
    );
    report.finish().expect("write --jsonl output");
    assert!(byte_identical, "every recovered campaign must match");
    println!(
        "abl15: PASS — crash-only recovery byte-identical under kills, torn writes and disconnects"
    );
}
