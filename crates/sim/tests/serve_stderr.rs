//! `pllbist_serve` as a process: a job run through every injected fault
//! leaves stderr empty, even with `RUST_BACKTRACE=1`.
//!
//! Injected kills and quarantined points unwind as panics by design, and
//! each one is recorded in the job's journal or results file. The binary
//! installs `quiet_contained_panics` first, so none of them reaches the
//! panic reporter, which would otherwise print (and symbolize a
//! backtrace for) every one.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use pllbist_sim::config::PllConfig;
use pllbist_sim::plan::Scheduler;
use pllbist_sim::service::{submission_body, CrashFault, FaultPlan};
use pllbist_sim::{http_get, http_post, CampaignPlan, ClosedFormPll, SupervisorPolicy};
use pllbist_telemetry::json::json_str_field;

const GRID: [f64; 4] = [2.0, 5.0, 11.0, 24.0];
const SALT: &str = "serve-stderr";
const BUDGET: Duration = Duration::from_secs(60);

/// Kills the child if the test panics before it exits.
struct Serve(Child);

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn faulted_job_leaves_serve_stderr_empty() {
    let root = std::env::temp_dir().join(format!("pllbist_serve_stderr_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut serve = Serve(
        Command::new(env!("CARGO_BIN_EXE_pllbist_serve"))
            .args(["--bind", "127.0.0.1:0", "--root"])
            .arg(&root)
            .env("RUST_BACKTRACE", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pllbist_serve"),
    );
    // Drain stderr on its own thread so a chatty child never blocks.
    let mut stderr = serve.0.stderr.take().expect("stderr");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let mut stdout = BufReader::new(serve.0.stdout.take().expect("stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner");
    let addr: SocketAddr = json_str_field(&banner, "addr")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in {banner:?}"));

    let plan = CampaignPlan::new(PllConfig::paper_table3())
        .engine::<ClosedFormPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads: 2 });
    let faults = FaultPlan {
        flaky_retry: vec![1],
        flaky_quarantine: vec![2],
        // A torn `running` append, then a kill before a results line.
        crash: vec![
            CrashFault { step: 0, bytes: 5 },
            CrashFault { step: 3, bytes: 0 },
        ],
    };
    let job = plan.digest(&GRID, SALT);
    http_post(addr, "/jobs", &submission_body(&plan, &GRID, SALT, &faults)).expect("submit");
    let started = Instant::now();
    loop {
        let detail = http_get(addr, &format!("/jobs/{job}")).expect("poll");
        match json_str_field(&detail, "state").as_deref() {
            Some("done") => break,
            Some("failed") => panic!("job failed: {detail}"),
            _ => {}
        }
        assert!(started.elapsed() < BUDGET, "job not done in {BUDGET:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let journal =
        std::fs::read_to_string(root.join(format!("job-{job}/job.jsonl"))).expect("journal");
    assert_eq!(
        journal.matches("injected kill").count(),
        faults.crash.len(),
        "both crashes fired: {journal}"
    );
    let results = http_get(addr, &format!("/jobs/{job}/results")).expect("results");
    let quarantined: Vec<&str> = results
        .lines()
        .filter(|l| l.contains("\"ok\":false"))
        .collect();
    assert_eq!(quarantined.len(), 1, "{results}");
    assert!(quarantined[0].contains("\"index\":2"), "{}", quarantined[0]);
    assert!(
        quarantined[0].contains("injected worker panic at point 2"),
        "{}",
        quarantined[0]
    );

    serve
        .0
        .stdin
        .take()
        .expect("stdin")
        .write_all(b"drain\n")
        .expect("drain");
    let status = loop {
        if let Some(status) = serve.0.try_wait().expect("wait") {
            break status;
        }
        assert!(started.elapsed() < BUDGET, "pllbist_serve did not exit");
        std::thread::sleep(Duration::from_millis(10));
    };
    let stderr = stderr.join().expect("stderr reader");
    assert!(status.success(), "exit {status}; stderr:\n{stderr}");
    assert!(
        !stderr.contains("panicked at"),
        "contained panics reached the reporter:\n{stderr}"
    );
    assert!(stderr.is_empty(), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(&root);
}
