//! Every crash point of one service attempt, enumerated.
//!
//! The method of Pillai et al., "All File Systems Are Not Created Equal"
//! (OSDI 2014): count the durable steps an attempt takes, crash at each
//! one, and at each byte of a torn write, then let the service recover.
//! A 3-point closed-form job with one retried point is run once without a
//! crash fault to count its steps and take its reference bytes. Then it
//! is run once per crash point, and each run must end with:
//!
//! 1. a results file byte-identical to the reference;
//! 2. a journal that reads `done` exactly once;
//! 3. `/progress` counting the job once;
//! 4. no point recaptured whose line was complete on disk before the
//!    crash (the final attempt skips exactly those points).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pllbist_sim::config::PllConfig;
use pllbist_sim::durable::{self, CrashFault};
use pllbist_sim::error::quiet_contained_panics;
use pllbist_sim::plan::Scheduler;
use pllbist_sim::service::{submission_body, CampaignService, FaultPlan, ServiceConfig};
use pllbist_sim::{http_get, http_post, CampaignPlan, ClosedFormPll, SupervisorPolicy};
use pllbist_telemetry::json::json_str_field;

const GRID: [f64; 3] = [2.0, 5.0, 11.0];
const SALT: &str = "crash-enumeration";
/// Steps outside the attempt's crash window: the submission, the
/// `queued` append and the `done` append.
const STEPS_OUTSIDE_ATTEMPT: usize = 3;
/// The attempt's first results-line step: after the `running` append
/// and the results header (the closed-form engine stores no sidecar).
const FIRST_LINE_STEP: usize = 2;

fn plan() -> CampaignPlan<ClosedFormPll> {
    CampaignPlan::new(PllConfig::paper_table3())
        .engine::<ClosedFormPll>()
        .lock_settle(0.05)
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads: 2 })
}

fn faults(crash: Option<CrashFault>) -> FaultPlan {
    FaultPlan {
        flaky_retry: vec![1],
        flaky_quarantine: Vec::new(),
        crash: crash.into_iter().collect(),
    }
}

/// What one run of the job left behind.
struct Run {
    results: Vec<u8>,
    journal: String,
    progress: String,
    /// Durable steps under the job directory, when counted.
    steps: Option<usize>,
}

fn job_dir(root: &Path) -> PathBuf {
    root.join(format!("job-{}", plan().digest(&GRID, SALT)))
}

/// Runs the job on a fresh service root with at most one crash fault
/// and waits for it to finish. `count` arms a fault that never fires,
/// only to count the steps.
fn run(crash: Option<CrashFault>, count: bool) -> Run {
    let root =
        std::env::temp_dir().join(format!("pllbist_crash_enumeration_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = job_dir(&root);
    let counter = count.then(|| {
        durable::arm(
            &dir,
            CrashFault {
                step: usize::MAX,
                bytes: 0,
            },
        )
    });
    let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
    let addr = service.addr();
    let job = plan().digest(&GRID, SALT);
    http_post(
        addr,
        "/jobs",
        &submission_body(&plan(), &GRID, SALT, &faults(crash)),
    )
    .expect("submit");
    let started = Instant::now();
    loop {
        let detail = http_get(addr, &format!("/jobs/{job}")).expect("poll");
        match json_str_field(&detail, "state").as_deref() {
            Some("done") => break,
            Some("failed") => panic!("{crash:?}: job failed: {detail}"),
            _ => {}
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "{crash:?}: not done in 60 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let progress = http_get(addr, "/progress").expect("progress");
    service.shutdown();
    let out = Run {
        results: std::fs::read(dir.join("campaign.jsonl")).expect("results"),
        journal: std::fs::read_to_string(dir.join("job.jsonl")).expect("journal"),
        progress,
        steps: counter.map(|c| c.steps()),
    };
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// The value of `key=` in the journal's `done` detail.
fn done_field(journal: &str, key: &str) -> usize {
    let done = journal
        .lines()
        .find(|l| l.contains("\"state\":\"done\""))
        .expect("done event");
    let detail = json_str_field(done, "detail").expect("detail");
    detail
        .split(' ')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {key}= in {detail}"))
}

#[test]
fn every_crash_point_of_an_attempt_recovers_byte_identical() {
    // Injected kills unwind by design; keep only other panics' reports.
    quiet_contained_panics();

    let reference = run(None, true);
    let steps = reference.steps.expect("counted") - STEPS_OUTSIDE_ATTEMPT;
    assert_eq!(
        steps,
        FIRST_LINE_STEP + GRID.len() + 1,
        "running append, results header, one step per line, final fsync"
    );
    assert_eq!(done_field(&reference.journal, "skipped"), 0);
    // Newline-terminated lengths of the results lines and of attempt 0's
    // `running` append.
    let line_len: Vec<usize> = reference
        .results
        .split_inclusive(|&b| b == b'\n')
        .skip(2)
        .map(<[u8]>::len)
        .collect();
    assert_eq!(line_len.len(), GRID.len());
    let running_len = reference
        .journal
        .lines()
        .find(|l| l.contains("\"state\":\"running\""))
        .expect("running event")
        .len()
        + 1;

    // Every step with b = 0, then every byte of results line 1 and of
    // the `running` append (b = length: the whole write landed, unsynced).
    let line = 1;
    let cases = (0..steps)
        .map(|step| (step, 0))
        .chain((1..=line_len[line]).map(|b| (FIRST_LINE_STEP + line, b)))
        .chain((1..=running_len).map(|b| (0, b)));
    let mut runs = 0;
    for (step, bytes) in cases {
        let crash = CrashFault { step, bytes };
        let got = run(Some(crash), false);
        assert!(
            got.results == reference.results,
            "{crash:?}: results differ from the reference"
        );
        let count = |state: &str| {
            got.journal
                .lines()
                .filter(|l| l.contains(&format!("\"state\":\"{state}\"")))
                .count()
        };
        assert_eq!(count("done"), 1, "{crash:?}:\n{}", got.journal);
        assert_eq!(count("interrupted"), 1, "{crash:?}:\n{}", got.journal);
        assert!(
            got.progress.contains("\"done\":1") && got.progress.contains("\"failed\":0"),
            "{crash:?}: {}",
            got.progress
        );
        // Lines complete on disk when the crash fired.
        let complete = match step.checked_sub(FIRST_LINE_STEP) {
            None => 0,
            Some(i) if i < GRID.len() => i + usize::from(bytes >= line_len[i]),
            Some(_) => GRID.len(),
        };
        assert_eq!(
            done_field(&got.journal, "skipped"),
            complete,
            "{crash:?}: a complete line was recaptured:\n{}",
            got.journal
        );
        runs += 1;
    }
    assert_eq!(runs, steps + line_len[line] + running_len);
}
