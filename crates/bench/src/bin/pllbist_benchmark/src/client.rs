//! The service side of the benchmark: launching `pllbist_serve` and the
//! single-threaded closed-loop client that drives it.

use std::io::BufRead as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pllbist_sim::service::{CampaignService, ServiceConfig};
use pllbist_sim::{http_get, http_post};
use pllbist_telemetry::json::{json_str_field, json_u64_field};

use crate::spans::SpanLog;
use crate::stats::{windowed_rate, RATE_WINDOW};
use crate::traffic::Job;

/// A job that has not finished within this long fails the run.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// How the service under test is started.
#[derive(Clone, Debug)]
pub enum Launcher {
    /// The real `pllbist_serve` executable.
    Process(PathBuf),
    /// `CampaignService::start` inside this process (tests only).
    #[cfg_attr(not(test), allow(dead_code))]
    InProcess,
}

/// A running service.
pub struct Server {
    addr: SocketAddr,
    kind: ServerKind,
}

enum ServerKind {
    Process {
        child: Child,
        stdin: Option<ChildStdin>,
    },
    InProcess(Option<CampaignService>),
}

impl Launcher {
    /// Starts a service on `root` and waits for it to be ready: for the
    /// process, until it prints its address, which it does after the
    /// start-up rescan.
    ///
    /// # Errors
    ///
    /// Spawn, bind or start-up failure.
    pub fn start(&self, root: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        match self {
            Launcher::Process(exe) => {
                let stderr = std::fs::File::create(root.join("serve.stderr"))
                    .map_err(|e| format!("service stderr file: {e}"))?;
                let mut child = Command::new(exe)
                    .arg("--root")
                    .arg(root)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(stderr)
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdin = child.stdin.take();
                let mut line = String::new();
                let read = child
                    .stdout
                    .as_mut()
                    .map(|out| std::io::BufReader::new(out).read_line(&mut line));
                let addr = json_str_field(&line, "addr").and_then(|a| a.parse().ok());
                match (read, addr) {
                    (Some(Ok(_)), Some(addr)) => Ok(Server {
                        addr,
                        kind: ServerKind::Process { child, stdin },
                    }),
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        let log =
                            std::fs::read_to_string(root.join("serve.stderr")).unwrap_or_default();
                        Err(format!("pllbist_serve did not start: {line:?} {log}"))
                    }
                }
            }
            Launcher::InProcess => {
                let service = CampaignService::start(ServiceConfig::rooted(root))
                    .map_err(|e| format!("in-process service: {e}"))?;
                Ok(Server {
                    addr: service.addr(),
                    kind: ServerKind::InProcess(Some(service)),
                })
            }
        }
    }
}

impl Server {
    /// The service's HTTP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (VmHWM) of the serving process in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.kind {
            ServerKind::Process { child, .. } => crate::host::peak_rss_mb(Some(child.id())),
            ServerKind::InProcess(_) => crate::host::peak_rss_mb(None),
        }
    }

    /// Graceful stop: closing stdin drains the (idle) queue and exits.
    /// Waits until the process has ended.
    ///
    /// # Errors
    ///
    /// The process had to be killed, or exited unsuccessfully.
    pub fn stop(mut self) -> Result<(), String> {
        match &mut self.kind {
            ServerKind::Process { child, stdin } => {
                drop(stdin.take());
                let started = Instant::now();
                loop {
                    match child.try_wait() {
                        Ok(Some(status)) if status.success() => return Ok(()),
                        Ok(Some(status)) => return Err(format!("pllbist_serve exited {status}")),
                        Ok(None) if started.elapsed() < Duration::from_secs(60) => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err("pllbist_serve did not drain; killed".to_string());
                        }
                    }
                }
            }
            ServerKind::InProcess(service) => {
                if let Some(service) = service.take() {
                    service.shutdown();
                }
                Ok(())
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let ServerKind::Process { child, .. } = &mut self.kind {
            if matches!(child.try_wait(), Ok(None)) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
    }
}

/// How one submitted job ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobEnd {
    /// The journal reached `done`.
    Done,
    /// The journal reached `failed`.
    Failed,
    /// The submission was refused (non-2xx or transport error).
    Refused(String),
}

/// The client's view of one job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Position in the workload's job sequence.
    pub index: usize,
    /// Job id (plan digest).
    pub digest: String,
    /// Grid points.
    pub points: usize,
    /// Seconds from the phase start to sending `POST /jobs`.
    pub submitted: f64,
    /// Seconds from the phase start to the first `GET` showing the end.
    pub ended: f64,
    /// How it ended.
    pub end: JobEnd,
    /// `attempts` of the final `GET`.
    pub attempts: u64,
    /// `results_lines` of the final `GET`: point records in the results file.
    pub results_lines: u64,
}

impl JobRecord {
    /// POST → first `GET` showing the end.
    pub fn latency(&self) -> f64 {
        self.ended - self.submitted
    }
}

/// One closed-loop phase of traffic.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Every job submitted, in submission (and completion) order.
    pub jobs: Vec<JobRecord>,
    /// Duration of every `POST /jobs`, seconds.
    pub submit_secs: Vec<f64>,
    /// Duration of every `GET /jobs/<id>`, seconds.
    pub poll_secs: Vec<f64>,
    /// Client-side anomalies (id mismatches, timeouts).
    pub problems: Vec<String>,
}

impl Phase {
    /// Grid points of jobs that reached `done` per second: the median
    /// over windows of [`RATE_WINDOW`] consecutive completions.
    pub fn points_per_s(&self) -> f64 {
        let ops: Vec<(f64, f64)> = self
            .jobs
            .iter()
            .map(|j| {
                let points = if j.end == JobEnd::Done { j.points } else { 0 };
                (points as f64, j.ended)
            })
            .collect();
        windowed_rate(&ops, 0.0, RATE_WINDOW)
    }
}

/// Runs jobs from `jobs` against `addr` in a closed loop, one at a time:
/// submit, poll until the job ends, submit the next, while fewer than
/// `seconds` have passed (and always at least two jobs).
///
/// Polls are spaced by [`poll_interval`]. With `spans`, each job gets a
/// `job` span with `submit` and `poll` children.
pub fn drive(
    addr: SocketAddr,
    jobs: &mut dyn Iterator<Item = Job>,
    seconds: f64,
    spans: Option<&SpanLog>,
) -> Phase {
    let start = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut phase = Phase::default();
    for job in jobs {
        if phase.jobs.len() >= 2 && since(Instant::now()) >= seconds {
            break;
        }
        let job_span = spans.map(|log| log.open("job", None, Some(job.index)));
        let sent = Instant::now();
        let answer = http_post(addr, "/jobs", &job.body);
        let acked = Instant::now();
        phase.submit_secs.push((acked - sent).as_secs_f64());
        if let Some(log) = spans {
            log.record("submit", job_span, Some(job.index), sent, acked);
        }
        let mut record = JobRecord {
            index: job.index,
            digest: job.digest.clone(),
            points: job.grid.len(),
            submitted: since(sent),
            ended: since(acked),
            end: JobEnd::Done,
            attempts: 0,
            results_lines: 0,
        };
        match answer {
            Ok(body) => {
                let id = json_str_field(&body, "job").unwrap_or_default();
                let state = json_str_field(&body, "state").unwrap_or_default();
                if id != job.digest || state != "queued" {
                    phase.problems.push(format!(
                        "job {} answered {body} (expected a fresh queued {})",
                        job.index, job.digest
                    ));
                }
                poll_until_end(addr, &mut record, &mut phase, start, spans, job_span);
            }
            Err(error) => record.end = JobEnd::Refused(error.to_string()),
        }
        if let (Some(log), Some(id)) = (spans, job_span) {
            log.close(id);
        }
        phase.jobs.push(record);
    }
    phase
}

/// The wait before the next poll of a job `elapsed` seconds old:
/// clamp(elapsed/20, 100 µs, 5 ms), which bounds the latency error to 5 %.
pub fn poll_interval(elapsed: f64) -> Duration {
    Duration::from_secs_f64(elapsed.max(0.0) / 20.0)
        .clamp(Duration::from_micros(100), Duration::from_millis(5))
}

/// Runs `f` while another thread polls `GET /jobs/<digest>` at the
/// client's interval, so that work replayed beside an idle service meets
/// the load a live job meets: the service answers dozens of polls per job,
/// each reading the job's journal and whole results file.
pub fn under_polling<T>(addr: SocketAddr, digest: &str, f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let path = format!("/jobs/{digest}");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let start = Instant::now();
            while !stop.load(Ordering::SeqCst) {
                let _ = http_get(addr, &path);
                std::thread::sleep(poll_interval(start.elapsed().as_secs_f64()));
            }
        });
        let value = f();
        stop.store(true, Ordering::SeqCst);
        value
    })
}

/// Polls `GET /jobs/<id>` until the job is `done` or `failed` (or past
/// [`JOB_TIMEOUT`]) and fills in how and when it ended.
fn poll_until_end(
    addr: SocketAddr,
    record: &mut JobRecord,
    phase: &mut Phase,
    start: Instant,
    spans: Option<&SpanLog>,
    job_span: Option<usize>,
) {
    let path = format!("/jobs/{}", record.digest);
    loop {
        let sent = Instant::now();
        let answer = http_get(addr, &path);
        let seen = Instant::now();
        phase.poll_secs.push((seen - sent).as_secs_f64());
        if let Some(log) = spans {
            log.record("poll", job_span, Some(record.index), sent, seen);
        }
        let field = |name| {
            answer
                .as_ref()
                .ok()
                .and_then(|body| json_u64_field(body, name))
                .unwrap_or(0)
        };
        let ended = (seen - start).as_secs_f64();
        let elapsed = ended - record.submitted;
        record.end = match answer
            .as_ref()
            .ok()
            .and_then(|b| json_str_field(b, "state"))
            .as_deref()
        {
            Some("done") => JobEnd::Done,
            Some("failed") => JobEnd::Failed,
            _ if elapsed > JOB_TIMEOUT.as_secs_f64() => {
                phase.problems.push(format!(
                    "job {} did not end within {JOB_TIMEOUT:?}",
                    record.index
                ));
                JobEnd::Failed
            }
            _ => {
                std::thread::sleep(poll_interval(elapsed));
                continue;
            }
        };
        record.ended = ended;
        record.attempts = field("attempts");
        record.results_lines = field("results_lines");
        return;
    }
}
