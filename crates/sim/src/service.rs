//! Crash-only campaign service: the durable front door for sweep jobs.
//!
//! A [`CampaignService`] accepts campaign submissions over plain HTTP
//! (`std::net`, no dependencies), runs each attempt through the one plan
//! entry ([`PlanRun`]: the submitted plan with the job's results file,
//! sidecar and observer attached) and streams results and progress back
//! out, the running job's [`CampaignObserver`] included
//! (`GET /jobs/<id>/progress`, `/workers`, `/incidents`): this router is
//! the crate's one HTTP surface. The design is **crash-only**: there is no
//! distinction between a crash and a normal stop. Every state
//! transition lands in an append-only fsynced journal *before* the work
//! it describes, the campaign results file is the same
//! torn-write-tolerant [`CampaignLog`](crate::campaign::CampaignLog)
//! JSONL the batch runner uses, and on start the service rescans its
//! root directory and resumes every job whose journal does not end in
//! `done`/`failed`. Killing the process with SIGKILL at any instant
//! therefore loses at most the in-flight point — never completed work,
//! and never byte-identity of the final results file.
//!
//! # Job directory layout
//!
//! Each job lives in `<root>/job-<digest>/`. Every write there except
//! the flight dump goes through [`crate::durable`]:
//!
//! | file                    | contents                            | written by            |
//! |-------------------------|-------------------------------------|-----------------------|
//! | `submit.jsonl`          | the submission                      | `durable::replace`    |
//! | `job.jsonl`             | append-only lifecycle journal       | `durable::append`     |
//! | `campaign.jsonl`        | the `CampaignLog` results file      | `durable::write/sync` |
//! | `campaign.ckpt`         | `LockSidecar` settled-lock snapshot | `durable::replace`    |
//! | `campaign.flight.jsonl` | flight-recorder dump (diagnostics)  | the observer          |
//!
//! # Deterministic fault injection
//!
//! A submission carries a [`FaultPlan`] (derived from the seeded testkit
//! PRNG). Its point faults — retryable failures and worker panics at
//! chosen grid indices — wrap the capture ([`FaultPlan::wrap_capture`]).
//! Its crash faults are one [`CrashFault`] per attempt: attempt `n` arms
//! the job directory with `crash[n]` ([`crate::durable::arm`]) from its
//! `running` journal append through the results file's final fsync, so
//! the attempt's durable step `step` writes its first `bytes` bytes and
//! the attempt dies with [`crate::error::InjectedKill`]. Admission bounds
//! the plan: at most `MAX_ATTEMPTS − 2` crashes, each at a step an
//! attempt of the grid can reach, and point faults at distinct indices
//! inside the grid. The `abl15_crash_only_service` ablation drives the
//! service through those faults plus real process kills and asserts
//! every campaign completes with a results file byte-identical to an
//! uninterrupted serial reference.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::behavioral::CpPll;
use crate::campaign::{bits_hex, f64_from_bits_hex, PointCodec};
use crate::config::{DriveConfig, FilterConfig, PllConfig};
use crate::durable::{self, Armed};
use crate::engine::{ClosedFormPll, PllEngine};
use crate::error::{CampaignError, InjectedKill, SweepPointError};
use crate::observe::{CampaignObserver, ObservatoryConfig};
use crate::parallel::resolve_threads;
use crate::plan::{CampaignPlan, Scheduler};
use crate::scenario::{PlanRun, Scenario};
use crate::server::{read_http_request, write_http_response, HttpRequest};
use crate::stimulus::FmStimulus;
use crate::supervisor::Supervised;
use pllbist_telemetry::json::{json_str_field, json_u64_field};
use pllbist_telemetry::recorder::{FlightEventKind, NO_POINT};
use pllbist_telemetry::{
    write_json_str, Collector, Fields, Record, TelemetryConfig, Value, SCHEMA_VERSION,
};
use pllbist_testkit::rng::TestRng;

/// Journal/submission record bin tag.
const SERVE_BIN: &str = "serve";
/// Journal event record name.
const EVENT_RECORD: &str = "job.event";
/// Submission spec record name.
const SPEC_RECORD: &str = "job.spec";
/// Attempts per job before it is journaled `failed`. Admission allows
/// at most `MAX_ATTEMPTS − 2` crash faults, so a job always keeps two
/// attempts that no injected crash touches.
const MAX_ATTEMPTS: u32 = 16;
/// Durable steps an attempt takes besides one results line per point:
/// the `running` append, the results header, the sidecar store and the
/// results file's final fsync.
const FIXED_STEPS: usize = 4;
/// A servable backend: its tag, its admission check and its attempt.
type Backend = (
    fn() -> &'static str,
    fn(&JobSpec) -> Result<(), String>,
    fn(&ServiceState, &Path, &JobSpec, u32, Option<&Armed>) -> Result<String, AttemptError>,
);

/// Backends the service can instantiate: the one list of them.
static BACKENDS: [Backend; 2] = [
    (
        CpPll::backend_name,
        admit::<CpPll>,
        execute_attempt::<CpPll>,
    ),
    (
        ClosedFormPll::backend_name,
        admit::<ClosedFormPll>,
        execute_attempt::<ClosedFormPll>,
    ),
];

/// Admits a parsed submission to backend `E`: the header must rebuild a
/// plan whose digest is the one it claims ([`CampaignPlan::from_header`])
/// — that digest names the job and its directory.
fn admit<E: PllEngine>(spec: &JobSpec) -> Result<(), String> {
    CampaignPlan::<E>::from_header(&spec.header, spec.config.clone(), &spec.grid, &spec.salt)
        .map(drop)
        .map_err(|e| format!("header rejected: {e}"))
}

/// The servable backend tagged `name`.
fn servable(name: &str) -> Option<&'static Backend> {
    BACKENDS.iter().find(|(tag, ..)| tag() == name)
}

// ---------------------------------------------------------------------------
// Point codec
// ---------------------------------------------------------------------------

/// The service's result codec: one control voltage per modulation
/// point, serialised losslessly as IEEE-754 bits.
#[derive(Clone, Copy, Debug, Default)]
pub struct VoltsCodec;

impl PointCodec for VoltsCodec {
    type Point = f64;

    fn encode(&self, point: &f64) -> Fields {
        vec![("v_bits".to_string(), Value::Str(bits_hex(*point)))]
    }

    fn decode(&self, line: &str) -> Option<f64> {
        f64_from_bits_hex(&json_str_field(line, "v_bits")?)
    }
}

// ---------------------------------------------------------------------------
// Config wire codec
// ---------------------------------------------------------------------------

fn opt_hex(v: Option<f64>) -> String {
    match v {
        Some(v) => bits_hex(v),
        None => "-".to_string(),
    }
}

fn opt_from_hex(s: &str) -> Option<Option<f64>> {
    if s == "-" {
        Some(None)
    } else {
        Some(Some(f64_from_bits_hex(s)?))
    }
}

/// Serialises a [`PllConfig`] for transport inside a submission. Every
/// `f64` travels as its exact bit pattern, so
/// `config_from_wire(&config_to_wire(c)) == Some(c)` holds bit-for-bit
/// — which is what keeps the plan digest stable across the wire.
pub fn config_to_wire(config: &PllConfig) -> String {
    let drive = match config.drive {
        DriveConfig::Voltage { vdd } => format!("v:{}", bits_hex(vdd)),
        DriveConfig::Charge { i_pump, mismatch } => {
            format!("c:{},{}", bits_hex(i_pump), bits_hex(mismatch))
        }
    };
    let filter = match config.filter {
        FilterConfig::PassiveLag { r1, r2, c, r_leak } => format!(
            "lag:{},{},{},{}",
            bits_hex(r1),
            bits_hex(r2),
            bits_hex(c),
            opt_hex(r_leak)
        ),
        FilterConfig::SeriesRc { r, c1, c2, r_leak } => format!(
            "rc:{},{},{},{}",
            bits_hex(r),
            bits_hex(c1),
            opt_hex(c2),
            opt_hex(r_leak)
        ),
        FilterConfig::ActivePi { tau1, tau2 } => {
            format!("pi:{},{}", bits_hex(tau1), bits_hex(tau2))
        }
    };
    let range = match config.vco_range_hz {
        Some((lo, hi)) => format!("{},{}", bits_hex(lo), bits_hex(hi)),
        None => "-".to_string(),
    };
    format!(
        "v1;{};{};{};{};{};{};{},{};{};{}",
        bits_hex(config.f_ref_hz),
        config.divider_n,
        drive,
        filter,
        bits_hex(config.vco_k0),
        bits_hex(config.vco_gain_scale),
        bits_hex(config.vco_curvature.0),
        bits_hex(config.vco_curvature.1),
        range,
        bits_hex(config.pfd_dead_zone),
    )
}

/// Inverse of [`config_to_wire`]. `None` on any malformed field — a
/// hostile submission degrades to a 400, never a panic.
pub fn config_from_wire(wire: &str) -> Option<PllConfig> {
    let mut parts = wire.split(';');
    if parts.next()? != "v1" {
        return None;
    }
    let f_ref_hz = f64_from_bits_hex(parts.next()?)?;
    let divider_n: u32 = parts.next()?.parse().ok()?;
    let (drive_tag, drive_rest) = parts.next()?.split_once(':')?;
    let drive = match drive_tag {
        "v" => DriveConfig::Voltage {
            vdd: f64_from_bits_hex(drive_rest)?,
        },
        "c" => {
            let (i, m) = drive_rest.split_once(',')?;
            DriveConfig::Charge {
                i_pump: f64_from_bits_hex(i)?,
                mismatch: f64_from_bits_hex(m)?,
            }
        }
        _ => return None,
    };
    let (filter_tag, filter_rest) = parts.next()?.split_once(':')?;
    let fs: Vec<&str> = filter_rest.split(',').collect();
    let filter = match (filter_tag, fs.len()) {
        ("lag", 4) => FilterConfig::PassiveLag {
            r1: f64_from_bits_hex(fs[0])?,
            r2: f64_from_bits_hex(fs[1])?,
            c: f64_from_bits_hex(fs[2])?,
            r_leak: opt_from_hex(fs[3])?,
        },
        ("rc", 4) => FilterConfig::SeriesRc {
            r: f64_from_bits_hex(fs[0])?,
            c1: f64_from_bits_hex(fs[1])?,
            c2: opt_from_hex(fs[2])?,
            r_leak: opt_from_hex(fs[3])?,
        },
        ("pi", 2) => FilterConfig::ActivePi {
            tau1: f64_from_bits_hex(fs[0])?,
            tau2: f64_from_bits_hex(fs[1])?,
        },
        _ => return None,
    };
    let vco_k0 = f64_from_bits_hex(parts.next()?)?;
    let vco_gain_scale = f64_from_bits_hex(parts.next()?)?;
    let (c0, c1) = parts.next()?.split_once(',')?;
    let vco_curvature = (f64_from_bits_hex(c0)?, f64_from_bits_hex(c1)?);
    let range = parts.next()?;
    let vco_range_hz = if range == "-" {
        None
    } else {
        let (lo, hi) = range.split_once(',')?;
        Some((f64_from_bits_hex(lo)?, f64_from_bits_hex(hi)?))
    };
    let pfd_dead_zone = f64_from_bits_hex(parts.next()?)?;
    if parts.next().is_some() {
        return None;
    }
    Some(PllConfig {
        f_ref_hz,
        divider_n,
        drive,
        filter,
        vco_k0,
        vco_gain_scale,
        vco_curvature,
        vco_range_hz,
        pfd_dead_zone,
    })
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

pub use crate::durable::CrashFault;

/// A deterministic fault schedule carried inside a submission.
///
/// Point-level faults (`flaky_retry`, `flaky_quarantine`) fire in
/// *every* run — including the uninterrupted reference — so the final
/// results file is identical with or without the process-level `crash`
/// faults layered on top. That is the byte-identity contract the
/// `abl15` ablation gates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Grid indices whose first capture per process attempt fails with
    /// a retryable [`SweepPointError::DegenerateFit`].
    pub flaky_retry: Vec<usize>,
    /// Grid indices whose capture panics — quarantined deterministically
    /// by the supervisor as a worker panic.
    pub flaky_quarantine: Vec<usize>,
    /// Crash faults: attempt `n` crashes at `crash[n]`; attempts past
    /// the end run crash-free, which is what guarantees completion.
    pub crash: Vec<CrashFault>,
}

impl FaultPlan {
    /// The empty plan: a healthy production submission.
    pub fn none() -> Self {
        Self::default()
    }

    /// A reproducible fault schedule from the seeded testkit PRNG:
    /// roughly a quarter of points flaky-retryable, a further sliver
    /// quarantined, plus `kills` crash faults at steps an attempt of
    /// `points` points can reach, half of them plain kills (`bytes = 0`)
    /// and half torn writes.
    pub fn from_seed(seed: u64, points: usize, kills: usize) -> Self {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut plan = Self::none();
        for i in 0..points {
            let r = rng.next_f64();
            if r < 0.25 {
                plan.flaky_retry.push(i);
            } else if r < 0.32 {
                plan.flaky_quarantine.push(i);
            }
        }
        for _ in 0..kills {
            let step = rng.usize_range(0, points + FIXED_STEPS);
            let bytes = if rng.next_bool() {
                rng.usize_range(1, 24)
            } else {
                0
            };
            plan.crash.push(CrashFault { step, bytes });
        }
        plan
    }

    /// The same plan with every process-level fault removed — what an
    /// uninterrupted reference run of the same job executes.
    pub fn reference(&self) -> Self {
        Self {
            flaky_retry: self.flaky_retry.clone(),
            flaky_quarantine: self.flaky_quarantine.clone(),
            crash: Vec::new(),
        }
    }

    /// Wraps one attempt's indexed capture with the point-level faults,
    /// so no injection lives in the capture itself: a `flaky_quarantine`
    /// index panics with a typed [`SweepPointError::WorkerPanic`]
    /// payload, and a `flaky_retry` index fails its first capture of the
    /// attempt. Faults key on the runner's grid index, never on the
    /// frequency. Once the attempt's armed `crash` has fired, every
    /// capture unwinds with [`InjectedKill`]: the process is dead. Both
    /// payloads are contained by design, so
    /// [`quiet_contained_panics`](crate::error::quiet_contained_panics)
    /// keeps them off stderr.
    pub fn wrap_capture<'a, E, P, F>(
        &'a self,
        crash: Option<&'a Armed>,
        capture: F,
    ) -> impl Fn(&mut Supervised<E>, usize, f64, &Collector) -> Result<P, SweepPointError> + Sync + 'a
    where
        E: PllEngine,
        F: Fn(&mut Supervised<E>, usize, f64, &Collector) -> Result<P, SweepPointError> + Sync + 'a,
    {
        let retried = Mutex::new(BTreeSet::new());
        move |pll, index, f_mod, telemetry| {
            if crash.is_some_and(Armed::fired) {
                std::panic::panic_any(InjectedKill);
            }
            if self.flaky_quarantine.contains(&index) {
                std::panic::panic_any(SweepPointError::WorkerPanic {
                    message: format!("injected worker panic at point {index}"),
                });
            }
            if self.flaky_retry.contains(&index) && lock(&retried).insert(index) {
                return Err(SweepPointError::DegenerateFit { f_mod_hz: f_mod });
            }
            capture(pll, index, f_mod, telemetry)
        }
    }

    /// Serialises the plan for transport inside a submission:
    /// `fp1|retry:<i>,…|panic:<i>,…|crash:<step>.<bytes>;…`, `-` for an
    /// empty list.
    pub fn to_wire(&self) -> String {
        fn list<T>(items: &[T], sep: &str, item: impl Fn(&T) -> String) -> String {
            if items.is_empty() {
                return "-".to_string();
            }
            items.iter().map(item).collect::<Vec<_>>().join(sep)
        }
        format!(
            "fp1|retry:{}|panic:{}|crash:{}",
            list(&self.flaky_retry, ",", ToString::to_string),
            list(&self.flaky_quarantine, ",", ToString::to_string),
            list(&self.crash, ";", |c| format!("{}.{}", c.step, c.bytes)),
        )
    }

    /// Inverse of [`to_wire`](Self::to_wire); `None` on malformed input.
    pub fn from_wire(wire: &str) -> Option<Self> {
        fn list<T>(s: &str, sep: char, item: impl Fn(&str) -> Option<T>) -> Option<Vec<T>> {
            if s == "-" {
                return Some(Vec::new());
            }
            s.split(sep).map(item).collect()
        }
        let ["fp1", retry, panic, crash] = wire.split('|').collect::<Vec<_>>()[..] else {
            return None;
        };
        let index = |t: &str| t.parse().ok();
        Some(Self {
            flaky_retry: list(retry.strip_prefix("retry:")?, ',', index)?,
            flaky_quarantine: list(panic.strip_prefix("panic:")?, ',', index)?,
            crash: list(crash.strip_prefix("crash:")?, ';', |tok| {
                let (step, bytes) = tok.split_once('.')?;
                Some(CrashFault {
                    step: step.parse().ok()?,
                    bytes: bytes.parse().ok()?,
                })
            })?,
        })
    }
}

// ---------------------------------------------------------------------------
// Submission
// ---------------------------------------------------------------------------

/// Builds the `POST /jobs` body for a plan: the plan's
/// [`header_line`](CampaignPlan::header_line) followed by a `job.spec`
/// record carrying the config, grid, salt, thread count and fault plan
/// — everything the service needs to rebuild the plan via
/// [`CampaignPlan::from_header`] and verify the digest round trip.
pub fn submission_body<E: PllEngine>(
    plan: &CampaignPlan<E>,
    f_mod_hz: &[f64],
    workload_salt: &str,
    faults: &FaultPlan,
) -> String {
    let header = plan.header_line(f_mod_hz, workload_salt);
    let grid = f_mod_hz
        .iter()
        .map(|f| bits_hex(*f))
        .collect::<Vec<_>>()
        .join(",");
    let fields: Fields = vec![
        (
            "config".to_string(),
            Value::Str(config_to_wire(plan.config())),
        ),
        ("grid".to_string(), Value::Str(grid)),
        ("salt".to_string(), Value::Str(workload_salt.to_string())),
        (
            "threads".to_string(),
            Value::U64(resolve_threads(plan.schedule().threads()).clamp(1, 256) as u64),
        ),
        ("faults".to_string(), Value::Str(faults.to_wire())),
    ];
    let spec = Record::Result {
        name: SPEC_RECORD.to_string(),
        fields,
    }
    .to_json();
    format!("{header}\n{spec}\n")
}

/// A parsed, validated submission — everything `run_job` needs, plus
/// the verbatim header line the digest check replays against.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The verbatim campaign header line from the submission.
    pub header: String,
    /// The PLL under test.
    pub config: PllConfig,
    /// Modulation grid (Hz), bit-exact from the wire.
    pub grid: Vec<f64>,
    /// Workload salt the digest was computed with.
    pub salt: String,
    /// Worker threads for the sweep.
    pub threads: usize,
    /// Backend tag from the header (`cp_pll` / `closed_form`).
    pub backend: String,
    /// The plan digest — doubles as the job id and directory name.
    pub digest: String,
    /// Deterministic fault schedule (empty in production).
    pub faults: FaultPlan,
}

impl JobSpec {
    /// Parses and validates a `POST /jobs` body.
    ///
    /// # Errors
    ///
    /// A human-readable reason (surfaced as the 400 body) when the
    /// header or spec line is missing or malformed, the digest is not
    /// 16 lowercase hex characters (it names a directory — this is the
    /// path-traversal guard), the backend is not servable, the grid is
    /// empty /
    /// non-finite / non-positive / has duplicate bit patterns, the
    /// point count disagrees with the grid, or the header's digest is not
    /// the one its plan, config, grid and salt rebuild, or the fault plan
    /// is out of bounds: more than `MAX_ATTEMPTS − 2` crash faults, a
    /// crash step no attempt of the grid reaches, or a point-fault index
    /// outside the grid or repeated. The runner keys captures and
    /// faults by grid index, so a repeated frequency would run; it is
    /// refused here as outside input that measures one tone twice, which
    /// is a client mistake rather than a campaign.
    pub fn parse(body: &str) -> Result<Self, String> {
        let header = body
            .lines()
            .find(|l| l.contains("\"type\":\"campaign\""))
            .ok_or_else(|| "missing campaign header line".to_string())?
            .to_string();
        let spec_line = body
            .lines()
            .find(|l| l.contains("\"job.spec\""))
            .ok_or_else(|| "missing job.spec line".to_string())?;
        let digest = json_str_field(&header, "digest").ok_or("header missing digest")?;
        if !valid_job_id(&digest) {
            return Err("digest must be 16 lowercase hex characters".to_string());
        }
        let backend = json_str_field(&header, "backend").ok_or("header missing backend")?;
        let (_, admit, _) =
            servable(&backend).ok_or_else(|| format!("backend \"{backend}\" is not servable"))?;
        let points = json_u64_field(&header, "points").ok_or("header missing points")?;
        let config_wire = json_str_field(spec_line, "config").ok_or("spec missing config")?;
        let config = config_from_wire(&config_wire).ok_or("malformed config")?;
        let grid_wire = json_str_field(spec_line, "grid").ok_or("spec missing grid")?;
        let grid: Vec<f64> = grid_wire
            .split(',')
            .map(f64_from_bits_hex)
            .collect::<Option<_>>()
            .ok_or("malformed grid")?;
        if grid.is_empty() {
            return Err("empty grid".to_string());
        }
        if grid.iter().any(|f| !f.is_finite() || *f <= 0.0) {
            return Err("grid frequencies must be finite and positive".to_string());
        }
        let distinct: BTreeSet<u64> = grid.iter().map(|f| f.to_bits()).collect();
        if distinct.len() != grid.len() {
            return Err("grid frequencies must be distinct".to_string());
        }
        if points != grid.len() as u64 {
            return Err(format!(
                "header points {points} disagrees with grid length {}",
                grid.len()
            ));
        }
        let salt = json_str_field(spec_line, "salt").ok_or("spec missing salt")?;
        if salt.contains('"') || salt.contains('\\') {
            return Err("salt must not contain quotes or backslashes".to_string());
        }
        let threads = json_u64_field(spec_line, "threads").ok_or("spec missing threads")?;
        let threads = usize::try_from(threads)
            .ok()
            .filter(|t| (1..=256).contains(t))
            .ok_or("threads must be in 1..=256")?;
        let faults_wire = json_str_field(spec_line, "faults").ok_or("spec missing faults")?;
        let faults = FaultPlan::from_wire(&faults_wire).ok_or("malformed fault plan")?;
        check_faults(&faults, grid.len())?;
        let spec = Self {
            header,
            config,
            grid,
            salt,
            threads,
            backend,
            digest,
            faults,
        };
        admit(&spec)?;
        Ok(spec)
    }
}

/// Bounds a submitted fault plan, so the untrusted wire cannot set the
/// attempt budget or name faults that never fire: at most
/// `MAX_ATTEMPTS − 2` crash faults, each at a durable step an attempt of
/// a `points`-point grid can reach, and point faults at distinct indices
/// inside the grid.
fn check_faults(faults: &FaultPlan, points: usize) -> Result<(), String> {
    let max_crashes = (MAX_ATTEMPTS - 2) as usize;
    if faults.crash.len() > max_crashes {
        return Err(format!(
            "{} crash faults, at most {max_crashes} allowed",
            faults.crash.len()
        ));
    }
    let steps = points + FIXED_STEPS;
    if let Some(crash) = faults.crash.iter().find(|c| c.step >= steps) {
        return Err(format!(
            "crash step {} unreachable: an attempt takes at most {steps} durable steps",
            crash.step
        ));
    }
    let mut seen = BTreeSet::new();
    for &index in faults.flaky_retry.iter().chain(&faults.flaky_quarantine) {
        if index >= points || !seen.insert(index) {
            return Err(format!(
                "point fault index {index} is repeated or outside the {points}-point grid"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

fn journal_event_line(state: &str, attempt: u32, detail: &str) -> String {
    Record::Result {
        name: EVENT_RECORD.to_string(),
        fields: vec![
            ("state".to_string(), Value::Str(state.to_string())),
            ("attempt".to_string(), Value::U64(u64::from(attempt))),
            ("detail".to_string(), Value::Str(detail.to_string())),
        ],
    }
    .to_json()
}

/// Appends one event to an append-only journal with
/// [`durable::append`], which heals a torn previous append and fsyncs.
/// A new journal starts with its run header. Crash-only recovery reads
/// the journal as ground truth.
fn journal_append(path: &Path, state: &str, attempt: u32, detail: &str) -> std::io::Result<()> {
    let mut out = String::new();
    if std::fs::metadata(path).map_or(true, |m| m.len() == 0) {
        out.push_str(
            &Record::Run {
                bin: SERVE_BIN.to_string(),
                schema: SCHEMA_VERSION,
            }
            .to_json(),
        );
        out.push('\n');
    }
    out.push_str(&journal_event_line(state, attempt, detail));
    out.push('\n');
    durable::append(path, out.as_bytes())
}

/// Replays a journal: `(last parseable state, attempts started)`.
/// Unparsable lines — torn appends — are skipped, never fatal. Attempt
/// `n` has started once a `running` or an `interrupted` event names it:
/// a crash can tear the `running` append itself. A missing or empty
/// journal reads as `("queued", 0)`.
fn journal_summary(path: &Path) -> (String, u32) {
    let mut state = "queued".to_string();
    let mut attempts: u32 = 0;
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if !line.contains(EVENT_RECORD) {
                continue;
            }
            if let Some(s) = json_str_field(line, "state") {
                if s == "running" || s == "interrupted" {
                    if let Some(attempt) = json_u64_field(line, "attempt") {
                        let started = u32::try_from(attempt).unwrap_or(u32::MAX);
                        attempts = attempts.max(started.saturating_add(1));
                    }
                }
                state = s;
            }
        }
    }
    (state, attempts)
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

/// Knobs for one [`CampaignService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory for job state (created if absent).
    pub root: PathBuf,
    /// Bind address; port 0 picks an ephemeral port.
    pub bind: String,
    /// Bounded job queue depth — submissions past it get `429`.
    pub queue_capacity: usize,
}

impl ServiceConfig {
    /// Defaults rooted at `root`: ephemeral port, queue of 16.
    pub fn rooted(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            bind: "127.0.0.1:0".to_string(),
            queue_capacity: 16,
        }
    }
}

struct ServiceState {
    root: PathBuf,
    draining: AtomicBool,
    stop: AtomicBool,
    tx: Mutex<Option<mpsc::SyncSender<String>>>,
    /// Jobs accepted but not yet finished (queued or running).
    inflight: Mutex<BTreeSet<String>>,
    running: Mutex<Option<String>>,
    current_observer: Mutex<Option<Arc<CampaignObserver>>>,
    done: AtomicUsize,
    failed: AtomicUsize,
}

/// Poison-tolerant lock: a panicking holder must not wedge recovery.
fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl ServiceState {
    fn job_dir(&self, job_id: &str) -> PathBuf {
        self.root.join(format!("job-{job_id}"))
    }

    fn journal_path(&self, job_id: &str) -> PathBuf {
        self.job_dir(job_id).join("job.jsonl")
    }

    fn service_journal(&self) -> PathBuf {
        self.root.join("service.jsonl")
    }
}

/// The crash-only campaign server. See the module docs for the
/// durability contract.
pub struct CampaignService {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    accept: Option<JoinHandle<()>>,
    runner: Option<JoinHandle<()>>,
}

impl CampaignService {
    /// Binds, rescans the root for interrupted jobs (resuming them
    /// before any new submission runs) and starts serving.
    ///
    /// # Errors
    ///
    /// Filesystem or bind failure.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.root)?;
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServiceState {
            root: config.root,
            draining: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            tx: Mutex::new(None),
            inflight: Mutex::new(BTreeSet::new()),
            running: Mutex::new(None),
            current_observer: Mutex::new(None),
            done: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
        });
        let backlog = rescan_backlog(&state);
        let _ = journal_append(
            &state.service_journal(),
            "start",
            0,
            &format!("rescan found {} interrupted job(s)", backlog.len()),
        );
        let (tx, rx) = mpsc::sync_channel::<String>(config.queue_capacity.max(1));
        *lock(&state.tx) = Some(tx);

        let runner_state = Arc::clone(&state);
        let runner = std::thread::spawn(move || {
            for job_id in backlog.into_iter().chain(rx.iter()) {
                run_job(&runner_state, &job_id);
            }
        });

        let accept_state = Arc::clone(&state);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_state.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = stream {
                    serve_client(&accept_state, &mut stream);
                }
            }
        });

        Ok(Self {
            addr,
            state,
            accept: Some(accept),
            runner: Some(runner),
        })
    }

    /// The bound address (the ephemeral port when `bind` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drains, waits for queued jobs to finish, stops the listener and
    /// journals the clean stop. (Crash-only: killing the process
    /// instead loses nothing — restart resumes from the journals.)
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        drain_state(&self.state);
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
        self.state.stop.store(true, Ordering::SeqCst);
        // Self-connect so the accept loop observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = journal_append(&self.state.service_journal(), "stop", 0, "clean shutdown");
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        if self.runner.is_some() || self.accept.is_some() {
            self.stop_threads();
        }
    }
}

fn drain_state(state: &ServiceState) {
    if !state.draining.swap(true, Ordering::SeqCst) {
        let _ = journal_append(&state.service_journal(), "drain", 0, "drain requested");
        if let Some(observer) = lock(&state.current_observer).as_ref() {
            observer
                .recorder()
                .record(0, NO_POINT, FlightEventKind::Drain, "service draining");
        }
    }
    // Dropping the only sender ends the runner's queue iteration once
    // the already-queued jobs are consumed — the graceful half of
    // crash-only.
    lock(&state.tx).take();
}

/// Scans the root for job directories whose journal is not terminal and
/// marks them queued-for-resume. Deterministic order (sorted ids).
fn rescan_backlog(state: &Arc<ServiceState>) -> Vec<String> {
    let mut backlog = Vec::new();
    let entries = match std::fs::read_dir(&state.root) {
        Ok(entries) => entries,
        Err(_) => return backlog,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(job_id) = name.to_str().and_then(|n| n.strip_prefix("job-")) else {
            continue;
        };
        if !entry.path().join("submit.jsonl").is_file() {
            continue;
        }
        let (last, _) = journal_summary(&state.journal_path(job_id));
        if last == "done" || last == "failed" {
            continue;
        }
        backlog.push(job_id.to_string());
    }
    backlog.sort();
    let mut inflight = lock(&state.inflight);
    for job_id in &backlog {
        inflight.insert(job_id.clone());
        let _ = journal_append(
            &state.journal_path(job_id),
            "queued",
            0,
            "requeued by restart rescan",
        );
    }
    backlog
}

// ---------------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------------

fn respond(stream: &mut TcpStream, status: &str, body: &str) {
    // Client disconnects mid-response are the client's problem — the
    // durable state is already on disk.
    let _ = write_http_response(stream, status, body);
}

fn serve_client(state: &Arc<ServiceState>, stream: &mut TcpStream) {
    let Some(request) = read_http_request(stream, std::time::Duration::from_secs(2)) else {
        respond(stream, "400 Bad Request", "{\"error\":\"bad request\"}");
        return;
    };
    route(state, stream, &request);
}

fn route(state: &Arc<ServiceState>, stream: &mut TcpStream, request: &HttpRequest) {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => submit_job(state, stream, &request.body),
        ("POST", "/drain") => {
            drain_state(state);
            respond(stream, "200 OK", "{\"draining\":true}");
        }
        ("GET", "/progress") => {
            let running = lock(&state.running).clone();
            let queued = {
                let inflight = lock(&state.inflight);
                inflight
                    .len()
                    .saturating_sub(usize::from(running.is_some()))
            };
            let running_json = match running {
                Some(id) => format!("\"{id}\""),
                None => "null".to_string(),
            };
            let body = format!(
                "{{\"draining\":{},\"running\":{},\"queued\":{},\"done\":{},\"failed\":{}}}",
                state.draining.load(Ordering::SeqCst),
                running_json,
                queued,
                state.done.load(Ordering::SeqCst),
                state.failed.load(Ordering::SeqCst),
            );
            respond(stream, "200 OK", &body);
        }
        ("GET", "/jobs") => {
            let mut rows = Vec::new();
            if let Ok(entries) = std::fs::read_dir(&state.root) {
                let mut ids: Vec<String> = entries
                    .flatten()
                    .filter_map(|e| {
                        e.file_name()
                            .to_str()
                            .and_then(|n| n.strip_prefix("job-"))
                            .map(str::to_string)
                    })
                    .collect();
                ids.sort();
                for id in ids {
                    let (job_state, attempts) = journal_summary(&state.journal_path(&id));
                    rows.push(format!(
                        "{{\"job\":\"{id}\",\"state\":\"{job_state}\",\"attempts\":{attempts}}}"
                    ));
                }
            }
            respond(stream, "200 OK", &format!("[{}]", rows.join(",")));
        }
        ("GET", _) if path.starts_with("/jobs/") => job_detail(state, stream, path),
        _ => respond(stream, "404 Not Found", "{\"error\":\"no such endpoint\"}"),
    }
}

/// The job-id check: 16 lowercase hex characters. An id names a
/// directory under the root, so this is also the path-traversal guard.
fn valid_job_id(id: &str) -> bool {
    id.len() == 16
        && id
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
}

fn job_detail(state: &Arc<ServiceState>, stream: &mut TcpStream, path: &str) {
    let rest = path.trim_start_matches("/jobs/");
    let (job_id, view) = match rest.split_once('/') {
        Some((id, view)) => (id, Some(view)),
        None => (rest, None),
    };
    // The id check comes first: it is what keeps the path in the root.
    if !valid_job_id(job_id) || !state.job_dir(job_id).join("submit.jsonl").is_file() {
        respond(stream, "404 Not Found", "{\"error\":\"no such job\"}");
        return;
    }
    let dir = state.job_dir(job_id);
    match view {
        None => {
            let (job_state, attempts) = journal_summary(&state.journal_path(job_id));
            let results_lines = std::fs::read_to_string(dir.join("campaign.jsonl"))
                .map(|text| {
                    text.lines()
                        .filter(|l| l.contains("\"campaign.point\""))
                        .count()
                })
                .unwrap_or(0);
            let body = format!(
                "{{\"job\":\"{job_id}\",\"state\":\"{job_state}\",\"attempts\":{attempts},\"results_lines\":{results_lines}}}"
            );
            respond(stream, "200 OK", &body);
        }
        Some("results") => match std::fs::read_to_string(dir.join("campaign.jsonl")) {
            Ok(text) => respond(stream, "200 OK", &text),
            Err(_) => respond(stream, "404 Not Found", "{\"error\":\"no results yet\"}"),
        },
        Some(view @ ("progress" | "workers" | "incidents")) => {
            live_view(state, stream, job_id, view);
        }
        Some(_) => respond(stream, "404 Not Found", "{\"error\":\"no such endpoint\"}"),
    }
}

/// Serves one view of the running job's live observer: `progress` (the
/// snapshot with the stall status spliced in), `workers` or `incidents`.
/// Only relaxed atomic loads, so a poller never blocks or steers the
/// sweep. A job that is not running answers 404 with its journal state.
fn live_view(state: &ServiceState, stream: &mut TcpStream, job_id: &str, view: &str) {
    // Holding `running` while reading the observer pins the pair: the
    // runner clears a job's observer before it moves on to the next job.
    let running = lock(&state.running);
    let observer = (running.as_deref() == Some(job_id))
        .then(|| lock(&state.current_observer).clone())
        .flatten();
    drop(running);
    let Some(observer) = observer else {
        let (job_state, _) = journal_summary(&state.journal_path(job_id));
        respond(
            stream,
            "404 Not Found",
            &format!("{{\"error\":\"job not running\",\"state\":\"{job_state}\"}}"),
        );
        return;
    };
    let snap = observer.snapshot();
    let body = match view {
        "progress" => {
            // One poll answers "how far along" and "is it healthy".
            let mut body = snap.to_json();
            body.pop(); // trailing '}'
            body.push_str(&format!(
                ",\"stall_timeout_secs\":{:.6},\"heartbeat_age_secs\":{:.6}}}",
                observer.stall_timeout_secs(),
                observer.board().last_heartbeat_age_secs(),
            ));
            body
        }
        "workers" => snap.workers_json(),
        _ => snap.incidents_json(),
    };
    respond(stream, "200 OK", &body);
}

fn submit_job(state: &Arc<ServiceState>, stream: &mut TcpStream, body: &[u8]) {
    if state.draining.load(Ordering::SeqCst) {
        respond(
            stream,
            "503 Service Unavailable",
            "{\"error\":\"draining\"}",
        );
        return;
    }
    let Ok(text) = std::str::from_utf8(body) else {
        respond(stream, "400 Bad Request", "{\"error\":\"body not UTF-8\"}");
        return;
    };
    let spec = match JobSpec::parse(text) {
        Ok(spec) => spec,
        Err(reason) => {
            // The reason may quote what it refuses (a backend tag).
            let mut body = String::from("{\"error\":");
            write_json_str(&mut body, &reason);
            body.push('}');
            respond(stream, "400 Bad Request", &body);
            return;
        }
    };
    let job_id = spec.digest.clone();
    // The inflight lock brackets persist + enqueue so a duplicate
    // submission cannot race the runner reading a half-renamed dir.
    let mut inflight = lock(&state.inflight);
    let journal = state.journal_path(&job_id);
    let (job_state, _) = journal_summary(&journal);
    if job_state == "done" && state.job_dir(&job_id).join("submit.jsonl").is_file() {
        respond(
            stream,
            "200 OK",
            &format!("{{\"job\":\"{job_id}\",\"state\":\"done\"}}"),
        );
        return;
    }
    if inflight.contains(&job_id) {
        respond(
            stream,
            "200 OK",
            &format!("{{\"job\":\"{job_id}\",\"state\":\"{job_state}\"}}"),
        );
        return;
    }
    if let Err(error) = persist_submission(&state.job_dir(&job_id), text) {
        respond(
            stream,
            "500 Internal Server Error",
            &format!("{{\"error\":\"persist failed: {error}\"}}"),
        );
        return;
    }
    let _ = journal_append(&journal, "queued", 0, "submitted");
    let sent = lock(&state.tx)
        .as_ref()
        .map(|tx| tx.try_send(job_id.clone()));
    match sent {
        Some(Ok(())) => {
            inflight.insert(job_id.clone());
            respond(
                stream,
                "200 OK",
                &format!("{{\"job\":\"{job_id}\",\"state\":\"queued\"}}"),
            );
        }
        Some(Err(mpsc::TrySendError::Full(_))) => {
            // Rejected submissions must not resurrect on restart:
            // remove the durable trace before answering 429.
            let _ = std::fs::remove_dir_all(state.job_dir(&job_id));
            respond(
                stream,
                "429 Too Many Requests",
                "{\"error\":\"job queue full\"}",
            );
        }
        Some(Err(mpsc::TrySendError::Disconnected(_))) | None => {
            let _ = std::fs::remove_dir_all(state.job_dir(&job_id));
            respond(
                stream,
                "503 Service Unavailable",
                "{\"error\":\"draining\"}",
            );
        }
    }
}

/// Persists a submission durably: the job directory is created and the
/// root fsynced, then the file is written with [`durable::replace`].
fn persist_submission(dir: &Path, body: &str) -> std::io::Result<()> {
    durable::create_dir(dir)?;
    let mut out = Record::Run {
        bin: SERVE_BIN.to_string(),
        schema: SCHEMA_VERSION,
    }
    .to_json();
    out.push('\n');
    out.push_str(body);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    durable::replace(&dir.join("submit.jsonl"), out.as_bytes())
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

enum AttemptError {
    /// The job can never succeed (bad header, foreign results file).
    Fatal(String),
    /// This attempt died but a retry can finish the job.
    Interrupted(String),
}

fn run_job(state: &Arc<ServiceState>, job_id: &str) {
    *lock(&state.running) = Some(job_id.to_string());
    let journal = state.journal_path(job_id);
    let dir = state.job_dir(job_id);
    let spec = std::fs::read_to_string(dir.join("submit.jsonl"))
        .map_err(|e| format!("submission unreadable: {e}"))
        .and_then(|text| JobSpec::parse(&text));
    let mut started: u32 = 0;
    match spec {
        Err(reason) => finish_job(state, job_id, "failed", Some((0, &reason))),
        Ok(spec) => loop {
            // The journal counts the attempts of every process; `started`
            // counts this process's, so a journal that cannot be appended
            // still runs out of budget.
            let (last, journaled) = journal_summary(&journal);
            let attempts = journaled.max(started);
            if last == "done" {
                return finish_job(state, job_id, "done", None);
            }
            if attempts >= MAX_ATTEMPTS {
                let reason = format!("attempt budget {MAX_ATTEMPTS} exhausted");
                return finish_job(state, job_id, "failed", Some((attempts, &reason)));
            }
            // The attempt's crash window: its `running` append through the
            // results file's final fsync.
            let crash = spec
                .faults
                .crash
                .get(attempts as usize)
                .map(|&fault| durable::arm(&dir, fault));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = journal_append(
                    &journal,
                    "running",
                    attempts,
                    &format!("attempt {attempts} started"),
                );
                dispatch_attempt(state, &dir, &spec, attempts, crash.as_ref())
            }));
            drop(crash);
            started = attempts + 1;
            *lock(&state.current_observer) = None;
            match outcome {
                Ok(Ok(summary)) => {
                    return finish_job(state, job_id, "done", Some((attempts, &summary)));
                }
                Ok(Err(AttemptError::Fatal(reason))) => {
                    return finish_job(state, job_id, "failed", Some((attempts, &reason)));
                }
                Ok(Err(AttemptError::Interrupted(reason))) => {
                    let _ = journal_append(&journal, "interrupted", attempts, &reason);
                }
                Err(payload) if payload.is::<InjectedKill>() => {
                    let _ = journal_append(&journal, "interrupted", attempts, "injected kill");
                }
                Err(payload) => {
                    let reason = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("worker panic escaped the sweep");
                    return finish_job(state, job_id, "failed", Some((attempts, reason)));
                }
            }
        },
    }
}

/// Ends `job_id`'s run in `terminal` state (`done` or `failed`),
/// appending `line` — `(attempt, detail)` — to its journal when given.
///
/// The in-memory state (`inflight`, `running`, the done/failed count)
/// changes first, so a client that has read the terminal line from
/// `/jobs/<id>` finds `/progress` agreeing with it. `inflight` stays
/// locked until the line is durable, so a resubmission sees either the
/// unfinished job or the finished one.
fn finish_job(state: &ServiceState, job_id: &str, terminal: &str, line: Option<(u32, &str)>) {
    let mut inflight = lock(&state.inflight);
    inflight.remove(job_id);
    *lock(&state.running) = None;
    let count = if terminal == "done" {
        &state.done
    } else {
        &state.failed
    };
    count.fetch_add(1, Ordering::SeqCst);
    if let Some((attempt, detail)) = line {
        let _ = journal_append(&state.journal_path(job_id), terminal, attempt, detail);
    }
}

fn dispatch_attempt(
    state: &ServiceState,
    dir: &Path,
    spec: &JobSpec,
    attempt: u32,
    crash: Option<&Armed>,
) -> Result<String, AttemptError> {
    match servable(&spec.backend) {
        Some((_, _, execute)) => execute(state, dir, spec, attempt, crash),
        None => Err(AttemptError::Fatal(format!(
            "unknown backend \"{}\"",
            spec.backend
        ))),
    }
}

/// One attempt at a job: the submitted plan with the job directory's
/// results file, sidecar and observer attached, run through the one plan
/// entry with the point faults wrapped around the capture. `crash` is
/// the attempt's armed crash fault, if any.
fn execute_attempt<E: PllEngine>(
    state: &ServiceState,
    dir: &Path,
    spec: &JobSpec,
    attempt: u32,
    crash: Option<&Armed>,
) -> Result<String, AttemptError> {
    let started = Instant::now();
    let plan =
        CampaignPlan::<E>::from_header(&spec.header, spec.config.clone(), &spec.grid, &spec.salt)
            .map_err(|e| AttemptError::Fatal(format!("header rejected: {e}")))?;
    let results = dir.join("campaign.jsonl");
    let observer = Arc::new(CampaignObserver::new(
        spec.grid.len(),
        spec.threads,
        ObservatoryConfig::for_results_file(&results),
    ));
    let plan = plan
        .scheduler(Scheduler::WorkStealing {
            threads: spec.threads,
        })
        .resume_from(&results)
        .observed(Arc::clone(&observer))
        .telemetry(TelemetryConfig::enabled());
    let run = PlanRun::open(&plan, &spec.grid, VoltsCodec, &spec.salt).map_err(|e| match e {
        CampaignError::Io(_) => AttemptError::Interrupted(format!("results open: {e}")),
        other => AttemptError::Fatal(format!("results rejected: {other}")),
    })?;
    if attempt > 0 {
        observer.recorder().record(
            0,
            NO_POINT,
            FlightEventKind::Restart,
            &format!("attempt {attempt} resumes after interruption"),
        );
    }
    *lock(&state.current_observer) = Some(Arc::clone(&observer));

    let f_ref = spec.config.f_ref_hz;
    let outcome = run
        .run(spec.faults.wrap_capture(
            crash,
            |pll: &mut Supervised<E>, _, fm, _| -> Result<f64, SweepPointError> {
                Scenario::stimulate(
                    pll,
                    FmStimulus::pure_sine(f_ref, 0.02 * f_ref, fm),
                    2.0 / fm,
                );
                Ok(pll.control_voltage())
            },
        ))
        .map_err(|e| AttemptError::Interrupted(format!("results finish: {e}")))?;
    let _ = observer.finish();

    let counter = |wanted: &str| {
        outcome
            .telemetry
            .iter()
            .find_map(|record| match record {
                Record::Counter { name, value } if name == wanted => Some(*value),
                _ => None,
            })
            .unwrap_or(0)
    };
    Ok(format!(
        "ok={} quarantined={} skipped={} sidecar_hits={} sidecar_rejects={} wall_ms={}",
        outcome.ok_count(),
        outcome.quarantined_count(),
        counter("campaign.points_skipped"),
        counter("campaign.sidecar_hits"),
        counter("campaign.sidecar_rejects"),
        started.elapsed().as_millis(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{http_get, http_post, HttpError};
    use pllbist_testkit::{prop_assert, prop_check};

    fn exotic_config() -> PllConfig {
        PllConfig {
            f_ref_hz: 2_000.0,
            divider_n: 8,
            drive: DriveConfig::Charge {
                i_pump: 1.2e-3,
                mismatch: 0.03,
            },
            filter: FilterConfig::SeriesRc {
                r: 3.3e3,
                c1: 100e-9,
                c2: Some(10e-9),
                r_leak: None,
            },
            vco_k0: 1_234.5,
            vco_gain_scale: 0.97,
            vco_curvature: (0.01, -0.002),
            vco_range_hz: Some((5_000.0, 25_000.0)),
            pfd_dead_zone: 1e-9,
        }
    }

    #[test]
    fn config_wire_round_trips_every_variant() {
        let mut configs = vec![
            PllConfig::paper_table3(),
            PllConfig::integer_n_charge_pump(),
            exotic_config(),
        ];
        let mut pi = PllConfig::paper_table3();
        pi.filter = FilterConfig::ActivePi {
            tau1: 1e-3,
            tau2: 2e-4,
        };
        configs.push(pi);
        let mut leaky = PllConfig::paper_table3();
        leaky.filter = FilterConfig::PassiveLag {
            r1: 1.0e6,
            r2: 1.0e4,
            c: 1e-7,
            r_leak: Some(1.0e9),
        };
        configs.push(leaky);
        for config in configs {
            let wire = config_to_wire(&config);
            let back = config_from_wire(&wire).expect("round trip");
            assert_eq!(back, config, "wire: {wire}");
        }
    }

    #[test]
    fn config_wire_rejects_truncations() {
        let wire = config_to_wire(&PllConfig::paper_table3());
        for cut in 0..wire.len() {
            // Every strict prefix must be rejected, not mis-parsed.
            assert!(
                config_from_wire(&wire[..cut]).is_none(),
                "prefix of {cut} bytes accepted"
            );
        }
        assert!(config_from_wire(&format!("{wire};extra")).is_none());
        assert!(config_from_wire(&wire.replace("v1", "v2")).is_none());
    }

    #[test]
    fn fault_plan_wire_round_trips_and_is_seed_deterministic() {
        let plan = FaultPlan::from_seed(42, 24, 4);
        assert_eq!(plan, FaultPlan::from_seed(42, 24, 4));
        assert_ne!(plan, FaultPlan::from_seed(43, 24, 4));
        let back = FaultPlan::from_wire(&plan.to_wire()).expect("round trip");
        assert_eq!(back, plan);
        assert_eq!(
            FaultPlan::from_wire(&FaultPlan::none().to_wire()),
            Some(FaultPlan::none())
        );
        let reference = plan.reference();
        assert!(reference.crash.is_empty());
        assert_eq!(reference.flaky_retry, plan.flaky_retry);
        assert!(FaultPlan::from_wire("fp1|retry:-|panic:-").is_none());
        assert!(FaultPlan::from_wire("fp2|retry:-|panic:-|crash:-").is_none());
        assert!(FaultPlan::from_wire("fp1|retry:x|panic:-|crash:-").is_none());
        assert!(FaultPlan::from_wire("fp1|retry:-|panic:-|crash:z9").is_none());
    }

    #[test]
    fn torn_journal_append_heals_on_the_next_write() {
        let dir = std::env::temp_dir().join(format!("pllbist_journal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("job.jsonl");
        journal_append(&path, "queued", 0, "submitted").expect("append");
        journal_append(&path, "running", 0, "attempt 0 started").expect("append");
        // A crash 12 bytes into the next append tears it.
        let armed = durable::arm(&dir, CrashFault { step: 0, bytes: 12 });
        let killed = std::panic::catch_unwind(|| {
            journal_append(&path, "interrupted", 0, "killed mid-journal-write")
        });
        assert!(killed.is_err_and(|payload| payload.is::<InjectedKill>()));
        drop(armed);
        let (state, attempts) = journal_summary(&path);
        // The torn record is invisible; the last durable state stands.
        assert_eq!(state, "running");
        assert_eq!(attempts, 1);
        journal_append(&path, "running", 1, "attempt 1 started").expect("append");
        let (state, attempts) = journal_summary(&path);
        assert_eq!(state, "running");
        assert_eq!(attempts, 2);
        let text = std::fs::read_to_string(&path).expect("read");
        // The healed file: torn fragment isolated on its own line.
        assert!(text.ends_with('\n'));
        assert_eq!(text.lines().filter(|l| l.contains("running")).count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submission_round_trips_through_job_spec() {
        let config = PllConfig::paper_table3();
        let plan = CampaignPlan::new(config.clone())
            .engine::<ClosedFormPll>()
            .checkpoint(true);
        let grid = [3.0, 9.0, 27.0];
        let faults = FaultPlan::from_seed(7, grid.len(), 2);
        let body = submission_body(&plan, &grid, "svc-test", &faults);
        let spec = JobSpec::parse(&body).expect("parse");
        assert_eq!(spec.backend, "closed_form");
        assert_eq!(spec.digest, plan.digest(&grid, "svc-test"));
        assert_eq!(spec.config, config);
        assert_eq!(spec.grid, grid);
        assert_eq!(spec.salt, "svc-test");
        assert_eq!(spec.faults, faults);
        // The header survives verbatim, so the digest check replays.
        CampaignPlan::<ClosedFormPll>::from_header(
            &spec.header,
            spec.config,
            &spec.grid,
            "svc-test",
        )
        .expect("header round trip");
    }

    #[test]
    fn job_spec_rejects_hostile_submissions() {
        let plan = CampaignPlan::new(PllConfig::paper_table3()).engine::<ClosedFormPll>();
        let grid = [3.0, 9.0];
        let body = submission_body(&plan, &grid, "s", &FaultPlan::none());
        assert!(JobSpec::parse("").is_err());
        assert!(JobSpec::parse("{\"type\":\"campaign\"}").is_err());
        // Path traversal via the digest-as-directory is rejected.
        let traversal = body.replace(&plan.digest(&grid, "s"), "../../../../etc/x");
        assert!(JobSpec::parse(&traversal).is_err());
        let upper = body.replacen(&plan.digest(&grid, "s"), "ABCDEFABCDEFABCD", 1);
        assert!(JobSpec::parse(&upper).is_err());
        // A well-formed digest that is not the plan's: it would name (and
        // could answer with) another job's directory.
        let tampered = body.replacen(&plan.digest(&grid, "s"), "0123456789abcdef", 1);
        let reason = JobSpec::parse(&tampered).expect_err("tampered digest");
        assert!(reason.contains("digest"), "{reason}");
        // Duplicate grid entries, negative frequencies, zero threads.
        let dup = submission_body(&plan, &[3.0, 3.0], "s", &FaultPlan::none());
        assert!(JobSpec::parse(&dup).is_err());
        let neg = submission_body(&plan, &[3.0, -9.0], "s", &FaultPlan::none());
        assert!(JobSpec::parse(&neg).is_err());
        let threads = format!("\"threads\":{}", resolve_threads(0).clamp(1, 256));
        assert!(
            body.contains(&threads),
            "auto threads resolve on the client"
        );
        let zero_threads = body.replace(&threads, "\"threads\":0");
        assert!(JobSpec::parse(&zero_threads).is_err());
        let bad_backend = body.replace("closed_form", "mixed_signal");
        assert!(JobSpec::parse(&bad_backend).is_err());
        // One tag names the behavioural loop: the event engine's old tag
        // is an unknown backend like any other, not a second digest for
        // the same engine.
        let cp_pll = submission_body(
            &CampaignPlan::new(PllConfig::paper_table3()),
            &grid,
            "s",
            &FaultPlan::none(),
        );
        JobSpec::parse(&cp_pll).expect("cp_pll is servable");
        let retired = cp_pll.replace("\"backend\":\"cp_pll\"", "\"backend\":\"event_driven\"");
        assert_ne!(retired, cp_pll);
        assert_eq!(
            JobSpec::parse(&retired).expect_err("retired tag"),
            "backend \"event_driven\" is not servable"
        );
        // The fault plan is bounded, so the wire cannot set the attempt
        // budget or name a fault that never fires.
        let with = |faults: FaultPlan| JobSpec::parse(&submission_body(&plan, &grid, "s", &faults));
        let kill = CrashFault { step: 0, bytes: 0 };
        let max = (MAX_ATTEMPTS - 2) as usize;
        let last_step = CrashFault {
            step: grid.len() + FIXED_STEPS - 1,
            bytes: 1 << 20,
        };
        for admitted in [
            FaultPlan {
                crash: vec![kill; max],
                ..FaultPlan::none()
            },
            FaultPlan {
                crash: vec![last_step],
                flaky_retry: vec![1],
                flaky_quarantine: vec![0],
            },
        ] {
            with(admitted).expect("bounded plan admitted");
        }
        for hostile in [
            FaultPlan {
                crash: vec![kill; max + 1],
                ..FaultPlan::none()
            },
            // About 40 KB on the wire: ten thousand attempts of one job.
            FaultPlan {
                crash: vec![kill; 10_000],
                ..FaultPlan::none()
            },
            FaultPlan {
                crash: vec![CrashFault {
                    step: last_step.step + 1,
                    bytes: 0,
                }],
                ..FaultPlan::none()
            },
            FaultPlan {
                flaky_retry: vec![grid.len()],
                ..FaultPlan::none()
            },
            FaultPlan {
                flaky_quarantine: vec![usize::MAX],
                ..FaultPlan::none()
            },
            FaultPlan {
                flaky_retry: vec![1, 1],
                ..FaultPlan::none()
            },
            FaultPlan {
                flaky_retry: vec![0],
                flaky_quarantine: vec![0],
                ..FaultPlan::none()
            },
        ] {
            let reason = with(hostile.clone()).expect_err(&hostile.to_wire());
            assert!(
                reason.contains("crash") || reason.contains("point fault"),
                "{reason}"
            );
        }
    }

    #[test]
    fn seeded_fault_plans_are_admitted_on_service_sized_grids() {
        let plan = CampaignPlan::new(PllConfig::paper_table3()).engine::<ClosedFormPll>();
        let grids: Vec<Vec<f64>> = [64, 256]
            .iter()
            .map(|&n| (1..=n).map(f64::from).collect())
            .collect();
        prop_check!(cases: 64, |g| {
            let seed = g.u64_range(0, u64::MAX);
            let kills = g.usize_range(0, MAX_ATTEMPTS as usize - 1);
            for grid in &grids {
                let faults = FaultPlan::from_seed(seed, grid.len(), kills);
                let body = submission_body(&plan, grid, "prop", &faults);
                let parsed = JobSpec::parse(&body);
                prop_assert!(
                    parsed.is_ok(),
                    "seed {seed}, {} points, {kills} kills: {parsed:?}",
                    grid.len()
                );
            }
            Ok(())
        });
    }

    /// A service on a fresh root with one small closed-form job run to
    /// `done`: `(service, job id, root)`.
    fn service_with_done_job(name: &str) -> (CampaignService, String, PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "pllbist_service_unit_{}_{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
        let plan = CampaignPlan::new(PllConfig::paper_table3())
            .engine::<ClosedFormPll>()
            .lock_settle(0.05);
        let grid = [5.0, 20.0];
        let body = submission_body(&plan, &grid, "unit", &FaultPlan::none());
        let job = plan.digest(&grid, "unit");
        http_post(service.addr(), "/jobs", &body).expect("submit");
        let started = Instant::now();
        while journal_summary(&service.state.journal_path(&job)).0 != "done" {
            assert!(started.elapsed().as_secs() < 60, "job not done in 60 s");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        (service, job, root)
    }

    /// The 404 body of `GET path`.
    fn not_found(addr: SocketAddr, path: &str) -> String {
        match http_get(addr, path) {
            Err(HttpError::Status { code: 404, body }) => body,
            other => panic!("{path}: expected 404, got {other:?}"),
        }
    }

    #[test]
    fn retired_backend_tag_is_a_400_with_its_reason() {
        // The event engine's tag is an unknown backend; the 400 body is
        // JSON that carries the parse reason, quotes and all.
        let root = std::env::temp_dir().join(format!(
            "pllbist_service_unit_{}_retired",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
        let body = submission_body(
            &CampaignPlan::new(PllConfig::paper_table3()),
            &[5.0, 20.0],
            "unit",
            &FaultPlan::none(),
        )
        .replace("\"backend\":\"cp_pll\"", "\"backend\":\"event_driven\"");
        match http_post(service.addr(), "/jobs", &body) {
            Err(HttpError::Status { code: 400, body }) => assert_eq!(
                json_str_field(&body, "error").as_deref(),
                Some("backend \"event_driven\" is not servable"),
                "{body}"
            ),
            other => panic!("expected 400, got {other:?}"),
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unknown_views_and_hostile_ids_get_404() {
        let (service, job, root) = service_with_done_job("hostile");
        let addr = service.addr();
        for path in [
            format!("/jobs/{job}/nope"),
            format!("/jobs/{job}/"),
            format!("/jobs/{job}/progress/extra"),
        ] {
            assert!(
                not_found(addr, &path).contains("no such endpoint"),
                "{path}"
            );
        }
        for path in [
            "/jobs/../progress",
            "/jobs/../../etc/passwd",
            "/jobs/zzzzzzzzzzzzzzzz/progress",
            "/jobs/ABCDEFABCDEFABCD/workers",
            "/jobs/0000000000000000/incidents",
        ] {
            assert!(not_found(addr, path).contains("no such job"), "{path}");
        }
        // The service keeps serving.
        assert!(http_get(addr, "/progress").is_ok());
        assert!(http_get(addr, &format!("/jobs/{job}")).is_ok());
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn non_get_view_requests_get_404() {
        let (service, job, root) = service_with_done_job("post_view");
        let addr = service.addr();
        for view in ["progress", "workers", "incidents"] {
            match http_post(addr, &format!("/jobs/{job}/{view}"), "{}") {
                Err(HttpError::Status { code: 404, body }) => {
                    assert!(body.contains("no such endpoint"), "{body}");
                }
                other => panic!("POST {view}: expected 404, got {other:?}"),
            }
        }
        // The service keeps serving.
        assert!(http_get(addr, "/progress").is_ok());
        assert!(not_found(addr, &format!("/jobs/{job}/progress")).contains("\"state\":\"done\""));
        drop(service);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn shutdown_is_idempotent_under_drop() {
        let root =
            std::env::temp_dir().join(format!("pllbist_service_unit_{}_drop", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = CampaignService::start(ServiceConfig::rooted(&root)).expect("start");
        let addr = service.addr();
        assert!(http_get(addr, "/progress").is_ok());
        drop(service);
        // The port is released: connecting either fails or yields no
        // HTTP response.
        assert!(http_get(addr, "/progress").is_err() || TcpStream::connect(addr).is_err());
        // The drop journaled one clean stop.
        let journal = std::fs::read_to_string(root.join("service.jsonl")).expect("journal");
        assert_eq!(journal.matches("clean shutdown").count(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
