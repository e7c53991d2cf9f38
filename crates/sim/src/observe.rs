//! Campaign observability: the read-only observer that a resumable
//! supervised sweep reports into.
//!
//! A [`CampaignObserver`] bundles the lock-free progress board
//! ([`pllbist_telemetry::ProgressBoard`]), the flight-recorder ring
//! ([`pllbist_telemetry::FlightRecorder`]) and a stall detector. The
//! runner (reached by attaching the observer to a plan with
//! [`crate::plan::CampaignPlan::observed`])
//! calls its hooks as points are claimed, finished and flushed; the
//! campaign service's per-job views (`GET /jobs/<id>/progress`,
//! `/workers`, `/incidents` on [`crate::service::CampaignService`]) and
//! the `--progress` terminal line read snapshots back out.
//!
//! **No-steering contract.** Every hook is observation only: relaxed
//! atomic increments, a mutex push on an event ring, wall-clock reads.
//! Nothing an observer does feeds back into scheduling, retry decisions
//! or physics — which is why a healthy campaign's results file stays
//! byte-identical with an observer attached, at every thread count
//! (pinned by `tests/campaign_observatory.rs`).
//!
//! **Flight dumps.** The recorder ring is dumped to the configured
//! sidecar path on stall detection ([`CampaignObserver::check_stall`]),
//! on clean [`CampaignObserver::finish`], and from `Drop` when the
//! observer dies without finishing (a panic unwinding the campaign, or
//! an early abort) — so a killed run leaves a parseable timeline of its
//! last moments.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::error::{SweepPointError, ERROR_KINDS};
use crate::supervisor::{Incident, IncidentAction, PointOutcome};
use pllbist_telemetry::progress::{CampaignProgress, ProgressBoard};
use pllbist_telemetry::recorder::{FlightEventKind, FlightRecorder, NO_POINT};

/// Flight-recorder ring capacity (events kept) of every observer.
const RECORDER_CAPACITY: usize = 512;

/// Knobs for one campaign's observer.
#[derive(Clone, Debug)]
pub struct ObservatoryConfig {
    /// Stall threshold as a multiple of the median point wall time.
    pub stall_multiple: f64,
    /// Stall threshold floor in seconds (guards the early phase, when
    /// no median exists yet and points may legitimately be slow).
    pub stall_floor_secs: f64,
    /// Sidecar path for flight-recorder dumps; `None` disables dumping
    /// (the ring is still queryable in memory).
    pub dump_path: Option<PathBuf>,
}

impl Default for ObservatoryConfig {
    fn default() -> Self {
        Self {
            stall_multiple: 16.0,
            stall_floor_secs: 10.0,
            dump_path: None,
        }
    }
}

impl ObservatoryConfig {
    /// Default config with the dump sidecar derived from a campaign
    /// results file path (`results.jsonl` → `results.flight.jsonl`).
    pub fn for_results_file(results: &Path) -> Self {
        Self {
            dump_path: Some(results.with_extension("flight.jsonl")),
            ..Self::default()
        }
    }
}

/// Read-only observer for one campaign run. See the module docs.
pub struct CampaignObserver {
    board: ProgressBoard,
    recorder: FlightRecorder,
    config: ObservatoryConfig,
    stall_dumped: AtomicBool,
    finished: AtomicBool,
}

impl CampaignObserver {
    /// Creates an observer for a campaign of `total` points on `workers`
    /// workers. Incident tallies are registered for every
    /// [`ERROR_KINDS`] tag.
    pub fn new(total: usize, workers: usize, config: ObservatoryConfig) -> Self {
        let observer = Self {
            board: ProgressBoard::new(total, workers, ERROR_KINDS),
            recorder: FlightRecorder::new(RECORDER_CAPACITY),
            config,
            stall_dumped: AtomicBool::new(false),
            finished: AtomicBool::new(false),
        };
        observer
            .recorder
            .record(0, NO_POINT, FlightEventKind::Note, "campaign start");
        observer
    }

    /// The underlying progress board (for direct feeding by coarse
    /// bins).
    pub fn board(&self) -> &ProgressBoard {
        &self.board
    }

    /// The underlying flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Current progress snapshot.
    pub fn snapshot(&self) -> CampaignProgress {
        self.board.snapshot()
    }

    /// A worker claimed point `index`.
    pub fn on_claim(&self, worker: usize, index: usize) {
        self.board.point_claimed(worker);
        self.recorder
            .record(worker, index as u64, FlightEventKind::Claim, "");
    }

    /// Points satisfied from a resumed log without execution.
    pub fn on_skipped(&self, n: usize) {
        self.board.points_skipped(n);
        if n > 0 {
            self.recorder.record(
                0,
                NO_POINT,
                FlightEventKind::Note,
                &format!("resume: {n} points loaded from log"),
            );
        }
    }

    /// A worker finished point `index`: tallies the outcome and its
    /// incident trail, and records the per-point timeline events.
    pub fn on_outcome<R>(
        &self,
        worker: usize,
        index: usize,
        outcome: &PointOutcome<R>,
        wall_secs: f64,
    ) {
        for incident in &outcome.incidents {
            self.on_incident(worker, index, incident);
        }
        let ok = outcome.result.is_ok();
        self.board.point_done(worker, ok, wall_secs);
        let detail = match &outcome.result {
            Ok(_) => "ok".to_string(),
            Err(error) => error.kind().to_string(),
        };
        self.recorder
            .record(worker, index as u64, FlightEventKind::Done, &detail);
    }

    /// One supervisor incident on point `index`.
    pub fn on_incident(&self, worker: usize, index: usize, incident: &Incident) {
        let retried = incident.action == IncidentAction::Retried;
        self.board.incident(incident.error.kind(), retried);
        if matches!(
            incident.error,
            SweepPointError::NumericalDivergence { .. }
                | SweepPointError::StepBudgetExhausted { .. }
        ) {
            self.recorder.record(
                worker,
                index as u64,
                FlightEventKind::WatchdogTrip,
                incident.error.kind(),
            );
        }
        let kind = if retried {
            FlightEventKind::Retry
        } else {
            FlightEventKind::Quarantine
        };
        self.recorder.record(
            worker,
            index as u64,
            kind,
            &format!("attempt {}: {}", incident.attempt, incident.error.kind()),
        );
    }

    /// A failure escaped per-point containment and was quarantined at
    /// the merge stage (the point's worker is unknown by then).
    pub fn on_escaped_quarantine(&self, index: usize, error: &SweepPointError) {
        self.board.incident(error.kind(), false);
        self.board.point_done(0, false, 0.0);
        self.recorder.record(
            0,
            index as u64,
            FlightEventKind::Quarantine,
            &format!("escaped containment: {}", error.kind()),
        );
    }

    /// The campaign log flushed point `index` to disk.
    pub fn on_flush(&self, worker: usize, index: usize) {
        self.recorder
            .record(worker, index as u64, FlightEventKind::Flush, "");
    }

    /// Records a free-form lifecycle note on the flight timeline
    /// (sidecar hits/rejects, restart and drain markers, …).
    pub fn note(&self, detail: &str) {
        self.recorder
            .record(0, NO_POINT, FlightEventKind::Note, detail);
    }

    /// The stall threshold currently in force:
    /// `max(stall_floor_secs, stall_multiple × median point time)`.
    pub fn stall_timeout_secs(&self) -> f64 {
        let median = self.board.median_point_secs().unwrap_or(0.0);
        (self.config.stall_multiple * median).max(self.config.stall_floor_secs)
    }

    /// Polls the stall detector: returns `true` (and records a `stall`
    /// event, and dumps the flight recorder once) when no worker has
    /// heartbeated for longer than [`Self::stall_timeout_secs`]. Safe to
    /// call from any watcher thread at any rate.
    pub fn check_stall(&self) -> bool {
        if self.finished.load(Ordering::Relaxed) {
            return false;
        }
        if self.board.done_count() >= self.board.total() {
            return false;
        }
        let age = self.board.last_heartbeat_age_secs();
        let timeout = self.stall_timeout_secs();
        if age <= timeout {
            return false;
        }
        self.recorder.record(
            0,
            NO_POINT,
            FlightEventKind::Stall,
            &format!("no heartbeat for {age:.3}s (timeout {timeout:.3}s)"),
        );
        if !self.stall_dumped.swap(true, Ordering::Relaxed) {
            let _ = self.dump("stall");
        }
        true
    }

    /// Marks the campaign complete and writes the final flight dump.
    pub fn finish(&self) -> std::io::Result<()> {
        self.finished.store(true, Ordering::Relaxed);
        self.recorder
            .record(0, NO_POINT, FlightEventKind::Note, "finish");
        self.dump("finish")
    }

    /// Writes the ring to the configured sidecar (no-op without a
    /// `dump_path`).
    fn dump(&self, reason: &str) -> std::io::Result<()> {
        match &self.config.dump_path {
            Some(path) => self.recorder.dump_to(path, reason),
            None => Ok(()),
        }
    }
}

impl Drop for CampaignObserver {
    fn drop(&mut self) {
        // A campaign that dies without finish() — unwinding panic or an
        // early abort — still leaves its timeline on disk.
        if !self.finished.load(Ordering::Relaxed) {
            let reason = if std::thread::panicking() {
                "panic"
            } else {
                "abort"
            };
            self.recorder
                .record(0, NO_POINT, FlightEventKind::Note, reason);
            let _ = self.dump(reason);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_telemetry::recorder::parse_dump;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pllbist_observe_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn hooks_drive_board_and_recorder() {
        let observer = CampaignObserver::new(3, 2, ObservatoryConfig::default());
        observer.on_skipped(1);
        observer.on_claim(0, 1);
        observer.on_outcome(
            0,
            1,
            &PointOutcome::<u64> {
                result: Ok(7),
                incidents: vec![Incident {
                    f_mod_hz: 4.0,
                    attempt: 0,
                    action: IncidentAction::Retried,
                    error: SweepPointError::DegenerateFit { f_mod_hz: 4.0 },
                }],
            },
            0.01,
        );
        observer.on_flush(0, 1);
        observer.on_escaped_quarantine(
            2,
            &SweepPointError::WorkerPanic {
                message: "boom".into(),
            },
        );
        let snap = observer.snapshot();
        assert_eq!(snap.done, 3);
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.skipped, 1);
        assert_eq!(snap.retries, 1);
        let kinds: Vec<FlightEventKind> = observer
            .recorder()
            .events()
            .iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&FlightEventKind::Claim));
        assert!(kinds.contains(&FlightEventKind::Retry));
        assert!(kinds.contains(&FlightEventKind::Done));
        assert!(kinds.contains(&FlightEventKind::Flush));
        assert!(kinds.contains(&FlightEventKind::Quarantine));
    }

    #[test]
    fn watchdog_errors_record_trip_events() {
        let observer = CampaignObserver::new(1, 1, ObservatoryConfig::default());
        observer.on_incident(
            0,
            0,
            &Incident {
                f_mod_hz: 2.0,
                attempt: 0,
                action: IncidentAction::Quarantined,
                error: SweepPointError::StepBudgetExhausted {
                    t: 0.5,
                    steps: 10,
                    budget: 5,
                },
            },
        );
        assert!(observer
            .recorder()
            .events()
            .iter()
            .any(|e| e.kind == FlightEventKind::WatchdogTrip));
    }

    #[test]
    fn stall_fires_once_and_dumps() {
        let path = tmp("stall.flight.jsonl");
        let _ = std::fs::remove_file(&path);
        let observer = CampaignObserver::new(
            4,
            1,
            ObservatoryConfig {
                stall_floor_secs: 0.0,
                stall_multiple: 0.0,
                dump_path: Some(path.clone()),
            },
        );
        observer.on_claim(0, 0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(observer.check_stall());
        // Second trip records an event but does not re-dump.
        assert!(observer.check_stall());
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"reason\":\"stall\""));
        let events = parse_dump(&dump);
        assert!(events.iter().any(|e| e.kind == FlightEventKind::Stall));
        // After finish, stall never fires and the dump is rewritten.
        observer.finish().unwrap();
        assert!(!observer.check_stall());
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"reason\":\"finish\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn complete_campaign_never_stalls() {
        let observer = CampaignObserver::new(
            1,
            1,
            ObservatoryConfig {
                stall_floor_secs: 0.0,
                stall_multiple: 0.0,
                ..ObservatoryConfig::default()
            },
        );
        observer.on_claim(0, 0);
        observer.on_outcome(
            0,
            0,
            &PointOutcome::<u64> {
                result: Ok(1),
                incidents: vec![],
            },
            0.001,
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!observer.check_stall(), "all points done: not a stall");
    }

    #[test]
    fn drop_without_finish_dumps_abort() {
        let path = tmp("abort.flight.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let observer = CampaignObserver::new(
                2,
                1,
                ObservatoryConfig {
                    dump_path: Some(path.clone()),
                    ..ObservatoryConfig::default()
                },
            );
            observer.on_claim(0, 0);
        }
        let dump = std::fs::read_to_string(&path).unwrap();
        assert!(dump.contains("\"reason\":\"abort\""));
        assert!(!parse_dump(&dump).is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
