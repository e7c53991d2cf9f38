//! Lock-free campaign progress accounting.
//!
//! A [`ProgressBoard`] is shared (by reference or `Arc`) between the
//! work-stealing workers of a campaign and any number of observers (the
//! campaign service's per-job views, the `--progress` terminal line,
//! stall watchdogs).
//! Every mutation is a relaxed atomic increment, so the board is safe to
//! update from inside point closures without serialising workers, and a
//! [`CampaignProgress`] snapshot can be taken at any moment without
//! stopping the run.
//!
//! The board is pure observation: it never feeds back into scheduling or
//! physics, which is what keeps healthy runs bitwise identical whether
//! or not a board is attached (the no-steering contract, see
//! `DESIGN.md`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Geometric wall-time buckets for completed points: `WALL_BUCKETS`
/// decades-ish spanning [`WALL_LO_SECS`, `WALL_HI_SECS`). Used only for
/// the median estimate that drives ETA and stall thresholds, so coarse
/// resolution (~19% per bucket) is plenty.
const WALL_BUCKETS: usize = 128;
const WALL_LO_SECS: f64 = 1e-6;
const WALL_HI_SECS: f64 = 1e4;

struct WorkerCell {
    claimed: AtomicU64,
    done: AtomicU64,
    busy_ns: AtomicU64,
    /// Nanoseconds since board epoch at the last heartbeat; `u64::MAX`
    /// until the worker first checks in.
    heartbeat_ns: AtomicU64,
}

impl WorkerCell {
    fn new() -> Self {
        Self {
            claimed: AtomicU64::new(0),
            done: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            heartbeat_ns: AtomicU64::new(u64::MAX),
        }
    }
}

/// Shared, lock-free progress accounting for one campaign run.
pub struct ProgressBoard {
    epoch: Instant,
    total: u64,
    done: AtomicU64,
    ok: AtomicU64,
    quarantined: AtomicU64,
    skipped: AtomicU64,
    retries: AtomicU64,
    /// Incident tallies keyed by `SweepPointError::kind()` tags,
    /// registered up front so updates stay allocation-free.
    incident_kinds: Vec<(&'static str, AtomicU64)>,
    incidents_other: AtomicU64,
    workers: Vec<WorkerCell>,
    wall_hist: Vec<AtomicU64>,
}

impl ProgressBoard {
    /// Creates a board for `total` points executed by `workers` workers.
    /// `incident_kinds` registers the error-kind tags to tally (unknown
    /// kinds at runtime land in an `other` bucket).
    pub fn new(total: usize, workers: usize, incident_kinds: &[&'static str]) -> Self {
        Self {
            epoch: Instant::now(),
            total: total as u64,
            done: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            incident_kinds: incident_kinds
                .iter()
                .map(|k| (*k, AtomicU64::new(0)))
                .collect(),
            incidents_other: AtomicU64::new(0),
            workers: (0..workers.max(1)).map(|_| WorkerCell::new()).collect(),
            wall_hist: (0..WALL_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Nanoseconds of monotonic time since the board was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Points accounted for so far (fresh completions plus skipped
    /// already-complete points). Monotonically non-decreasing.
    pub fn done_count(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Marks `worker` alive without changing any counters.
    pub fn heartbeat(&self, worker: usize) {
        if let Some(cell) = self.workers.get(worker) {
            cell.heartbeat_ns.store(self.now_ns(), Ordering::Relaxed);
        }
    }

    /// A worker claimed a point off the shared queue.
    pub fn point_claimed(&self, worker: usize) {
        if let Some(cell) = self.workers.get(worker) {
            cell.claimed.fetch_add(1, Ordering::Relaxed);
        }
        self.heartbeat(worker);
    }

    /// A worker finished a point: `ok` is false for quarantined points,
    /// `wall_secs` is the point's wall time including retries.
    pub fn point_done(&self, worker: usize, ok: bool, wall_secs: f64) {
        self.done.fetch_add(1, Ordering::Relaxed);
        if ok {
            self.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(cell) = self.workers.get(worker) {
            cell.done.fetch_add(1, Ordering::Relaxed);
            cell.busy_ns
                .fetch_add((wall_secs.max(0.0) * 1e9) as u64, Ordering::Relaxed);
        }
        if let Some(bucket) = self.wall_hist.get(wall_bucket(wall_secs)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.heartbeat(worker);
    }

    /// Coarse bulk accounting for bins that only know per-batch totals.
    pub fn points_done_bulk(&self, worker: usize, ok: u64, quarantined: u64) {
        self.done.fetch_add(ok + quarantined, Ordering::Relaxed);
        self.ok.fetch_add(ok, Ordering::Relaxed);
        self.quarantined.fetch_add(quarantined, Ordering::Relaxed);
        if let Some(cell) = self.workers.get(worker) {
            cell.done.fetch_add(ok + quarantined, Ordering::Relaxed);
        }
        self.heartbeat(worker);
    }

    /// Points satisfied from a resumed campaign log rather than executed.
    pub fn points_skipped(&self, n: usize) {
        self.done.fetch_add(n as u64, Ordering::Relaxed);
        self.skipped.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Tallies a supervisor incident by error-kind tag. `retried` marks
    /// incidents that led to a retry rather than a quarantine.
    pub fn incident(&self, kind: &str, retried: bool) {
        if retried {
            self.retries.fetch_add(1, Ordering::Relaxed);
        }
        match self.incident_kinds.iter().find(|(k, _)| *k == kind) {
            Some((_, count)) => count.fetch_add(1, Ordering::Relaxed),
            None => self.incidents_other.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Median wall time of completed points, from the geometric
    /// histogram; `None` until at least one point has finished.
    pub fn median_point_secs(&self) -> Option<f64> {
        let counts: Vec<u64> = self
            .wall_hist
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return None;
        }
        let target = n.div_ceil(2);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_mid_secs(i));
            }
        }
        None
    }

    /// Seconds since the most recent heartbeat from **any** worker;
    /// falls back to time since board creation when no worker has
    /// checked in yet. This is the stall-detection signal: a healthy
    /// campaign always has some worker heartbeating.
    pub fn last_heartbeat_age_secs(&self) -> f64 {
        let now = self.now_ns();
        let newest = self
            .workers
            .iter()
            .map(|c| c.heartbeat_ns.load(Ordering::Relaxed))
            .filter(|&ns| ns != u64::MAX)
            .max();
        match newest {
            Some(ns) => (now.saturating_sub(ns)) as f64 / 1e9,
            None => now as f64 / 1e9,
        }
    }

    /// Takes a consistent-enough snapshot for display. Counters are read
    /// individually with relaxed ordering, so totals can be off by a
    /// point mid-update — fine for monitoring, never used for control.
    pub fn snapshot(&self) -> CampaignProgress {
        let now_ns = self.now_ns();
        let done = self.done.load(Ordering::Relaxed);
        let median = self.median_point_secs();
        let workers: Vec<WorkerProgress> = self
            .workers
            .iter()
            .enumerate()
            .map(|(index, cell)| {
                let hb = cell.heartbeat_ns.load(Ordering::Relaxed);
                let busy_secs = cell.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
                let elapsed = now_ns as f64 / 1e9;
                WorkerProgress {
                    index,
                    claimed: cell.claimed.load(Ordering::Relaxed),
                    done: cell.done.load(Ordering::Relaxed),
                    busy_secs,
                    utilization: if elapsed > 0.0 {
                        (busy_secs / elapsed).min(1.0)
                    } else {
                        0.0
                    },
                    heartbeat_age_secs: (hb != u64::MAX)
                        .then(|| now_ns.saturating_sub(hb) as f64 / 1e9),
                }
            })
            .collect();
        let remaining = self.total.saturating_sub(done);
        let eta_secs = median.map(|m| remaining as f64 * m / self.workers.len().max(1) as f64);
        let mut incidents: Vec<(String, u64)> = self
            .incident_kinds
            .iter()
            .map(|(k, c)| ((*k).to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let other = self.incidents_other.load(Ordering::Relaxed);
        if other > 0 {
            incidents.push(("other".to_string(), other));
        }
        CampaignProgress {
            total: self.total,
            done,
            ok: self.ok.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            elapsed_secs: now_ns as f64 / 1e9,
            median_point_secs: median,
            eta_secs,
            incidents,
            workers,
        }
    }
}

fn wall_bucket(secs: f64) -> usize {
    if !secs.is_finite() || secs <= WALL_LO_SECS {
        return 0;
    }
    let span = (WALL_HI_SECS / WALL_LO_SECS).ln();
    let frac = (secs / WALL_LO_SECS).ln() / span;
    ((frac * WALL_BUCKETS as f64) as usize).min(WALL_BUCKETS - 1)
}

fn bucket_mid_secs(bucket: usize) -> f64 {
    let span = (WALL_HI_SECS / WALL_LO_SECS).ln();
    let frac = (bucket as f64 + 0.5) / WALL_BUCKETS as f64;
    WALL_LO_SECS * (frac * span).exp()
}

/// Per-worker slice of a [`CampaignProgress`] snapshot.
#[derive(Debug, Clone)]
pub struct WorkerProgress {
    pub index: usize,
    /// Points claimed off the shared queue (includes in-flight work).
    pub claimed: u64,
    /// Points this worker finished.
    pub done: u64,
    /// Accumulated wall time spent inside point closures.
    pub busy_secs: f64,
    /// `busy_secs / elapsed`, clamped to [0, 1].
    pub utilization: f64,
    /// Seconds since this worker's last heartbeat; `None` before its
    /// first claim.
    pub heartbeat_age_secs: Option<f64>,
}

/// Point-in-time snapshot of a campaign, cheap to take and to render.
#[derive(Debug, Clone)]
pub struct CampaignProgress {
    pub total: u64,
    /// Points accounted for: fresh ok + fresh quarantined + skipped.
    pub done: u64,
    pub ok: u64,
    pub quarantined: u64,
    /// Points satisfied from a resumed log without re-execution.
    pub skipped: u64,
    /// Supervisor retries across all points.
    pub retries: u64,
    pub elapsed_secs: f64,
    /// Median wall time of completed points (`None` until one exists).
    pub median_point_secs: Option<f64>,
    /// `remaining * median / workers`; `None` until a median exists.
    pub eta_secs: Option<f64>,
    /// `(error_kind, count)` tallies, in registration order.
    pub incidents: Vec<(String, u64)>,
    pub workers: Vec<WorkerProgress>,
}

impl CampaignProgress {
    /// Fraction complete in [0, 1].
    pub fn completion(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.done as f64 / self.total as f64
        }
    }

    /// Body of the `/progress` endpoint: one flat JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str("{\"type\":\"progress\"");
        push_u64(&mut s, "total", self.total);
        push_u64(&mut s, "done", self.done);
        push_u64(&mut s, "ok", self.ok);
        push_u64(&mut s, "quarantined", self.quarantined);
        push_u64(&mut s, "skipped", self.skipped);
        push_u64(&mut s, "retries", self.retries);
        push_f64(&mut s, "completion", self.completion());
        push_f64(&mut s, "elapsed_secs", self.elapsed_secs);
        push_opt_f64(&mut s, "median_point_secs", self.median_point_secs);
        push_opt_f64(&mut s, "eta_secs", self.eta_secs);
        push_u64(&mut s, "workers", self.workers.len() as u64);
        s.push('}');
        s
    }

    /// Body of the `/workers` endpoint.
    pub fn workers_json(&self) -> String {
        let mut s = String::with_capacity(128 + 96 * self.workers.len());
        s.push_str("{\"type\":\"workers\",\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"index\":");
            s.push_str(&w.index.to_string());
            push_u64(&mut s, "claimed", w.claimed);
            push_u64(&mut s, "done", w.done);
            push_f64(&mut s, "busy_secs", w.busy_secs);
            push_f64(&mut s, "utilization", w.utilization);
            push_opt_f64(&mut s, "heartbeat_age_secs", w.heartbeat_age_secs);
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Body of the `/incidents` endpoint.
    pub fn incidents_json(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"type\":\"incidents\"");
        push_u64(&mut s, "retries", self.retries);
        push_u64(&mut s, "quarantined", self.quarantined);
        s.push_str(",\"by_kind\":{");
        for (i, (kind, count)) in self.incidents.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('"');
            s.push_str(kind);
            s.push_str("\":");
            s.push_str(&count.to_string());
        }
        s.push_str("}}");
        s
    }

    /// Single-line terminal rendering for `--progress`, padded so that
    /// successive `\r` rewrites fully overwrite each other.
    pub fn render_line(&self, label: &str) -> String {
        let mut line = format!(
            "[{label}] {}/{} ({:.0}%) ok={} quar={} retry={} skip={}",
            self.done,
            self.total,
            100.0 * self.completion(),
            self.ok,
            self.quarantined,
            self.retries,
            self.skipped,
        );
        if let Some(eta) = self.eta_secs {
            line.push_str(&format!(" eta={:.0}s", eta));
        }
        line.push_str(&format!(" t={:.0}s", self.elapsed_secs));
        let width = 76;
        if line.len() < width {
            line.push_str(&" ".repeat(width - line.len()));
        }
        line
    }
}

fn push_u64(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

fn push_f64(s: &mut String, key: &str, v: f64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    if v.is_finite() {
        s.push_str(&format!("{v:.6}"));
    } else {
        s.push_str("null");
    }
}

fn push_opt_f64(s: &mut String, key: &str, v: Option<f64>) {
    match v {
        Some(v) => push_f64(s, key, v),
        None => {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{json_f64_field, json_u64_field};

    #[test]
    fn counts_accumulate_and_snapshot() {
        let board = ProgressBoard::new(10, 2, &["degenerate_fit", "worker_panic"]);
        board.points_skipped(3);
        board.point_claimed(0);
        board.point_done(0, true, 0.01);
        board.point_claimed(1);
        board.incident("degenerate_fit", true);
        board.incident("degenerate_fit", false);
        board.incident("martian", false);
        board.point_done(1, false, 0.02);
        let snap = board.snapshot();
        assert_eq!(snap.total, 10);
        assert_eq!(snap.done, 5);
        assert_eq!(snap.ok, 1);
        assert_eq!(snap.quarantined, 1);
        assert_eq!(snap.skipped, 3);
        assert_eq!(snap.retries, 1);
        assert_eq!(
            snap.incidents,
            vec![
                ("degenerate_fit".to_string(), 2),
                ("worker_panic".to_string(), 0),
                ("other".to_string(), 1),
            ]
        );
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].claimed, 1);
        assert_eq!(snap.workers[0].done, 1);
        assert!(snap.workers[0].heartbeat_age_secs.is_some());
        assert!(snap.median_point_secs.is_some());
        assert!(snap.eta_secs.is_some());
    }

    #[test]
    fn median_tracks_bucket_scale() {
        let board = ProgressBoard::new(100, 1, &[]);
        for _ in 0..9 {
            board.point_done(0, true, 0.010);
        }
        let m = board.median_point_secs().unwrap_or(0.0);
        assert!((0.005..0.02).contains(&m), "median {m} not near 10ms");
    }

    #[test]
    fn json_bodies_parse_back() {
        let board = ProgressBoard::new(4, 2, &["lock_timeout"]);
        board.point_claimed(0);
        board.point_done(0, true, 0.001);
        let snap = board.snapshot();
        let progress = snap.to_json();
        assert_eq!(json_u64_field(&progress, "total"), Some(4));
        assert_eq!(json_u64_field(&progress, "done"), Some(1));
        assert!(json_f64_field(&progress, "elapsed_secs").is_some());
        let workers = snap.workers_json();
        assert_eq!(json_u64_field(&workers, "claimed"), Some(1));
        let incidents = snap.incidents_json();
        assert_eq!(json_u64_field(&incidents, "lock_timeout"), Some(0));
        assert!(!snap.render_line("test").is_empty());
    }

    #[test]
    fn heartbeat_age_prefers_most_recent_worker() {
        let board = ProgressBoard::new(4, 3, &[]);
        assert!(board.last_heartbeat_age_secs() >= 0.0);
        board.heartbeat(2);
        assert!(board.last_heartbeat_age_secs() < 1.0);
    }
}
