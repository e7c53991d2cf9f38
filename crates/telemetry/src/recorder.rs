//! Flight recorder: a fixed-size ring of recent per-point campaign
//! events for post-mortem timelines.
//!
//! The recorder keeps the last `capacity` events (claim, done, retry,
//! quarantine, watchdog trip, flush, stall markers) with monotonic
//! timestamps, plus every restart marker: a restart is recorded once per
//! attempt, before any of the attempt's point events, so a ring alone
//! would evict it from exactly the large jobs whose dumps matter. It is
//! dumped to a sidecar JSONL file on stall detection, on panic/abort (via
//! the owning observer's `Drop`), and on clean `finish()` — so a killed
//! campaign always leaves a parseable tail of what the workers were
//! doing.
//!
//! Events are rare (a handful per point, never per simulation step), so
//! a mutex-guarded ring is cheap; the lock tolerates poisoning because
//! dumps frequently happen on panic paths.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use crate::json::{json_str_field, json_u64_field};

/// Flight-recorder event kinds. `as_str` values are the on-disk tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// Worker claimed a point off the shared queue.
    Claim,
    /// Point finished (ok or quarantined; see `detail`).
    Done,
    /// Supervisor retried a point after a contained incident.
    Retry,
    /// Supervisor quarantined a point.
    Quarantine,
    /// A guardrail watchdog tripped (divergence / step budget).
    WatchdogTrip,
    /// Campaign log flushed the point's result line.
    Flush,
    /// Stall detector fired (no worker heartbeat for too long).
    Stall,
    /// Lifecycle note (campaign start/finish/abort markers).
    Note,
    /// A crash-only service restarted an interrupted job.
    Restart,
    /// Graceful drain: the service stopped accepting work and is
    /// finishing what it holds.
    Drain,
}

impl FlightEventKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            FlightEventKind::Claim => "claim",
            FlightEventKind::Done => "done",
            FlightEventKind::Retry => "retry",
            FlightEventKind::Quarantine => "quarantine",
            FlightEventKind::WatchdogTrip => "watchdog_trip",
            FlightEventKind::Flush => "flush",
            FlightEventKind::Stall => "stall",
            FlightEventKind::Note => "note",
            FlightEventKind::Restart => "restart",
            FlightEventKind::Drain => "drain",
        }
    }

    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "claim" => FlightEventKind::Claim,
            "done" => FlightEventKind::Done,
            "retry" => FlightEventKind::Retry,
            "quarantine" => FlightEventKind::Quarantine,
            "watchdog_trip" => FlightEventKind::WatchdogTrip,
            "flush" => FlightEventKind::Flush,
            "stall" => FlightEventKind::Stall,
            "note" => FlightEventKind::Note,
            "restart" => FlightEventKind::Restart,
            "drain" => FlightEventKind::Drain,
            _ => return None,
        })
    }
}

/// One recorded event. `seq` is a global monotone sequence number (so a
/// dump shows how many events were dropped by the ring), `t_ns` is
/// monotonic nanoseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    pub seq: u64,
    pub t_ns: u64,
    pub worker: u64,
    /// Point index, or `u64::MAX` for events not tied to a point.
    pub point: u64,
    pub kind: FlightEventKind,
    pub detail: String,
}

impl FlightEvent {
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"type\":\"flight\",\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"t_ns\":");
        s.push_str(&self.t_ns.to_string());
        s.push_str(",\"worker\":");
        s.push_str(&self.worker.to_string());
        s.push_str(",\"point\":");
        s.push_str(&self.point.to_string());
        s.push_str(",\"kind\":\"");
        s.push_str(self.kind.as_str());
        s.push_str("\",\"detail\":");
        crate::record::write_json_str(&mut s, &self.detail);
        s.push('}');
        s
    }

    /// Parses one dump line; `None` for headers, torn lines, or foreign
    /// record types.
    pub fn parse(line: &str) -> Option<Self> {
        if json_str_field(line, "type").as_deref() != Some("flight") {
            return None;
        }
        Some(FlightEvent {
            seq: json_u64_field(line, "seq")?,
            t_ns: json_u64_field(line, "t_ns")?,
            worker: json_u64_field(line, "worker")?,
            point: json_u64_field(line, "point")?,
            kind: FlightEventKind::from_tag(&json_str_field(line, "kind")?)?,
            detail: json_str_field(line, "detail")?,
        })
    }
}

/// Sentinel `point` value for events not tied to a specific point.
pub const NO_POINT: u64 = u64::MAX;

struct RecorderState {
    next_seq: u64,
    ring: VecDeque<FlightEvent>,
    /// [`FlightEventKind::Restart`] events, outside the ring and never
    /// evicted.
    restarts: Vec<FlightEvent>,
}

/// Fixed-capacity ring of recent [`FlightEvent`]s.
pub struct FlightRecorder {
    epoch: Instant,
    capacity: usize,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            epoch: Instant::now(),
            capacity,
            state: Mutex::new(RecorderState {
                next_seq: 0,
                ring: VecDeque::with_capacity(capacity),
                restarts: Vec::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RecorderState> {
        // Dumps run on panic paths; a poisoned ring is still readable.
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends an event, evicting the oldest when the ring is full. A
    /// [`FlightEventKind::Restart`] is kept outside the ring and never
    /// evicted.
    pub fn record(&self, worker: usize, point: u64, kind: FlightEventKind, detail: &str) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let event = FlightEvent {
            seq,
            t_ns,
            worker: worker as u64,
            point,
            kind,
            detail: detail.to_string(),
        };
        if kind == FlightEventKind::Restart {
            state.restarts.push(event);
            return;
        }
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
        }
        state.ring.push_back(event);
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (including those evicted).
    pub fn total_recorded(&self) -> u64 {
        self.lock().next_seq
    }

    /// Snapshot of the kept events (the ring and every restart marker),
    /// oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        Self::kept(&self.lock())
    }

    /// The ring and the restart markers merged in sequence order.
    fn kept(state: &RecorderState) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> =
            state.restarts.iter().chain(&state.ring).cloned().collect();
        events.sort_unstable_by_key(|e| e.seq);
        events
    }

    /// Renders the ring as JSONL: a header line then one line per event.
    /// `reason` says why the dump happened (finish/stall/abort).
    pub fn dump_jsonl(&self, reason: &str) -> String {
        let state = self.lock();
        let kept = Self::kept(&state);
        let mut out = String::with_capacity(64 + 96 * kept.len());
        out.push_str("{\"type\":\"flight_header\",\"schema\":1,\"reason\":");
        crate::record::write_json_str(&mut out, reason);
        out.push_str(",\"recorded\":");
        out.push_str(&state.next_seq.to_string());
        out.push_str(",\"kept\":");
        out.push_str(&kept.len().to_string());
        out.push_str("}\n");
        for ev in &kept {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes [`Self::dump_jsonl`] to `path`, truncating any prior dump.
    pub fn dump_to(&self, path: &Path, reason: &str) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.dump_jsonl(reason).as_bytes())?;
        file.flush()
    }
}

/// Parses a dump produced by [`FlightRecorder::dump_jsonl`], returning
/// the events in order. Lines that fail to parse (e.g. a torn tail) are
/// skipped; a dump with a valid header and zero torn event lines
/// round-trips exactly.
pub fn parse_dump(text: &str) -> Vec<FlightEvent> {
    text.lines().filter_map(FlightEvent::parse).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record(0, i, FlightEventKind::Claim, "c");
        }
        let events = rec.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.total_recorded(), 5);
    }

    #[test]
    fn restart_marker_survives_eviction() {
        let rec = FlightRecorder::new(3);
        rec.record(0, NO_POINT, FlightEventKind::Restart, "attempt 1");
        for i in 0..5u64 {
            rec.record(1, i, FlightEventKind::Claim, "c");
        }
        let events = rec.events();
        assert_eq!(
            events.iter().map(|e| (e.seq, e.kind)).collect::<Vec<_>>(),
            vec![
                (0, FlightEventKind::Restart),
                (3, FlightEventKind::Claim),
                (4, FlightEventKind::Claim),
                (5, FlightEventKind::Claim),
            ]
        );
        let dump = rec.dump_jsonl("finish");
        assert!(dump.contains("\"kept\":4"), "{dump}");
        assert_eq!(parse_dump(&dump), events);
    }

    #[test]
    fn dump_round_trips() {
        let rec = FlightRecorder::new(8);
        rec.record(1, 7, FlightEventKind::Retry, "attempt 2: \"diverged\"");
        rec.record(1, 7, FlightEventKind::Quarantine, "gave up\nafter 3");
        rec.record(0, NO_POINT, FlightEventKind::Note, "finish");
        let dump = rec.dump_jsonl("finish");
        assert!(dump.starts_with("{\"type\":\"flight_header\""));
        let parsed = parse_dump(&dump);
        assert_eq!(parsed, rec.events());
        assert_eq!(parsed[0].kind, FlightEventKind::Retry);
        assert_eq!(parsed[0].detail, "attempt 2: \"diverged\"");
        assert_eq!(parsed[1].detail, "gave up\nafter 3");
    }

    #[test]
    fn torn_dump_still_parses_prefix() {
        let rec = FlightRecorder::new(8);
        rec.record(0, 1, FlightEventKind::Claim, "");
        rec.record(0, 1, FlightEventKind::Done, "ok");
        let dump = rec.dump_jsonl("stall");
        let cut = dump.len() - 12;
        let parsed = parse_dump(&dump[..cut]);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].kind, FlightEventKind::Claim);
    }

    #[test]
    fn timestamps_are_monotone() {
        let rec = FlightRecorder::new(4);
        rec.record(0, 0, FlightEventKind::Claim, "");
        rec.record(0, 0, FlightEventKind::Done, "");
        let ev = rec.events();
        assert!(ev[0].t_ns <= ev[1].t_ns);
    }
}
