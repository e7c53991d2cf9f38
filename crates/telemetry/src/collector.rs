//! The thread-safe telemetry collector and the [`span!`](crate::span) timing macro.
//!
//! Design constraints, in order:
//!
//! 1. **Disabled must be near-free.** A disabled collector is
//!    `inner: None`; every operation is one `Option` discriminant check
//!    and an immediate return — no clock read, no allocation, no lock.
//!    `abl09_telemetry_overhead` holds this to the measured floor.
//! 2. **Thread-safe, not thread-local aggregation.** Sweep workers from
//!    `pllbist_sim::parallel` live inside `std::thread::scope`, so a
//!    shared `Arc<Mutex<State>>` is simplest and correct; the hot
//!    per-ODE-step paths never touch the collector (they keep intrinsic
//!    `u64` counters that are flushed here at stage boundaries).
//! 3. **Deterministic drain order.** Counters/gauges/histograms live in
//!    `BTreeMap`s so [`Collector::drain`] emits them in name order;
//!    spans come first in completion order.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::hist::Histogram;
use crate::record::{Fields, Record};
use crate::TelemetryConfig;

#[derive(Default)]
struct State {
    spans: Vec<Record>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Histogram>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

/// Shared handle to a telemetry buffer. Cheap to clone (an `Arc`), safe
/// to use from scoped worker threads. See the [module docs](self).
#[derive(Clone)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Collector {
    fn default() -> Self {
        Self::disabled()
    }
}

thread_local! {
    /// Current span nesting depth on this thread (for indent/structure
    /// in the output; purely cosmetic, never used for correctness).
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn thread_label() -> String {
    let t = std::thread::current();
    match t.name() {
        Some(name) => name.to_string(),
        None => format!("{:?}", t.id()),
    }
}

impl Collector {
    /// A no-op collector: every operation returns immediately.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An active collector recording every span.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Builds a collector from the plain-data config knob.
    pub fn from_config(config: &TelemetryConfig) -> Self {
        if config.enabled {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a timed span. Prefer the [`span!`](crate::span) macro, which attaches
    /// fields with less ceremony. The returned guard records the span
    /// when dropped.
    pub fn span(&self, name: &'static str) -> SpanBuilder<'_> {
        SpanBuilder {
            collector: self,
            name,
            fields: Vec::new(),
        }
    }

    /// Adds `delta` to the named counter.
    pub fn add(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        if delta == 0 {
            return;
        }
        let mut state = inner.state.lock().unwrap();
        match state.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().unwrap();
        match state.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                state.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Records a sample into the named histogram (default range,
    /// 1 ns .. 1000 s — suited to wall-clock seconds).
    pub fn observe(&self, name: &str, sample: f64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state.lock().unwrap();
        state
            .hists
            .entry(name.to_string())
            .or_default()
            .record(sample);
    }

    /// Merges pre-built records (e.g. a worker's result batch or a
    /// nested run's drained telemetry) into this collector's span list.
    pub fn extend(&self, records: Vec<Record>) {
        let Some(inner) = &self.inner else { return };
        if records.is_empty() {
            return;
        }
        let mut state = inner.state.lock().unwrap();
        for r in records {
            match r {
                Record::Counter { name, value } => match state.counters.get_mut(&name) {
                    Some(v) => *v += value,
                    None => {
                        state.counters.insert(name, value);
                    }
                },
                Record::Gauge { name, value } => {
                    state.gauges.insert(name, value);
                }
                other => state.spans.push(other),
            }
        }
    }

    /// Takes every record accumulated so far, leaving the collector
    /// empty (epoch unchanged). Spans first (completion order), then
    /// counters, gauges and histograms in name order.
    pub fn drain(&self) -> Vec<Record> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut state = inner.state.lock().unwrap();
        let mut out = std::mem::take(&mut state.spans);
        for (name, value) in std::mem::take(&mut state.counters) {
            out.push(Record::Counter { name, value });
        }
        for (name, value) in std::mem::take(&mut state.gauges) {
            out.push(Record::Gauge { name, value });
        }
        for (name, h) in std::mem::take(&mut state.hists) {
            if let (Some(min), Some(max), Some((p50, p90, p99))) =
                (h.min(), h.max(), h.percentiles())
            {
                out.push(Record::Hist {
                    name,
                    count: h.count(),
                    min,
                    max,
                    p50,
                    p90,
                    p99,
                });
            }
        }
        out
    }
}

/// Pending span: holds the name and fields until [`start`](Self::start)
/// reads the clock.
pub struct SpanBuilder<'a> {
    collector: &'a Collector,
    name: &'static str,
    fields: Fields,
}

impl SpanBuilder<'_> {
    /// Attaches a field (no-op when the collector is disabled).
    pub fn field(mut self, key: &'static str, value: impl Into<crate::record::Value>) -> Self {
        if self.collector.is_enabled() {
            self.fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Reads the clock and returns the guard that records on drop.
    pub fn start(self) -> SpanGuard {
        let Some(inner) = &self.collector.inner else {
            return SpanGuard { active: None };
        };
        DEPTH.with(|d| d.set(d.get() + 1));
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                name: self.name,
                fields: self.fields,
                started: Instant::now(),
            }),
        }
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    fields: Fields,
    started: Instant,
}

/// RAII guard: records the span into the collector when dropped.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let dur_ns = span.started.elapsed().as_nanos() as u64;
        let t_ns = span
            .started
            .saturating_duration_since(span.inner.epoch)
            .as_nanos() as u64;
        let depth = DEPTH.with(|d| {
            let v = d.get().saturating_sub(1);
            d.set(v);
            v
        });
        let record = Record::Span {
            name: span.name.to_string(),
            thread: thread_label(),
            depth,
            t_ns,
            dur_ns,
            fields: span.fields,
        };
        span.inner.state.lock().unwrap().spans.push(record);
    }
}

/// Opens a timed span on a [`Collector`], recording it when the guard
/// drops:
///
/// ```
/// use pllbist_telemetry::{span, Collector};
/// let tel = Collector::enabled();
/// {
///     let _g = span!(tel, "sweep.point", f_mod_hz = 8.0, tone = 3usize);
///     // … timed work …
/// }
/// assert_eq!(tel.drain().len(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($collector:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $collector.span($name)$(.field(stringify!($key), $value))*.start()
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Value;

    #[test]
    fn disabled_collector_records_nothing() {
        let tel = Collector::disabled();
        {
            let _g = span!(tel, "a", x = 1u64);
            tel.add("c", 5);
            tel.gauge("g", 1.0);
            tel.observe("h", 0.5);
        }
        assert!(!tel.is_enabled());
        assert!(tel.drain().is_empty());
    }

    #[test]
    fn spans_record_fields_and_nesting_depth() {
        let tel = Collector::enabled();
        {
            let _outer = span!(tel, "outer");
            let _inner = span!(tel, "inner", f_mod_hz = 8.0, ok = true);
        }
        let records = tel.drain();
        assert_eq!(records.len(), 2);
        // Inner drops first, so completion order is inner then outer.
        match &records[0] {
            Record::Span {
                name,
                depth,
                fields,
                ..
            } => {
                assert_eq!(name, "inner");
                assert_eq!(*depth, 1);
                assert_eq!(
                    fields,
                    &vec![
                        ("f_mod_hz".to_string(), Value::F64(8.0)),
                        ("ok".to_string(), Value::Bool(true)),
                    ]
                );
            }
            other => panic!("expected span, got {other:?}"),
        }
        match &records[1] {
            Record::Span { name, depth, .. } => {
                assert_eq!(name, "outer");
                assert_eq!(*depth, 0);
            }
            other => panic!("expected span, got {other:?}"),
        }
    }

    #[test]
    fn counters_accumulate_and_drain_in_name_order() {
        let tel = Collector::enabled();
        tel.add("z.second", 2);
        tel.add("a.first", 1);
        tel.add("z.second", 3);
        tel.add("ignored.zero", 0);
        tel.gauge("g.mid", 1.5);
        tel.gauge("g.mid", 2.5);
        let records = tel.drain();
        assert_eq!(
            records,
            vec![
                Record::Counter {
                    name: "a.first".into(),
                    value: 1
                },
                Record::Counter {
                    name: "z.second".into(),
                    value: 5
                },
                Record::Gauge {
                    name: "g.mid".into(),
                    value: 2.5
                },
            ]
        );
        assert!(
            tel.drain().is_empty(),
            "drain must leave the collector empty"
        );
    }

    #[test]
    fn histograms_drain_with_percentiles() {
        let tel = Collector::enabled();
        for i in 1..=100 {
            tel.observe("wall", i as f64 * 1e-3);
        }
        let records = tel.drain();
        assert_eq!(records.len(), 1);
        match &records[0] {
            Record::Hist {
                name,
                count,
                min,
                max,
                p50,
                p90,
                p99,
            } => {
                assert_eq!(name, "wall");
                assert_eq!(*count, 100);
                assert_eq!(*min, 1e-3);
                assert_eq!(*max, 0.1);
                assert!(*p50 <= *p90 && *p90 <= *p99);
                assert!((*p50 - 0.05).abs() < 0.02, "p50 {p50} far from 0.05");
            }
            other => panic!("expected hist, got {other:?}"),
        }
    }

    #[test]
    fn spans_merge_across_scoped_threads() {
        let tel = Collector::enabled();
        std::thread::scope(|scope| {
            for worker in 0..4usize {
                let tel = tel.clone();
                scope.spawn(move || {
                    let _g = span!(tel, "worker.chunk", worker = worker);
                    tel.add("items", 10);
                });
            }
        });
        let records = tel.drain();
        let spans: Vec<_> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span {
                    name,
                    thread,
                    depth,
                    ..
                } => Some((name, thread, *depth)),
                _ => None,
            })
            .collect();
        assert_eq!(spans.len(), 4);
        for (name, _thread, depth) in &spans {
            assert_eq!(*name, "worker.chunk");
            // Depth counters are thread-local: each worker span is outermost.
            assert_eq!(*depth, 0);
        }
        assert!(records
            .iter()
            .any(|r| matches!(r, Record::Counter { name, value: 40 } if name == "items")));
    }

    #[test]
    fn extend_merges_counters_and_keeps_spans() {
        let tel = Collector::enabled();
        tel.add("c", 1);
        tel.extend(vec![
            Record::Counter {
                name: "c".into(),
                value: 2,
            },
            Record::Gauge {
                name: "g".into(),
                value: 7.0,
            },
            Record::Result {
                name: "r".into(),
                fields: Vec::new(),
            },
        ]);
        let records = tel.drain();
        assert!(records.contains(&Record::Counter {
            name: "c".into(),
            value: 3
        }));
        assert!(records.contains(&Record::Gauge {
            name: "g".into(),
            value: 7.0
        }));
        assert!(records.contains(&Record::Result {
            name: "r".into(),
            fields: Vec::new()
        }));
    }
}
