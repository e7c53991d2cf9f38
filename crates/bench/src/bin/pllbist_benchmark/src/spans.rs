//! In-memory spans recorded around calls into each layer, written as
//! JSONL when the benchmark ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::union_len;

/// One timed call: name, interval, the span that caused it and the
/// operation (job or device index) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `campaign.open`.
    pub name: String,
    /// The enclosing span's id (its index in the log).
    pub parent: Option<usize>,
    /// Job or device index the span belongs to.
    pub op: Option<usize>,
    /// Recording thread.
    pub thread: String,
    /// Seconds since the log's epoch.
    pub start: f64,
    /// Seconds since the log's epoch; `NaN` while the span is open.
    pub end: f64,
}

/// A thread-safe span log. Span ids are positions in the log.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds from the log's epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span log poisoned by a panicking recorder")
    }

    /// Records a finished span between two instants; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        op: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            parent,
            op,
            thread: format!("{:?}", std::thread::current().id()),
            start: self.at(start),
            end: self.at(end),
        };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span whose end is set later by [`close`](Self::close), so
    /// children recorded meanwhile can name it as their parent.
    pub fn open(&self, name: &str, parent: Option<usize>, op: Option<usize>) -> usize {
        let now = Instant::now();
        let id = self.record(name, parent, op, now, now);
        self.lock()[id].end = f64::NAN;
        id
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&self, id: usize) {
        let end = self.at(Instant::now());
        if let Some(span) = self.lock().get_mut(id) {
            span.end = end;
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes one JSON object per span, with its self time: its duration
    /// minus the part of it that its children cover. A span left open (a
    /// replay that failed part way) has a `null` end and self time.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
                let p = &spans[parent];
                children[parent].push((span.start.max(p.start), span.end.min(p.end)));
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let ns = |secs: f64| {
            if secs.is_finite() {
                format!("{}", (secs * 1e9).round())
            } else {
                "null".to_string()
            }
        };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in spans.iter().enumerate() {
            let dur = span.end - span.start;
            let self_s = dur - union_len(&children[id]);
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"op\":{},\"thread\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                span.name,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.op.map_or("null".to_string(), |o| o.to_string()),
                span.thread,
                ns(span.start),
                ns(span.end),
                ns(self_s),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let log = SpanLog::new();
        let parent = log.open("job", None, Some(3));
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_millis(2);
        log.record("child", Some(parent), Some(3), t0, t1);
        log.record("child", Some(parent), Some(3), t0, t1);
        log.close(parent);
        log.open("left open", None, None);
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans[0].end >= spans[0].start);
        let path = std::env::temp_dir().join(format!("pllbist_spans_{}.jsonl", std::process::id()));
        log.write_jsonl(&path).expect("write spans");
        let text = std::fs::read_to_string(&path).expect("read spans");
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().all(|l| l.contains("\"self_ns\":")));
        assert!(text
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"end_ns\":null,\"self_ns\":null")));
        let _ = std::fs::remove_file(&path);
    }
}
