//! Telemetry records and their one stable rendering: JSON lines.
//!
//! The JSONL field names are a **contract** — external tooling parses
//! them — and are pinned by the `jsonl_schema_snapshot` test below. Add
//! fields if you must; never rename or retype existing ones.

use std::fmt::Write as _;

/// A typed field value carried by spans and result records.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A boolean flag.
    Bool(bool),
    /// An unsigned integer (counts, indices).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point quantity. Non-finite values serialise as `null`.
    F64(f64),
    /// A string label.
    Str(String),
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => write_json_f64(out, *v),
            Value::Str(s) => write_json_str(out, s),
        }
    }
}

/// A `(key, value)` field list (insertion order preserved).
pub type Fields = Vec<(String, Value)>;

/// Builds a [`Fields`] list with identifier keys:
/// `fields![f_mod_hz = 8.0, tones = 5usize]`.
#[macro_export]
macro_rules! fields {
    ($($key:ident = $value:expr),* $(,)?) => {
        vec![$((String::from(stringify!($key)), $crate::Value::from($value))),*]
    };
}

/// One telemetry record.
///
/// JSONL schema (one object per line, `type` discriminates):
///
/// | `type`    | keys                                                          |
/// |-----------|---------------------------------------------------------------|
/// | `run`     | `bin`, `schema`                                               |
/// | `span`    | `name`, `thread`, `depth`, `t_ns`, `dur_ns`, `fields`         |
/// | `counter` | `name`, `value`                                               |
/// | `gauge`   | `name`, `value`                                               |
/// | `hist`    | `name`, `count`, `min`, `max`, `p50`, `p90`, `p99`            |
/// | `result`  | `name`, `fields`                                              |
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// Run header: which binary produced the stream, and the schema
    /// version of every following line.
    Run {
        /// Producing binary's name.
        bin: String,
        /// Schema version (bump when the contract changes).
        schema: u32,
    },
    /// A completed timed scope.
    Span {
        /// Span name (dotted hierarchy, e.g. `monitor.tone`).
        name: String,
        /// Label of the recording thread.
        thread: String,
        /// Nesting depth within the recording thread (0 = outermost).
        depth: u32,
        /// Start time in nanoseconds since the collector's epoch.
        t_ns: u64,
        /// Wall-clock duration in nanoseconds.
        dur_ns: u64,
        /// Attached fields.
        fields: Fields,
    },
    /// A monotonically accumulated count.
    Counter {
        /// Counter name.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// A last-write-wins measurement.
    Gauge {
        /// Gauge name.
        name: String,
        /// Recorded value.
        value: f64,
    },
    /// A histogram snapshot (fixed log-scale buckets; see
    /// [`crate::Histogram`]).
    Hist {
        /// Histogram name.
        name: String,
        /// Samples recorded.
        count: u64,
        /// Smallest sample.
        min: f64,
        /// Largest sample.
        max: f64,
        /// Median estimate.
        p50: f64,
        /// 90th-percentile estimate.
        p90: f64,
        /// 99th-percentile estimate.
        p99: f64,
    },
    /// A headline result of a bench/ablation run.
    Result {
        /// Result name.
        name: String,
        /// The result's values.
        fields: Fields,
    },
    /// Resumable-campaign header: binds a results file to the
    /// configuration that produced it, so a resumed run can refuse a
    /// stale or foreign file.
    Campaign {
        /// Digest of the producing configuration (16 lowercase hex
        /// characters, FNV-1a 64 of the config + grid + settings).
        digest: String,
        /// Total points in the campaign grid.
        points: u64,
    },
}

/// The current JSONL schema version emitted in `run` headers.
pub const SCHEMA_VERSION: u32 = 1;

/// Appends `s` to `out` as a JSON string literal, quotes and escapes
/// included.
pub fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub(crate) fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn write_fields(out: &mut String, fields: &Fields) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_json_str(out, k);
        out.push(':');
        v.write_json(out);
    }
    out.push('}');
}

impl Record {
    /// Serialises this record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Record::Run { bin, schema } => {
                out.push_str("{\"type\":\"run\",\"bin\":");
                write_json_str(&mut out, bin);
                let _ = write!(out, ",\"schema\":{schema}}}");
            }
            Record::Span {
                name,
                thread,
                depth,
                t_ns,
                dur_ns,
                fields,
            } => {
                out.push_str("{\"type\":\"span\",\"name\":");
                write_json_str(&mut out, name);
                out.push_str(",\"thread\":");
                write_json_str(&mut out, thread);
                let _ = write!(
                    out,
                    ",\"depth\":{depth},\"t_ns\":{t_ns},\"dur_ns\":{dur_ns}"
                );
                out.push_str(",\"fields\":");
                write_fields(&mut out, fields);
                out.push('}');
            }
            Record::Counter { name, value } => {
                out.push_str("{\"type\":\"counter\",\"name\":");
                write_json_str(&mut out, name);
                let _ = write!(out, ",\"value\":{value}}}");
            }
            Record::Gauge { name, value } => {
                out.push_str("{\"type\":\"gauge\",\"name\":");
                write_json_str(&mut out, name);
                out.push_str(",\"value\":");
                write_json_f64(&mut out, *value);
                out.push('}');
            }
            Record::Hist {
                name,
                count,
                min,
                max,
                p50,
                p90,
                p99,
            } => {
                out.push_str("{\"type\":\"hist\",\"name\":");
                write_json_str(&mut out, name);
                let _ = write!(out, ",\"count\":{count}");
                for (key, v) in [
                    ("min", *min),
                    ("max", *max),
                    ("p50", *p50),
                    ("p90", *p90),
                    ("p99", *p99),
                ] {
                    let _ = write!(out, ",\"{key}\":");
                    write_json_f64(&mut out, v);
                }
                out.push('}');
            }
            Record::Result { name, fields } => {
                out.push_str("{\"type\":\"result\",\"name\":");
                write_json_str(&mut out, name);
                out.push_str(",\"fields\":");
                write_fields(&mut out, fields);
                out.push('}');
            }
            Record::Campaign { digest, points } => {
                out.push_str("{\"type\":\"campaign\",\"digest\":");
                write_json_str(&mut out, digest);
                let _ = write!(out, ",\"points\":{points}}}");
            }
        }
        out
    }
}

/// Serialises records as JSON lines (one record per line, trailing
/// newline).
pub fn to_jsonl(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSONL schema is a stable contract: field names, order and
    /// types are pinned here. A failure means external consumers break —
    /// bump [`SCHEMA_VERSION`] and update the docs before touching this.
    #[test]
    fn jsonl_schema_snapshot() {
        let records = vec![
            Record::Run {
                bin: "abl09_telemetry_overhead".into(),
                schema: SCHEMA_VERSION,
            },
            Record::Span {
                name: "monitor.tone".into(),
                thread: "main".into(),
                depth: 1,
                t_ns: 1_500,
                dur_ns: 42_000,
                fields: fields![f_mod_hz = 8.0, peak_found = true, tone = 3usize],
            },
            Record::Counter {
                name: "sim.steps".into(),
                value: 123_456,
            },
            Record::Gauge {
                name: "monitor.transcript_bytes".into(),
                value: 960.0,
            },
            Record::Hist {
                name: "monitor.tone_wall_secs".into(),
                count: 5,
                min: 0.001,
                max: 0.25,
                p50: 0.01,
                p90: 0.2,
                p99: 0.25,
            },
            Record::Result {
                name: "speedup".into(),
                fields: fields![threads = 4u64, ratio = 2.5],
            },
            Record::Campaign {
                digest: "00f1e2d3c4b5a697".into(),
                points: 1000,
            },
        ];
        let expected = concat!(
            "{\"type\":\"run\",\"bin\":\"abl09_telemetry_overhead\",\"schema\":1}\n",
            "{\"type\":\"span\",\"name\":\"monitor.tone\",\"thread\":\"main\",\"depth\":1,",
            "\"t_ns\":1500,\"dur_ns\":42000,",
            "\"fields\":{\"f_mod_hz\":8,\"peak_found\":true,\"tone\":3}}\n",
            "{\"type\":\"counter\",\"name\":\"sim.steps\",\"value\":123456}\n",
            "{\"type\":\"gauge\",\"name\":\"monitor.transcript_bytes\",\"value\":960}\n",
            "{\"type\":\"hist\",\"name\":\"monitor.tone_wall_secs\",\"count\":5,",
            "\"min\":0.001,\"max\":0.25,\"p50\":0.01,\"p90\":0.2,\"p99\":0.25}\n",
            "{\"type\":\"result\",\"name\":\"speedup\",\"fields\":{\"threads\":4,\"ratio\":2.5}}\n",
            "{\"type\":\"campaign\",\"digest\":\"00f1e2d3c4b5a697\",\"points\":1000}\n",
        );
        assert_eq!(to_jsonl(&records), expected);
    }

    #[test]
    fn strings_are_escaped() {
        let r = Record::Result {
            name: "quote\"slash\\line\nend".into(),
            fields: fields![],
        };
        assert_eq!(
            r.to_json(),
            "{\"type\":\"result\",\"name\":\"quote\\\"slash\\\\line\\nend\",\"fields\":{}}"
        );
        let mut s = String::new();
        write_json_str(&mut s, "\u{1}");
        assert_eq!(s, "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let r = Record::Gauge {
            name: "g".into(),
            value: f64::NAN,
        };
        assert_eq!(
            r.to_json(),
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":null}"
        );
        let r = Record::Gauge {
            name: "g".into(),
            value: f64::INFINITY,
        };
        assert!(r.to_json().ends_with("\"value\":null}"));
    }
}
