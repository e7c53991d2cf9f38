//! Bench regression ledger: an append-only JSONL trajectory of headline
//! bench numbers, plus the comparison policy the `bench_ledger_gate`
//! binary enforces.
//!
//! Record schema (one object per line):
//!
//! ```json
//! {"type":"ledger","schema":1,"bin":"abl13_campaign_observatory",
//!  "rev":"0123456789ab","cores":2,"unix_ts":1760000000,
//!  "baseline":false,"metrics":{"observatory.overhead_pct":1.4,...}}
//! ```
//!
//! `rev` (the git revision measured, `unknown` outside a work tree),
//! `cores` (available parallelism) and `unix_ts` say which code ran
//! where and when, so the ledger reads as a trajectory; rows written
//! before they existed omit them. `metrics` flattens every numeric field
//! of the run's `result` records as `<result_name>.<field>`.
//! `baseline:true` rows are the committed reference
//! ([`BASELINE_LEDGER_PATH`]); [`RunReport::finish`] appends
//! `baseline:false` rows for every `--jsonl` run, by default under
//! `target/` ([`DEFAULT_LEDGER_PATH`]) so a bin run never edits the
//! committed file.
//!
//! [`RunReport::finish`]: crate::RunReport::finish

use std::io::Write as _;
use std::path::Path;

use crate::json::{json_bool_field, json_str_field, json_u64_field};
use crate::record::{Record, Value};

/// Ledger record schema version.
pub const LEDGER_SCHEMA: u32 = 1;

/// The committed baseline ledger, relative to the repo root.
pub const BASELINE_LEDGER_PATH: &str = "results/bench_ledger.jsonl";

/// Where `--jsonl` runs append fresh rows when [`LEDGER_ENV`] is unset,
/// relative to the repo root.
pub const DEFAULT_LEDGER_PATH: &str = "target/bench_ledger.jsonl";

/// Environment variable overriding the ledger path. An empty value
/// disables ledger appends entirely.
pub const LEDGER_ENV: &str = "PLLBIST_LEDGER";

/// One ledger row: a bin's flattened headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRecord {
    pub bin: String,
    /// The git revision the row measured (`unknown` outside a work tree).
    pub rev: Option<String>,
    /// Available parallelism of the host that ran it.
    pub cores: Option<u64>,
    /// When it ran, in seconds since the Unix epoch.
    pub unix_ts: Option<u64>,
    /// Committed reference rows are `true`; fresh runs append `false`.
    pub baseline: bool,
    /// `(metric_key, value)` in emission order; keys are
    /// `<result_name>.<field>`.
    pub metrics: Vec<(String, f64)>,
}

impl LedgerRecord {
    /// A fresh (non-baseline) row for `bin`, stamped with this checkout's
    /// revision, this host's core count and the current time.
    pub fn fresh(bin: &str, metrics: Vec<(String, f64)>) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
        let unix_ts = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        Self {
            bin: bin.to_string(),
            rev: Some(git_rev()),
            cores: Some(cores),
            unix_ts: Some(unix_ts),
            baseline: false,
            metrics,
        }
    }

    /// Serialises as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96 + 32 * self.metrics.len());
        s.push_str("{\"type\":\"ledger\",\"schema\":");
        s.push_str(&LEDGER_SCHEMA.to_string());
        s.push_str(",\"bin\":");
        crate::record::write_json_str(&mut s, &self.bin);
        if let Some(rev) = &self.rev {
            s.push_str(",\"rev\":");
            crate::record::write_json_str(&mut s, rev);
        }
        if let Some(cores) = self.cores {
            s.push_str(&format!(",\"cores\":{cores}"));
        }
        if let Some(ts) = self.unix_ts {
            s.push_str(&format!(",\"unix_ts\":{ts}"));
        }
        s.push_str(",\"baseline\":");
        s.push_str(if self.baseline { "true" } else { "false" });
        s.push_str(",\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            crate::record::write_json_str(&mut s, k);
            s.push(':');
            crate::record::write_json_f64(&mut s, *v);
        }
        s.push_str("}}");
        s
    }

    /// Parses one ledger line; `None` for torn or foreign lines.
    pub fn parse(line: &str) -> Option<Self> {
        if json_str_field(line, "type").as_deref() != Some("ledger") {
            return None;
        }
        let bin = json_str_field(line, "bin")?;
        let baseline = json_bool_field(line, "baseline")?;
        // The metrics object is the last key; keys are plain identifiers
        // (result/field names) so a non-escaping scan is sufficient. The
        // row's own fields are looked up only ahead of it, where no
        // metric key can shadow them.
        let metrics_at = line.find("\"metrics\":{")?;
        let head = &line[..metrics_at];
        let body_at = metrics_at + "\"metrics\":{".len();
        let body = &line[body_at..];
        let body = &body[..body.rfind('}')?];
        let body = body.strip_suffix('}').unwrap_or(body);
        let mut metrics = Vec::new();
        for pair in body.split(',') {
            if pair.trim().is_empty() {
                continue;
            }
            let (k, v) = pair.split_once(':')?;
            let k = k.trim().trim_matches('"');
            if k.is_empty() {
                continue;
            }
            let value = match v.trim() {
                "null" => f64::NAN,
                v => v.parse().ok()?,
            };
            metrics.push((k.to_string(), value));
        }
        Some(Self {
            bin,
            rev: json_str_field(head, "rev"),
            cores: json_u64_field(head, "cores"),
            unix_ts: json_u64_field(head, "unix_ts"),
            baseline,
            metrics,
        })
    }

    /// Looks up a metric by exact key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }
}

/// Flattens the numeric fields of `result` records into ledger metrics
/// (`<result_name>.<field>`). Booleans flatten to 0/1 so pass/fail
/// flags show up in the trajectory too. Repeated result names (per-row
/// records like abl09's `variant` or drained incident telemetry) keep
/// only their **first** occurrence — the same first-wins rule the JSONL
/// field parsers use — so a ledger row stays one compact object with
/// unique keys; headline verdicts should use unique result names.
pub fn metrics_from_records(records: &[Record]) -> Vec<(String, f64)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out: Vec<(String, f64)> = Vec::new();
    for r in records {
        let Record::Result { name, fields } = r else {
            continue;
        };
        for (key, value) in fields {
            let v = match value {
                Value::F64(v) => *v,
                Value::U64(v) => *v as f64,
                Value::I64(v) => *v as f64,
                Value::Bool(b) => {
                    if *b {
                        1.0
                    } else {
                        0.0
                    }
                }
                Value::Str(_) => continue,
            };
            let metric = format!("{name}.{key}");
            if seen.insert(metric.clone()) {
                out.push((metric, v));
            }
        }
    }
    out
}

/// Appends one record to the ledger at `path`, creating it if absent.
pub fn append_record(path: &Path, record: &LedgerRecord) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(record.to_json().as_bytes())?;
    file.write_all(b"\n")?;
    file.flush()
}

/// Parses ledger text, skipping torn/foreign lines.
pub fn parse_ledger(text: &str) -> Vec<LedgerRecord> {
    text.lines().filter_map(LedgerRecord::parse).collect()
}

/// The revision of the git work tree in the current directory, or
/// `unknown`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolves the ledger path for a run: [`LEDGER_ENV`] wins (empty =
/// disabled), otherwise [`DEFAULT_LEDGER_PATH`] when its parent
/// directory exists in the current working directory (i.e. the run was
/// launched from a built repo root). Never the committed baseline.
pub fn default_ledger_path() -> Option<std::path::PathBuf> {
    match std::env::var(LEDGER_ENV) {
        Ok(path) if path.is_empty() => None,
        Ok(path) => Some(std::path::PathBuf::from(path)),
        Err(_) => {
            let path = std::path::PathBuf::from(DEFAULT_LEDGER_PATH);
            path.parent()
                .is_some_and(|dir| dir.is_dir())
                .then_some(path)
        }
    }
}

/// Which direction of change counts as a regression for a metric key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (speedups, utilization, coverage ratios).
    HigherBetter,
    /// Smaller is better (wall times, overhead percentages).
    LowerBetter,
    /// Informational only — never gated (counts, flags, cores).
    Ungated,
}

/// Classifies a metric key by suffix convention. The conventions match
/// what the ablation bins emit; anything unrecognised is ungated so new
/// metrics never fail the gate by accident.
pub fn metric_direction(key: &str) -> Direction {
    if key.ends_with("speedup") || key.ends_with("utilization") || key.ends_with("ratio") {
        Direction::HigherBetter
    } else if key.ends_with("overhead_pct") || key.ends_with("_secs") {
        Direction::LowerBetter
    } else {
        Direction::Ungated
    }
}

/// Gate tolerances. Ratio-style metrics regress when they move against
/// their direction by more than `tolerance_pct` percent; `*overhead_pct`
/// metrics compare in absolute percentage points (`pct_point_slack`),
/// because relative change on a near-zero percentage is noise; wall-time
/// (`*_secs`) metrics are only gated when `gate_secs` is set, since raw
/// seconds do not transfer across machines.
#[derive(Debug, Clone, Copy)]
pub struct GatePolicy {
    pub tolerance_pct: f64,
    pub pct_point_slack: f64,
    pub gate_secs: bool,
}

impl Default for GatePolicy {
    fn default() -> Self {
        Self {
            tolerance_pct: 35.0,
            pct_point_slack: 5.0,
            gate_secs: false,
        }
    }
}

/// One metric's comparison verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub bin: String,
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// Signed percent change relative to baseline (positive = current
    /// larger).
    pub change_pct: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Not gated: informational metric, secs gating off, or the two
    /// records ran on different core counts.
    Skipped,
}

/// Compares one bin's current record against its baseline. When both
/// records carry a core count (the row's `cores`, else a `*.cores`
/// metric) and they disagree, every comparison is skipped — speedup
/// baselines from a many-core machine are not meaningful on a laptop.
pub fn compare_records(
    baseline: &LedgerRecord,
    current: &LedgerRecord,
    policy: &GatePolicy,
) -> Vec<Comparison> {
    let cores_of = |r: &LedgerRecord| {
        r.cores.map(|c| c as f64).or_else(|| {
            r.metrics
                .iter()
                .find(|(k, _)| k.ends_with(".cores") || k == "cores")
                .map(|(_, v)| *v)
        })
    };
    let cores_mismatch = match (cores_of(baseline), cores_of(current)) {
        (Some(a), Some(b)) => a != b,
        _ => false,
    };
    let mut out = Vec::new();
    for (key, base) in &baseline.metrics {
        let Some(cur) = current.metric(key) else {
            continue;
        };
        if !base.is_finite() || !cur.is_finite() {
            continue;
        }
        let change_pct = if *base != 0.0 {
            100.0 * (cur - base) / base.abs()
        } else if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        let direction = metric_direction(key);
        let verdict = if cores_mismatch {
            Verdict::Skipped
        } else {
            match direction {
                Direction::Ungated => Verdict::Skipped,
                Direction::LowerBetter if !policy.gate_secs && key.ends_with("_secs") => {
                    Verdict::Skipped
                }
                Direction::HigherBetter => {
                    if change_pct < -policy.tolerance_pct {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    }
                }
                // Overhead percentages gate on absolute percentage-point
                // movement: 0.4 % → 1.0 % is +150 % relative but well
                // inside the noise of a small tax.
                Direction::LowerBetter if key.ends_with("overhead_pct") => {
                    if cur - base > policy.pct_point_slack {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    }
                }
                Direction::LowerBetter => {
                    if change_pct > policy.tolerance_pct {
                        Verdict::Regressed
                    } else {
                        Verdict::Ok
                    }
                }
            }
        };
        out.push(Comparison {
            bin: current.bin.clone(),
            metric: key.clone(),
            baseline: *base,
            current: cur,
            change_pct,
            verdict,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;

    #[test]
    fn record_round_trips() {
        let rec = LedgerRecord {
            bin: "abl13_campaign_observatory".into(),
            rev: Some("0123456789ab".into()),
            cores: Some(2),
            unix_ts: Some(1_760_000_000),
            baseline: true,
            metrics: vec![
                ("observatory.overhead_pct".into(), 1.25),
                ("observatory.points".into(), 12.0),
            ],
        };
        let line = rec.to_json();
        assert!(line.starts_with("{\"type\":\"ledger\",\"schema\":1"));
        assert_eq!(LedgerRecord::parse(&line), Some(rec));
        assert_eq!(LedgerRecord::parse("{\"type\":\"result\"}"), None);
        assert_eq!(LedgerRecord::parse("{\"type\":\"ledger\",\"bin"), None);
    }

    #[test]
    fn empty_metrics_round_trip() {
        let rec = LedgerRecord {
            bin: "x".into(),
            rev: None,
            cores: None,
            unix_ts: None,
            baseline: false,
            metrics: vec![],
        };
        assert_eq!(LedgerRecord::parse(&rec.to_json()), Some(rec));
    }

    #[test]
    fn rows_without_provenance_still_parse() {
        // Rows written before `rev`/`cores`/`unix_ts` existed; a metric
        // named like a row field must not be read as one.
        let line = "{\"type\":\"ledger\",\"schema\":1,\"bin\":\"b\",\"baseline\":true,\
                    \"metrics\":{\"s.cores\":1,\"cores\":4}}";
        let row = LedgerRecord::parse(line).unwrap();
        assert_eq!(
            (row.rev.as_deref(), row.cores, row.unix_ts),
            (None, None, None)
        );
        assert_eq!(row.metric("cores"), Some(4.0));
    }

    #[test]
    fn fresh_rows_are_stamped_and_never_baselines() {
        let row = LedgerRecord::fresh("b", vec![("r.ratio".into(), 1.0)]);
        assert!(!row.baseline);
        assert!(row.rev.as_deref().is_some_and(|r| !r.is_empty()));
        assert!(row.cores.is_some_and(|c| c >= 1));
        assert!(row.unix_ts.is_some_and(|ts| ts > 1_600_000_000));
        assert_ne!(DEFAULT_LEDGER_PATH, BASELINE_LEDGER_PATH);
    }

    #[test]
    fn metrics_flatten_result_records() {
        let records = vec![
            Record::Run {
                bin: "b".into(),
                schema: 1,
            },
            Record::Result {
                name: "speedup".into(),
                fields: fields![threads = 4u64, ratio = 2.5, ok = true, label = "x"],
            },
        ];
        let metrics = metrics_from_records(&records);
        assert_eq!(
            metrics,
            vec![
                ("speedup.threads".into(), 4.0),
                ("speedup.ratio".into(), 2.5),
                ("speedup.ok".into(), 1.0),
            ]
        );
    }

    #[test]
    fn directions_follow_suffix_convention() {
        assert_eq!(metric_direction("abl12.speedup"), Direction::HigherBetter);
        assert_eq!(metric_direction("x.utilization"), Direction::HigherBetter);
        assert_eq!(metric_direction("x.overhead_pct"), Direction::LowerBetter);
        assert_eq!(metric_direction("x.wall_secs"), Direction::LowerBetter);
        assert_eq!(metric_direction("x.points"), Direction::Ungated);
    }

    #[test]
    fn gate_flags_real_regressions_only() {
        let base = LedgerRecord {
            bin: "b".into(),
            rev: None,
            cores: None,
            unix_ts: None,
            baseline: true,
            metrics: vec![
                ("s.speedup".into(), 3.0),
                ("s.overhead_pct".into(), 2.0),
                ("s.wall_secs".into(), 10.0),
                ("s.points".into(), 8.0),
            ],
        };
        let mut cur = base.clone();
        cur.baseline = false;
        let policy = GatePolicy::default();
        let cmp = compare_records(&base, &cur, &policy);
        assert!(cmp.iter().all(|c| c.verdict != Verdict::Regressed));

        cur.metrics[0].1 = 1.0; // speedup 3.0 -> 1.0: -67%
        let cmp = compare_records(&base, &cur, &policy);
        assert_eq!(
            cmp.iter()
                .filter(|c| c.verdict == Verdict::Regressed)
                .map(|c| c.metric.as_str())
                .collect::<Vec<_>>(),
            vec!["s.speedup"]
        );
        // Overhead percentages move in absolute points: +2.5 points is
        // fine (even though it is +125 % relative), +6 points is not.
        cur.metrics[0].1 = 3.0;
        cur.metrics[1].1 = 4.5;
        let cmp = compare_records(&base, &cur, &policy);
        assert!(cmp.iter().all(|c| c.verdict != Verdict::Regressed));
        cur.metrics[1].1 = 8.5;
        let cmp = compare_records(&base, &cur, &policy);
        assert!(cmp
            .iter()
            .any(|c| c.metric == "s.overhead_pct" && c.verdict == Verdict::Regressed));

        // wall_secs is not gated by default even when it explodes.
        cur.metrics[1].1 = 2.0;
        cur.metrics[2].1 = 100.0;
        let cmp = compare_records(&base, &cur, &policy);
        assert!(cmp.iter().all(|c| c.verdict != Verdict::Regressed));
        let strict = GatePolicy {
            gate_secs: true,
            ..policy
        };
        let cmp = compare_records(&base, &cur, &strict);
        assert!(cmp
            .iter()
            .any(|c| c.metric == "s.wall_secs" && c.verdict == Verdict::Regressed));
    }

    #[test]
    fn core_count_mismatch_skips_bin() {
        let base = LedgerRecord {
            bin: "b".into(),
            rev: None,
            cores: None,
            unix_ts: None,
            baseline: true,
            metrics: vec![("s.speedup".into(), 3.0), ("s.cores".into(), 16.0)],
        };
        let mut cur = base.clone();
        cur.metrics[0].1 = 1.0;
        cur.metrics[1].1 = 2.0;
        let cmp = compare_records(&base, &cur, &GatePolicy::default());
        assert!(cmp.iter().all(|c| c.verdict == Verdict::Skipped));
        // The rows' own core counts win over the metric.
        let (mut base, mut cur) = (base, cur);
        base.cores = Some(2);
        cur.cores = Some(2);
        let cmp = compare_records(&base, &cur, &GatePolicy::default());
        assert!(cmp.iter().any(|c| c.verdict == Verdict::Regressed));
    }

    #[test]
    fn ledger_append_and_parse() {
        let dir = std::env::temp_dir().join("pllbist_ledger_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        let _ = std::fs::remove_file(&path);
        for baseline in [true, false] {
            append_record(
                &path,
                &LedgerRecord {
                    baseline,
                    ..LedgerRecord::fresh("demo", vec![("r.ratio".into(), 1.0)])
                },
            )
            .unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let rows = parse_ledger(&text);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].baseline);
        assert!(!rows[1].baseline);
        std::fs::remove_file(&path).unwrap();
    }
}
