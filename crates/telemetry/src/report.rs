//! Machine-readable run reporting for bench binaries.
//!
//! Every `crates/bench` binary prints its human tables to stdout exactly
//! as before; a [`RunReport`] additionally gathers [`Record`]s and, when
//! the user passed `--jsonl <path>`, writes them as JSON lines with a
//! `run` header so downstream tooling can parse results without
//! scraping stdout.

use std::io::Write as _;

use crate::record::{to_jsonl, Fields, Record, SCHEMA_VERSION};
use crate::{Collector, TelemetryConfig};

/// Accumulates a bench run's records and writes them to the `--jsonl`
/// path on [`finish`](Self::finish).
pub struct RunReport {
    bin: &'static str,
    jsonl_path: Option<String>,
    ledger_path: Option<std::path::PathBuf>,
    records: Vec<Record>,
}

impl RunReport {
    /// Creates a report for `bin`, reading `--jsonl <path>` from the
    /// process arguments (all other arguments are ignored, so binaries
    /// with their own flags keep working). A `--jsonl` run also appends
    /// a compact row to the bench regression ledger (see
    /// [`crate::ledger`]) when a ledger path resolves.
    pub fn from_args(bin: &'static str) -> Self {
        let mut report = Self::new(bin, jsonl_path_from(std::env::args().skip(1)));
        if report.wants_jsonl() {
            report.ledger_path = crate::ledger::default_ledger_path();
        }
        report
    }

    /// Creates a report with an explicit JSONL destination (`None` =
    /// records are gathered but only written if a path is set later
    /// logic-free; useful in tests). No ledger append unless
    /// [`set_ledger`](Self::set_ledger) is called.
    pub fn new(bin: &'static str, jsonl_path: Option<String>) -> Self {
        Self {
            bin,
            jsonl_path,
            ledger_path: None,
            records: Vec::new(),
        }
    }

    /// Points this report's ledger append at an explicit path (tests,
    /// custom harnesses). `None` disables the append.
    pub fn set_ledger(&mut self, path: Option<std::path::PathBuf>) {
        self.ledger_path = path;
    }

    /// Telemetry switch for the run's plans: on iff the run wants JSONL
    /// output (the drained records come back through
    /// [`absorb`](Self::absorb) or [`extend`](Self::extend)).
    pub fn telemetry_config(&self) -> TelemetryConfig {
        TelemetryConfig {
            enabled: self.wants_jsonl(),
        }
    }

    /// Whether `--jsonl` was requested.
    pub fn wants_jsonl(&self) -> bool {
        self.jsonl_path.is_some()
    }

    /// Appends a headline result record.
    pub fn result(&mut self, name: &str, fields: Fields) {
        self.records.push(Record::Result {
            name: name.to_string(),
            fields,
        });
    }

    /// Appends pre-built records (e.g. a sweep's drained telemetry).
    pub fn extend(&mut self, records: Vec<Record>) {
        self.records.extend(records);
    }

    /// Drains a collector into this report.
    pub fn absorb(&mut self, collector: &Collector) {
        self.records.extend(collector.drain());
    }

    /// Writes the `run` header plus all records to the JSONL path (if
    /// any), then appends this run's flattened result metrics to the
    /// bench ledger (if a ledger path is set and any metrics exist).
    /// Without `--jsonl` this is a no-op success.
    pub fn finish(self) -> std::io::Result<()> {
        let Some(path) = &self.jsonl_path else {
            return Ok(());
        };
        let header = Record::Run {
            bin: self.bin.to_string(),
            schema: SCHEMA_VERSION,
        };
        let mut out = to_jsonl(&[header]);
        out.push_str(&to_jsonl(&self.records));
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()?;
        if let Some(ledger) = &self.ledger_path {
            let metrics = crate::ledger::metrics_from_records(&self.records);
            if !metrics.is_empty() {
                crate::ledger::append_record(
                    ledger,
                    &crate::ledger::LedgerRecord::fresh(self.bin, metrics),
                )?;
            }
        }
        Ok(())
    }
}

fn jsonl_path_from(args: impl Iterator<Item = String>) -> Option<String> {
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        if arg == "--jsonl" {
            return args.next();
        }
        if let Some(path) = arg.strip_prefix("--jsonl=") {
            return Some(path.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields;

    #[test]
    fn jsonl_flag_parses_both_forms() {
        let argv = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            jsonl_path_from(argv(&["--threads", "4", "--jsonl", "/tmp/x.jsonl"]).into_iter()),
            Some("/tmp/x.jsonl".to_string())
        );
        assert_eq!(
            jsonl_path_from(argv(&["--jsonl=/tmp/y.jsonl"]).into_iter()),
            Some("/tmp/y.jsonl".to_string())
        );
        assert_eq!(jsonl_path_from(argv(&["--threads", "4"]).into_iter()), None);
        assert_eq!(jsonl_path_from(argv(&["--jsonl"]).into_iter()), None);
    }

    #[test]
    fn finish_writes_header_then_records() {
        let dir = std::env::temp_dir().join("pllbist_telemetry_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let mut report = RunReport::new("demo_bin", Some(path.to_string_lossy().into_owned()));
        assert!(report.wants_jsonl());
        assert!(report.telemetry_config().enabled);
        report.result("gain_db", fields![f_mod_hz = 8.0, value = -3.1]);
        let tel = Collector::enabled();
        tel.add("sim.steps", 42);
        report.absorb(&tel);
        report.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"run\",\"bin\":\"demo_bin\",\"schema\":1}"
        );
        assert!(lines[1].starts_with("{\"type\":\"result\",\"name\":\"gain_db\""));
        assert!(lines[2].contains("\"sim.steps\""));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn without_jsonl_finish_is_noop() {
        let mut report = RunReport::new("demo_bin", None);
        assert!(!report.wants_jsonl());
        assert!(!report.telemetry_config().enabled);
        report.result("x", fields![]);
        report.finish().unwrap();
    }
}
