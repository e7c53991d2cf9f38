//! Zero-dependency observability for the pllbist workspace.
//!
//! The paper's whole argument is *measurement you can trust from the
//! outside*: every Table 2 stage (settle, peak capture, hold, count) is
//! observable at the pins. This crate gives the simulator the same
//! property — every sweep stage, solver hot path and worker thread emits
//! structured records a machine can read back — while preserving the
//! workspace's hermetic-build invariant (plain `std`, no serde, no
//! tracing crates; `cargo build --offline` keeps working).
//!
//! Three record families, one [`Collector`]:
//!
//! * **spans** ([`span!`]) — nestable, monotonic-clock timed scopes with
//!   static-key/typed-value fields. The collector is `Sync`, so sweep
//!   workers on `std::thread::scope` threads report into one place; each
//!   record carries its thread label and per-thread nesting depth.
//! * **metrics** — named [counters](Collector::add),
//!   [gauges](Collector::gauge) and fixed-bucket log-scale
//!   [histograms](Collector::observe) with p50/p90/p99 readout, for hot-path event
//!   counts (solver steps, PFD glitches, MFREQ strobes, …).
//! * **results** — the headline numbers a bench binary produces, so a
//!   run is machine-checkable without scraping its stdout tables.
//!
//! Every record serialises to one JSON line (hand-rolled writer
//! [`to_jsonl`], schema documented on [`Record`]). A disabled collector ([`Collector::disabled`])
//! reduces every operation to an `Option` check on an `Arc` — no clock
//! reads, no allocation, no locks — which is what makes the
//! `enabled = false` default free enough to thread through the hot
//! sweep paths (ablation `abl09_telemetry_overhead` bounds the enabled
//! cost too).
//!
//! # Example
//!
//! ```
//! use pllbist_telemetry::{span, Collector, Record};
//!
//! let tel = Collector::enabled();
//! {
//!     let _sweep = span!(tel, "sweep.point", f_mod_hz = 8.0);
//!     tel.add("solver.steps", 1234);
//!     tel.observe("tone_wall_secs", 0.021);
//! }
//! let records = tel.drain();
//! assert!(records.iter().any(|r| matches!(r, Record::Span { name, .. } if name == "sweep.point")));
//! let jsonl = pllbist_telemetry::to_jsonl(&records);
//! assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
//! ```

pub mod collector;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod progress;
pub mod record;
pub mod recorder;
pub mod report;

pub use collector::{Collector, SpanBuilder, SpanGuard};
pub use hist::Histogram;
pub use json::{json_bool_field, json_f64_field, json_str_field, json_u64_field};
pub use ledger::{LedgerRecord, LEDGER_SCHEMA};
pub use progress::{CampaignProgress, ProgressBoard, WorkerProgress};
pub use record::{to_jsonl, Fields, Record, Value, SCHEMA_VERSION};
pub use recorder::{parse_dump, FlightEvent, FlightEventKind, FlightRecorder};
pub use report::RunReport;

/// The observability switch: `CampaignPlan::telemetry` in `pllbist-sim`
/// and the telemetry argument of `TransferFunctionMonitor::measure_device`
/// in `pllbist` take one.
///
/// Plain data (no handles); [`Collector::from_config`] turns it into a
/// collector. The caller drains the records and decides where they go
/// (a bench binary hands them to its [`RunReport`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Master switch: `false` compiles the instrumentation down to a
    /// no-op collector (near-zero overhead).
    pub enabled: bool,
}

impl TelemetryConfig {
    /// Telemetry off (the default for library settings constructors).
    pub fn disabled() -> Self {
        Self { enabled: false }
    }

    /// Telemetry on, records kept in memory for the caller to drain.
    pub fn enabled() -> Self {
        Self { enabled: true }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_off() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg, TelemetryConfig::disabled());
        assert!(TelemetryConfig::enabled().enabled);
    }
}
