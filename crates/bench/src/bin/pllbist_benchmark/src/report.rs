//! The metric catalogue, the result line and the notes printed before it.
//!
//! `BENCHMARK.json` lists the same names and units; a test keeps the
//! two in step.

use std::collections::BTreeMap;

use crate::stats::{median, Percentile};

/// One metric: name and unit. Which direction is better is stated in
/// `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Untraced metrics a user of the service sees.
pub const END_TO_END: [Spec; 6] = [
    spec("points_per_s", "points/s"),
    spec("latency_p50_ms", "ms"),
    spec("latency_p90_ms", "ms"),
    spec("setup_s", "s"),
    spec("ok_frac", "fraction"),
    spec("peak_rss_mb", "MB"),
];

/// Traced metrics of single layers. A layer the workload does not
/// exercise reads 0.
pub const PER_LAYER: [Spec; 42] = [
    spec("service.submit_ms_p50", "ms"),
    spec("service.poll_ms_p50", "ms"),
    spec("service.journal_appends_per_job", "appends/job"),
    spec("service.attempts_per_job", "attempts/job"),
    spec("service.residual_ms_p50", "ms"),
    spec("plan.parse_us_p50", "us"),
    spec("runner.busy_frac", "fraction"),
    spec("runner.overhead_us_per_point", "us/point"),
    spec("engine.events_per_s", "events/s"),
    spec("engine.events", "count"),
    spec("engine.steps", "count"),
    spec("engine.step_rejections", "count"),
    spec("engine.settle_ms_p50", "ms"),
    spec("engine.restore_us_p50", "us"),
    spec("supervisor.retries", "count"),
    spec("supervisor.quarantined", "count"),
    spec("supervisor.useful_frac", "fraction"),
    spec("supervisor.guard_overhead_pct", "%"),
    spec("campaign.record_us_p50", "us"),
    spec("campaign.record_us_p99", "us"),
    spec("campaign.open_ms_p50", "ms"),
    spec("campaign.reopen_ms_p50", "ms"),
    spec("sidecar.store_us_p50", "us"),
    spec("sidecar.load_us_p50", "us"),
    spec("observe.finish_ms_p50", "ms"),
    spec("monitor.event_driven.device_ms_p50", "ms"),
    spec("monitor.cp_pll.device_ms_p50", "ms"),
    spec("monitor.tones_per_s", "tones/s"),
    spec("monitor.estimate_us_p50", "us"),
    spec("monitor.fn_err_pct", "%"),
    spec("monitor.zeta_err_pct", "%"),
    spec("waterfall.latency_ms", "ms"),
    spec("waterfall.plan_ms", "ms"),
    spec("waterfall.campaign_ms", "ms"),
    spec("waterfall.sidecar_ms", "ms"),
    spec("waterfall.observe_ms", "ms"),
    spec("waterfall.engine_ms", "ms"),
    spec("waterfall.runner_ms", "ms"),
    spec("waterfall.monitor_ms", "ms"),
    spec("waterfall.residual_ms", "ms"),
    spec("trace_overhead_pct", "%"),
    spec("host.parallel_speedup", "x"),
];

/// The waterfall layers, in the order they are reported; they sum to
/// `waterfall.latency_ms`.
pub const WATERFALL: [&str; 8] = [
    "waterfall.plan_ms",
    "waterfall.campaign_ms",
    "waterfall.sidecar_ms",
    "waterfall.observe_ms",
    "waterfall.engine_ms",
    "waterfall.runner_ms",
    "waterfall.monitor_ms",
    "waterfall.residual_ms",
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A JSON number: finite values with every digit, anything else as 0
/// (a layer with nothing to divide by).
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The last line of a run: `correct`, `attempted`, `failed` and every
/// metric of `specs`, each with its unit. A metric missing from `values`
/// reads 0.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    specs: &[Spec],
    values: &Values,
) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .map(|spec| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                spec.name,
                number(values.get(spec.name).copied().unwrap_or(0.0)),
                spec.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

/// The `{"type":"tail",…}` note: the deepest latency percentile with at
/// least ten samples beyond it.
pub fn tail_note(tail: &Percentile) -> String {
    format!(
        "{{\"type\":\"tail\",\"pct\":{},\"latency_ms\":{},\"samples\":{}}}",
        tail.pct,
        number(tail.value),
        tail.samples
    )
}

/// The `{"type":"waterfall",…}` note: the layers, their sum, and the
/// check of the replay against the service. `checked` pairs replayed
/// with served milliseconds for each sampled operation whose served time
/// is known well enough; the check passes when their median ratio is
/// within 10 % (or nothing could be checked).
pub fn waterfall_note(layers: &Values, sampled: usize, checked: &[(f64, f64)]) -> String {
    let value = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let parts: Vec<String> = WATERFALL
        .iter()
        .map(|name| format!("\"{name}\":{}", number(value(name))))
        .collect();
    let sum: f64 = WATERFALL.iter().map(|name| value(name)).sum();
    let ratios: Vec<f64> = checked
        .iter()
        .map(|(replayed, served)| replayed / served)
        .collect();
    let within = ratios.iter().filter(|&&r| (r - 1.0).abs() <= 0.1).count();
    let median = median(&ratios);
    let ok = ratios.is_empty() || (median - 1.0).abs() <= 0.1;
    format!(
        "{{\"type\":\"waterfall\",{},\"sum_ms\":{},\"waterfall.latency_ms\":{},\"sampled\":{sampled},\
         \"checked\":{},\"within_10pct\":{within},\"median_ratio\":{},\"ok\":{ok}}}",
        parts.join(","),
        number(sum),
        number(value("waterfall.latency_ms")),
        checked.len(),
        number(median),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` with all whitespace dropped (names and units
    /// have none), so the compact-JSON field reader applies.
    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect()
    }

    /// The `{"name": …, "unit": …}` pairs of one list.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let list = &json[start..json[start..].find(']').map_or(json.len(), |e| start + e)];
        list.split('{')
            .skip(1)
            .map(|object| {
                let field = |name: &str| {
                    pllbist_telemetry::json::json_str_field(&format!("{{{object}"), name)
                        .unwrap_or_default()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn as_listed(specs: &[Spec]) -> Vec<(String, String)> {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.unit.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        assert_eq!(listed(&json, "end_to_end"), as_listed(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), as_listed(&PER_LAYER));
        let names: BTreeSet<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|s| s.name)
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(WATERFALL.iter().all(|w| names.contains(w)));
    }

    #[test]
    fn result_line_carries_every_metric_with_its_unit() {
        let mut values = Values::new();
        values.insert("points_per_s", 1234.5678);
        values.insert("setup_s", f64::NAN);
        let line = result_line(true, 3, 0, &END_TO_END, &values);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"points_per_s\":{\"value\":1234.5678,\"unit\":\"points/s\"}"));
        assert!(line.contains("\"setup_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert_eq!(line.matches("\"unit\"").count(), END_TO_END.len());
    }
}
