//! **ab_compare** — paired A/B ratios of the repository benchmark's
//! end-to-end metrics.
//!
//! ```text
//! ab_compare <BENCHMARK.json> <a.jsonl> <b.jsonl>
//! ```
//!
//! Line `i` of each results file is pair `i`'s result line (the last
//! line the benchmark prints) for revision A and for revision B, as
//! `scripts/ab.sh` writes them. For every end-to-end metric that
//! `BENCHMARK.json` names, prints the medians of A and of B, the spread
//! of A's own runs (its interquartile range), the median of the paired
//! ratios B/A, its 95 % bootstrap interval, and in how many pairs B was
//! better. The interval resamples the pairs with replacement
//! `RESAMPLES` times from a fixed seed, so the same inputs print the
//! same interval. A pair whose A value is 0 has no ratio and is left out.

use pllbist_numeric::stats::percentile;
use pllbist_telemetry::json::{json_f64_field, json_str_field};
use pllbist_testkit::TestRng;
use std::process::ExitCode;

/// Bootstrap resamples per interval.
const RESAMPLES: usize = 10_000;

/// The bootstrap's fixed seed.
const SEED: u64 = 0xab_c0de;

/// One end-to-end metric of `BENCHMARK.json`.
struct Metric {
    name: String,
    higher_is_better: bool,
}

/// The `end_to_end` entries of a `BENCHMARK.json` text, in order.
fn end_to_end_metrics(benchmark: &str) -> Vec<Metric> {
    let Some(at) = benchmark.find("\"end_to_end\"") else {
        return Vec::new();
    };
    let rest = &benchmark[at..];
    let list = &rest[..rest.find(']').unwrap_or(rest.len())];
    let compact: String = list.chars().filter(|c| !c.is_whitespace()).collect();
    compact
        .split('}')
        .filter_map(|entry| {
            Some(Metric {
                name: json_str_field(entry, "name")?,
                higher_is_better: json_str_field(entry, "better")? == "higher",
            })
        })
        .collect()
}

/// A metric's value in one result line
/// (`"metrics":{"<name>":{"value":…,"unit":…},…}`).
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{");
    json_f64_field(&line[line.find(&key)?..], "value")
}

/// The median of `samples` (0 for none).
fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The 95 % percentile-bootstrap interval of the median of `samples`.
fn bootstrap_median_interval(samples: &[f64], rng: &mut TestRng) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut draw = vec![0.0; samples.len()];
    let medians: Vec<f64> = (0..RESAMPLES)
        .map(|_| {
            for x in draw.iter_mut() {
                *x = samples[rng.usize_range(0, samples.len())];
            }
            median(&draw)
        })
        .collect();
    (
        percentile(&medians, 2.5).unwrap_or(0.0),
        percentile(&medians, 97.5).unwrap_or(0.0),
    )
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run(benchmark: &str, a_path: &str, b_path: &str) -> Result<(), String> {
    let metrics = end_to_end_metrics(&read(benchmark)?);
    if metrics.is_empty() {
        return Err(format!("{benchmark}: no end_to_end metrics"));
    }
    let (a, b) = (read(a_path)?, read(b_path)?);
    let (a, b): (Vec<&str>, Vec<&str>) = (a.lines().collect(), b.lines().collect());
    if a.len() != b.len() || a.is_empty() {
        return Err(format!(
            "{} runs of A against {} of B: pairs need one line each",
            a.len(),
            b.len()
        ));
    }
    println!(
        "{} pairs; ratio = B/A with the 95 % bootstrap interval of its median; \
         IQR A = A's third quartile minus its first",
        a.len()
    );
    println!(
        "{:<16} {:>12} {:>10} {:>12} {:>8} {:>19} {:>8}",
        "metric", "median A", "IQR A", "median B", "ratio", "interval", "B better"
    );
    let mut rng = TestRng::seed_from_u64(SEED);
    for metric in &metrics {
        let value = |line: &str| {
            metric_value(line, &metric.name)
                .ok_or_else(|| format!("no metric {} in {line:?}", metric.name))
        };
        let pairs = a
            .iter()
            .zip(&b)
            .map(|(la, lb)| Ok((value(la)?, value(lb)?)))
            .collect::<Result<Vec<(f64, f64)>, String>>()?;
        let (va, vb): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
        let ratios: Vec<f64> = pairs
            .iter()
            .filter(|(x, _)| *x != 0.0)
            .map(|(x, y)| y / x)
            .collect();
        let better = pairs
            .iter()
            .filter(|(x, y)| {
                if metric.higher_is_better {
                    y > x
                } else {
                    y < x
                }
            })
            .count();
        let quartile = |p| percentile(&va, p).unwrap_or(0.0);
        let (lo, hi) = bootstrap_median_interval(&ratios, &mut rng);
        println!(
            "{:<16} {:>12.4} {:>10.4} {:>12.4} {:>8.4} {:>19} {:>5}/{}",
            metric.name,
            median(&va),
            quartile(75.0) - quartile(25.0),
            median(&vb),
            median(&ratios),
            format!("[{lo:.4}, {hi:.4}]"),
            better,
            pairs.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [benchmark, a, b] = args.as_slice() else {
        eprintln!("usage: ab_compare <BENCHMARK.json> <a.jsonl> <b.jsonl>");
        return ExitCode::from(2);
    };
    match run(benchmark, a, b) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ab_compare: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_end_to_end_metrics_and_their_direction() {
        let benchmark = r#"{ "workloads": [ { "name": "w" } ],
            "end_to_end": [
                { "name": "points_per_s", "unit": "points/s", "better": "higher", "bound": 0.25 },
                { "name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25 }
            ],
            "per_layer": [ { "name": "x", "better": "lower" } ] }"#;
        let metrics = end_to_end_metrics(benchmark);
        let names: Vec<(&str, bool)> = metrics
            .iter()
            .map(|m| (m.name.as_str(), m.higher_is_better))
            .collect();
        assert_eq!(names, [("points_per_s", true), ("latency_p50_ms", false)]);
    }

    #[test]
    fn reads_a_metric_from_a_result_line() {
        let line = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"points_per_s":{"value":8341.5,"unit":"points/s"},"ok_frac":{"value":1,"unit":"fraction"}}}"#;
        assert_eq!(metric_value(line, "points_per_s"), Some(8341.5));
        assert_eq!(metric_value(line, "ok_frac"), Some(1.0));
        assert_eq!(metric_value(line, "setup_s"), None);
    }

    #[test]
    fn a_constant_ratio_has_a_point_interval() {
        let mut rng = TestRng::seed_from_u64(SEED);
        assert_eq!(bootstrap_median_interval(&[1.2; 9], &mut rng), (1.2, 1.2));
    }

    #[test]
    fn the_interval_covers_no_shift_and_excludes_a_real_one() {
        // Sixteen pairs of log-normal noise (σ 10 %) around a true ratio
        // of 1 and around one of 1.2: the 95 % interval holds the
        // sample median, covers 1.0 for the first and leaves it out for
        // the second, and widens with the noise.
        let mut data = TestRng::seed_from_u64(7);
        let mut sample = |shift: f64, sigma: f64| -> Vec<f64> {
            (0..16)
                .map(|_| shift * (sigma * data.gaussian()).exp())
                .collect()
        };
        let (null, shifted, noisy) = (sample(1.0, 0.1), sample(1.2, 0.1), sample(1.0, 0.3));
        let interval = |s: &[f64]| bootstrap_median_interval(s, &mut TestRng::seed_from_u64(SEED));
        let (lo, hi) = interval(&null);
        assert!(lo < 1.0 && 1.0 < hi, "[{lo}, {hi}]");
        let (lo, hi) = interval(&shifted);
        assert!(
            1.0 < lo && lo <= median(&shifted) && median(&shifted) <= hi,
            "[{lo}, {hi}]"
        );
        let (noisy_lo, noisy_hi) = interval(&noisy);
        assert!(
            noisy_hi - noisy_lo > hi - lo,
            "[{noisy_lo}, {noisy_hi}] vs [{lo}, {hi}]"
        );
        // A fixed seed gives the same interval.
        assert_eq!(interval(&shifted), (lo, hi));
    }
}
