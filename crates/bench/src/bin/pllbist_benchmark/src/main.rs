//! `pllbist_benchmark` — the repository benchmark: four campaign
//! workloads through `pllbist_serve` and the Table 2 monitor.
//!
//! ```text
//! pllbist_benchmark --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--root <dir>]
//! ```
//!
//! Untraced (`--trace 0`) it prints the end-to-end metrics; traced it
//! runs the workload again with spans and prints the per-layer metrics.
//! The last line of standard output is the result object; the lines
//! before it carry the run context and notes. See `README.md`.

mod bist;
mod client;
mod host;
mod replay;
mod report;
mod spans;
mod stats;
mod svc;
mod traffic;

use std::path::{Path, PathBuf};

use crate::client::Launcher;
use crate::report::{result_line, Values, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::traffic::{Traffic, Workload};

const USAGE: &str =
    "usage: pllbist_benchmark --workload <svc_sweep|svc_burst|svc_recover|bist_table2> \
--seed <n> [--seconds <s>] [--trace 0|1] [--root <dir>]";

/// Where runs keep their job roots (removed at exit) and span files.
const OUT_DIR: &str = ".pllbist-bench";

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations started in the untraced timed phase.
    pub attempted: usize,
    /// Of those, operations that failed or were refused.
    pub failed: usize,
    /// Correctness failures; any makes the run incorrect.
    pub problems: Vec<String>,
    /// End-to-end metric values.
    pub end_to_end: Values,
    /// Per-layer metric values (traced runs).
    pub per_layer: Values,
    /// JSON lines printed before the result.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<SpanLog>,
}

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut root) =
        (None, None, 20.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--root" => root = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        root,
    })
}

/// The `pllbist_serve` built beside this executable.
fn serve_executable() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let serve = exe.with_file_name("pllbist_serve");
    if serve.is_file() {
        Ok(serve)
    } else {
        Err(format!(
            "{} not found: build it with `cargo build --release -p pllbist-sim --bin pllbist_serve` \
             into the same target directory",
            serve.display()
        ))
    }
}

/// Injected worker panics are the `svc_recover` fault plan at work in
/// the replays; keep them off stderr and let every other panic through.
fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected worker panic"));
        if !injected {
            default(info);
        }
    }));
}

fn run_workload(args: &Args, root: &Path) -> Result<Outcome, String> {
    let traffic = Traffic::new(args.workload, args.seed);
    match args.workload {
        Workload::BistTable2 => Ok(bist::run(&traffic, args.seconds, args.trace)),
        _ => svc::run(
            &traffic,
            args.seconds,
            args.trace,
            root,
            &Launcher::Process(serve_executable()?),
        ),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pllbist_benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    silence_injected_panics();
    let out_dir = Path::new(OUT_DIR);
    let root = args
        .root
        .clone()
        .unwrap_or_else(|| out_dir.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("pllbist_benchmark: create {}: {e}", root.display());
        std::process::exit(2);
    }
    let context = host::Context::capture(&root);
    let outcome = run_workload(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("pllbist_benchmark: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "{{\"type\":\"context\",\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        context.json_members()
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write_jsonl(&path) {
            Ok(()) => println!(
                "{{\"type\":\"spans\",\"path\":\"{}\",\"spans\":{}}}",
                path.display(),
                spans.spans().len()
            ),
            Err(e) => outcome
                .problems
                .push(format!("write {}: {e}", path.display())),
        }
    }
    for problem in &outcome.problems {
        eprintln!("pllbist_benchmark: {problem}");
    }
    let correct = outcome.problems.is_empty();
    let (specs, values) = if args.trace {
        outcome
            .per_layer
            .insert("host.parallel_speedup", context.parallel_speedup());
        (&PER_LAYER[..], &outcome.per_layer)
    } else {
        (&END_TO_END[..], &outcome.end_to_end)
    };
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, specs, values)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args(&[
            "--workload",
            "svc_burst",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(parsed.workload, Workload::SvcBurst);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 15.0, true));
        assert!(args(&["--workload", "svc_burst"]).is_err());
        assert!(args(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(args(&["--workload", "svc_burst", "--seed", "1", "--trace", "yes"]).is_err());
        assert!(args(&["--workload", "svc_burst", "--seed", "1", "--seconds"]).is_err());
    }

    /// Every workload end to end at two operations, the service started
    /// in process (the only substitution: the launcher).
    #[test]
    fn every_workload_runs_end_to_end_in_process() {
        for workload in Workload::ALL {
            let root = std::env::temp_dir().join(format!(
                "pllbist_benchmark_{}_{}",
                workload.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let traffic = Traffic::new(workload, 11);
            let outcome = match workload {
                Workload::BistTable2 => bist::run(&traffic, 0.0, true),
                _ => {
                    svc::run(&traffic, 0.0, true, &root, &Launcher::InProcess).expect("service run")
                }
            };
            let _ = std::fs::remove_dir_all(&root);
            assert!(
                outcome.problems.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.problems
            );
            assert_eq!(outcome.attempted, 2, "{}", workload.name());
            assert_eq!(outcome.failed, 0);
            for spec in END_TO_END {
                let value = outcome.end_to_end[spec.name];
                assert!(
                    value.is_finite() && value > 0.0,
                    "{} {}",
                    workload.name(),
                    spec.name
                );
            }
            let waterfall: f64 = report::WATERFALL
                .iter()
                .map(|name| outcome.per_layer.get(name).copied().unwrap_or(0.0))
                .sum();
            let latency = outcome.per_layer["waterfall.latency_ms"];
            assert!(latency > 0.0);
            assert!(
                (waterfall - latency).abs() <= 1e-9 * latency,
                "{}",
                workload.name()
            );
            assert!(
                outcome.per_layer["engine.events"] > 0.0,
                "{}",
                workload.name()
            );
            assert!(!outcome.spans.expect("traced").spans().is_empty());
        }
    }
}
