//! `pllbist_serve` — the crash-only campaign service as a process.
//!
//! ```text
//! pllbist_serve [--root DIR] [--bind ADDR]
//! ```
//!
//! Prints one JSON line with the bound address, then serves until stdin
//! closes or a `drain` line arrives (graceful path). The crash-only
//! stop is `kill -9`: on the next start the service rescans `--root`
//! and resumes every interrupted campaign byte-identically.
//!
//! Stderr carries only panics the service does not contain, each with
//! its report (and its backtrace under `RUST_BACKTRACE`). Injected
//! crashes and quarantined points are recorded in the job's journal and
//! results file instead.

use std::io::BufRead;

use pllbist_sim::error::quiet_contained_panics;
use pllbist_sim::service::{CampaignService, ServiceConfig};

fn main() {
    quiet_contained_panics();
    let mut config = ServiceConfig::rooted("campaign-service");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(root) => config.root = root.into(),
                None => return usage("--root needs a directory"),
            },
            "--bind" => match args.next() {
                Some(bind) => config.bind = bind,
                None => return usage("--bind needs an address"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let root = config.root.display().to_string();
    let service = match CampaignService::start(config) {
        Ok(service) => service,
        Err(error) => {
            eprintln!("pllbist_serve: start failed: {error}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"type\":\"serve\",\"addr\":\"{}\",\"root\":\"{}\"}}",
        service.addr(),
        root
    );
    // Block on stdin: EOF or an explicit `drain` line starts the
    // graceful drain; anything else is ignored. `pllbist_serve
    // </dev/null` therefore processes the rescanned backlog and exits.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(line) if line.trim() == "drain" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    service.shutdown();
}

fn usage(reason: &str) {
    eprintln!("pllbist_serve: {reason}");
    eprintln!("usage: pllbist_serve [--root DIR] [--bind ADDR]");
    std::process::exit(2);
}
