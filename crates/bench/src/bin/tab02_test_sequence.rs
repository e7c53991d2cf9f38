//! Regenerates **Table 2**: the five-stage test sequence with its M1/M2
//! multiplexer states, printed as executed by the monitor on a two-tone
//! sweep — every row carries the actual simulation time at which the
//! sequencer entered the stage, on the one clock of a continuous device
//! walk.

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist::sequencer::Stage;
use pllbist_sim::config::PllConfig;
use pllbist_sim::CpPll;
use pllbist_telemetry::{fields, RunReport};

fn main() {
    let mut report = RunReport::from_args("tab02_test_sequence");
    println!("Table 2 — basic test sequence (as executed)\n");
    // The static table first.
    println!(" stage | mux M1/M2 | comment");
    println!(" ------+-----------+---------------------------------------------------------");
    for stage in [
        Stage::ApplyModulation,
        Stage::MonitorPeak,
        Stage::HoldOutput,
        Stage::Measure,
        Stage::NextTone,
    ] {
        println!(
            " ({})   | {:<9} | {}",
            stage.number(),
            stage.mux().to_string(),
            stage.comment()
        );
    }

    // Now the executed transcript on the paper PLL for two tones.
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![2.0, 8.0],
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        // This bin's whole point is the transcript — keep recording on
        // even though fast() now defaults it off.
        capture_transcript: true,
        ..MonitorSettings::fast()
    };
    // The as-executed transcript is the deliverable, so one engine walks
    // both tones in order and every row reads the same clock.
    let mut pll = CpPll::new_locked(&cfg);
    let result =
        TransferFunctionMonitor::new(settings).measure_device(&mut pll, &report.telemetry_config());
    report.extend(result.telemetry.clone());

    println!("\nexecuted transcript (2-tone sweep):\n");
    println!(" t (s)    | tone | stage");
    println!(" ---------+------+--------------------------------------");
    for tr in &result.transcript {
        println!(
            " {:>8.4} | {:>4} | ({}) {:?} [{}]",
            tr.t,
            tr.tone_index + 1,
            tr.stage.number(),
            tr.stage,
            tr.stage.mux()
        );
        report.result(
            "transition",
            fields![
                t_secs = tr.t,
                tone = tr.tone_index + 1,
                stage = tr.stage.number() as u64,
                mux = tr.stage.mux().to_string()
            ],
        );
    }
    println!(
        "\n{} transitions; every tone passes through stages 1–5 exactly once.",
        result.transcript.len()
    );
    report.finish().expect("write --jsonl output");
}
