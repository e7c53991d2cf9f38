//! **Ablation abl07** (extension) — BIST accuracy vs reference edge
//! jitter: how noisy may the device be before the transfer-function
//! measurement stops being trustworthy? Sweeps the injected RMS edge
//! jitter and reports the error of the in-band and resonance points
//! against the noiseless run.
//!
//! `--jsonl <path>` writes the run report; `--progress` renders an
//! in-place status line over the jitter points.

use std::sync::Arc;
use std::time::Instant;

use pllbist::monitor::{MonitorSettings, TransferFunctionMonitor};
use pllbist_bench::progress::{ProgressLine, ProgressSource};
use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::noise::NoiseConfig;
use pllbist_telemetry::{fields, ProgressBoard, RunReport};

fn main() {
    let mut report = RunReport::from_args("abl07_jitter_tolerance");
    let cfg = PllConfig::paper_table3();
    let settings = MonitorSettings {
        mod_frequencies_hz: vec![1.0, 6.3, 25.0],
        settle_periods: 3.0,
        loop_settle_secs: 0.3,
        ..MonitorSettings::fast()
    };
    let monitor = TransferFunctionMonitor::new(settings);
    println!("abl07 — BIST accuracy vs RMS edge jitter (1 ms reference period)\n");

    let jitters = [0.0, 1e-6, 5e-6, 20e-6, 50e-6, 100e-6];
    // Coarse `--progress` feed: the clean sweep plus one tick per jitter
    // level.
    let board = Arc::new(ProgressBoard::new(1 + jitters.len(), 1, &[]));
    let progress_board = Arc::clone(&board);
    let progress = ProgressLine::if_requested(
        "abl07",
        Arc::new(move || progress_board.snapshot()) as ProgressSource,
    );

    let telemetry_cfg = report.telemetry_config();
    // The clean baseline walks the same device path as the noisy runs
    // below, so the zero-jitter row reads exactly 0 dB.
    let t0 = Instant::now();
    let clean = monitor.measure_device(&mut CpPll::new_locked(&cfg), &telemetry_cfg);
    board.point_done(0, true, t0.elapsed().as_secs_f64());
    report.extend(clean.telemetry.clone());
    let clean_rel: Vec<f64> = clean
        .points
        .iter()
        .map(|p| p.delta_f_hz.abs() / clean.points[0].delta_f_hz.abs())
        .collect();

    println!(" jitter RMS | peak A_F err (dB) | rolloff A_F err (dB) | phase@peak err (°)");
    println!(" -----------+-------------------+----------------------+-------------------");
    for rms in jitters {
        // A noisy device cannot be re-settled from config (the noise
        // state lives on the engine), so it walks the monitor's serial
        // device path on a caller-prepared engine.
        let mut pll = CpPll::new_locked(&cfg);
        if rms > 0.0 {
            pll.set_noise(Some(NoiseConfig::symmetric(rms, 2_026)));
        }
        let t0 = Instant::now();
        let noisy = monitor.measure_device(&mut pll, &telemetry_cfg);
        board.point_done(0, true, t0.elapsed().as_secs_f64());
        report.extend(noisy.telemetry.clone());
        let rel: Vec<f64> = noisy
            .points
            .iter()
            .map(|p| p.delta_f_hz.abs() / noisy.points[0].delta_f_hz.abs())
            .collect();
        let err_db = |i: usize| 20.0 * (rel[i] / clean_rel[i]).log10();
        let phase_err = noisy.points[1].phase.phase_degrees - clean.points[1].phase.phase_degrees;
        println!(
            " {:>7.1} µs | {:>17.2} | {:>20.2} | {:>17.1}",
            rms * 1e6,
            err_db(1),
            err_db(2),
            phase_err
        );
        report.result(
            "jitter_point",
            fields![
                jitter_rms_us = rms * 1e6,
                peak_err_db = err_db(1),
                rolloff_err_db = err_db(2),
                phase_err_deg = phase_err
            ],
        );
    }
    drop(progress);
    println!(
        "\nshape check: negligible error at 1 µs RMS (0.1 % period jitter), a few dB\n\
         through 5-50 µs as the peak-capture instant wanders, and collapse of the\n\
         deeply-attenuated out-of-band points at 100 µs (10 %) where jitter-induced\n\
         frequency noise dwarfs the residual modulation. The magnitude path (hold +\n\
         reciprocal counter) outlives the phase path, whose MFREQ strobe rides on\n\
         individual edges."
    );
    report.finish().expect("write --jsonl output");
}
