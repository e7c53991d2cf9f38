//! The `bist_table2` workload: the paper's Table 2 measurement run in
//! this process, one device at a time, each on two threads.
//!
//! The monitor cannot be served yet, so there is no service, journal or
//! campaign log on this path; the operation is one
//! `TransferFunctionMonitor::measure` call.

use std::time::Instant;

use pllbist::{MonitorSettings, SupervisedMonitorResult, TransferFunctionMonitor};
use pllbist_sim::{CampaignPlan, EventDrivenCpPll, Scheduler, SupervisorPolicy};
use pllbist_telemetry::{Record, TelemetryConfig};

use crate::spans::SpanLog;
use crate::stats::{
    deepest_tail, pct_or_zero, windowed_percentile, windowed_rate, LATENCY_WINDOW, RATE_WINDOW,
};
use crate::traffic::{Device, Traffic, CHECK_EVERY, SETUPS, THREADS, TRACED_BASE, WARMUP_INDEX};
use crate::Outcome;

/// One measured device.
#[derive(Clone, Debug)]
pub struct DeviceRun {
    /// Position in the workload's device sequence.
    pub index: usize,
    /// Whether the device ran on `cp_pll`.
    pub curved: bool,
    /// Seconds of the `measure` call.
    pub latency: f64,
    /// Seconds from the start of its phase to the end of the call.
    pub end: f64,
    /// Seconds of `SupervisedMonitorResult::estimate`.
    pub estimate_secs: f64,
    /// Tones measured.
    pub tones: usize,
    /// Tones that came back healthy.
    pub ok_tones: usize,
    /// Estimated natural frequency (Hz) and damping, when the fit worked.
    pub estimate: Option<(f64, f64)>,
    /// The eq. 5–6 natural frequency (Hz) and damping of the config.
    pub reference: (f64, f64),
    /// Hash of every tone's bits, to compare a replay against.
    pub fingerprint: u64,
}

impl DeviceRun {
    /// Relative estimate errors in percent `(fn, ζ)`, when there is an
    /// estimate.
    pub fn errors_pct(&self) -> Option<(f64, f64)> {
        let (fn_hz, zeta) = self.estimate?;
        let (fn_ref, zeta_ref) = self.reference;
        Some((
            100.0 * (fn_hz - fn_ref).abs() / fn_ref,
            100.0 * (zeta - zeta_ref).abs() / zeta_ref,
        ))
    }
}

/// The Table 2 monitor of the paper: 15 tones, 10-step FSK, hold and count.
pub fn paper_monitor() -> TransferFunctionMonitor {
    TransferFunctionMonitor::new(MonitorSettings::paper())
}

/// Runs `measure` on `device`: supervised, two work-stealing threads,
/// `event_driven` unless the VCO is curved. `telemetry` switches on the
/// plan's existing telemetry (traced runs only).
pub fn measure(
    monitor: &TransferFunctionMonitor,
    device: &Device,
    telemetry: bool,
) -> SupervisedMonitorResult {
    let plan = CampaignPlan::new(device.config.clone())
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads: THREADS })
        .telemetry(if telemetry {
            TelemetryConfig::enabled()
        } else {
            TelemetryConfig::disabled()
        });
    if device.curved {
        monitor.measure(&plan)
    } else {
        monitor.measure(&plan.engine::<EventDrivenCpPll>())
    }
}

fn fingerprint(result: &SupervisedMonitorResult) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |bits: u64| {
        for byte in bits.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for point in &result.points {
        match point {
            Ok(p) => {
                eat(p.delta_f_hz.to_bits());
                eat(p.phase.phase_degrees.to_bits());
                eat(p.t_output_peak.to_bits());
            }
            Err(e) => e.kind().bytes().for_each(|b| eat(u64::from(b))),
        }
    }
    hash
}

/// Measures `device` once and summarises it.
pub fn run_device(
    monitor: &TransferFunctionMonitor,
    device: &Device,
    telemetry: bool,
) -> DeviceRun {
    let started = Instant::now();
    let result = measure(monitor, device, telemetry);
    let latency = started.elapsed().as_secs_f64();
    summarise(device, &result, latency)
}

fn summarise(device: &Device, result: &SupervisedMonitorResult, latency: f64) -> DeviceRun {
    let started = Instant::now();
    let estimate = result.estimate();
    let estimate_secs = started.elapsed().as_secs_f64();
    let reference = device.config.analysis().dominant_params();
    DeviceRun {
        index: device.index,
        curved: device.curved,
        latency,
        end: 0.0,
        estimate_secs,
        tones: result.points.len(),
        ok_tones: result.ok_count(),
        estimate: estimate
            .ok()
            .and_then(|e| Some((e.natural_frequency_hz?, e.damping?))),
        reference: (reference.natural_frequency_hz(), reference.damping),
        fingerprint: fingerprint(result),
    }
}

/// A closed-loop run of devices: one `measure` at a time.
#[derive(Clone, Debug, Default)]
pub struct DevicePhase {
    /// Every device measured, in order.
    pub devices: Vec<DeviceRun>,
}

impl DevicePhase {
    /// Tones per second: the median over windows of [`RATE_WINDOW`]
    /// consecutive devices, each window holding one `cp_pll` device.
    pub fn tones_per_s(&self) -> f64 {
        let ops: Vec<(f64, f64)> = self
            .devices
            .iter()
            .map(|d| (d.tones as f64, d.end))
            .collect();
        windowed_rate(&ops, 0.0, RATE_WINDOW)
    }
}

/// Measures devices `base, base + 1, …` until `seconds` have passed (at
/// least two). With `spans`, each device gets a `device` span and runs
/// with the plan's telemetry on, as its traced replay will.
pub fn drive(traffic: &Traffic, base: usize, seconds: f64, spans: Option<&SpanLog>) -> DevicePhase {
    let monitor = paper_monitor();
    let start = Instant::now();
    let mut phase = DevicePhase::default();
    while phase.devices.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let device = traffic.device(base + phase.devices.len());
        let t0 = Instant::now();
        let mut run = run_device(&monitor, &device, spans.is_some());
        let t1 = Instant::now();
        if let Some(log) = spans {
            log.record("device", None, Some(device.index), t0, t1);
        }
        run.end = (t1 - start).as_secs_f64();
        phase.devices.push(run);
    }
    phase
}

/// Accuracy is taken over this many leading devices, so that it is a
/// pure function of the seed however far a run gets.
const ACCURACY_DEVICES: usize = 256;
/// Median estimate errors past these fail the correctness gate. The
/// hold-and-count readout is biased against the eq. 5–6 values on
/// purpose (the hold removes the filter zero), so these are loose.
const FN_TOLERANCE_PCT: f64 = 15.0;
const ZETA_TOLERANCE_PCT: f64 = 30.0;

/// Median `(fn, ζ)` error in percent over the first
/// [`ACCURACY_DEVICES`] devices that produced an estimate.
fn accuracy(devices: &[DeviceRun]) -> (f64, f64) {
    let errors: Vec<(f64, f64)> = devices
        .iter()
        .filter_map(DeviceRun::errors_pct)
        .take(ACCURACY_DEVICES)
        .collect();
    let fn_err: Vec<f64> = errors.iter().map(|e| e.0).collect();
    let zeta_err: Vec<f64> = errors.iter().map(|e| e.1).collect();
    (
        crate::stats::median(&fn_err),
        crate::stats::median(&zeta_err),
    )
}

/// Runs `bist_table2` for `seconds` (then, when `trace`, once more
/// traced) and checks the results.
pub fn run(traffic: &Traffic, seconds: f64, trace: bool) -> Outcome {
    let setups: Vec<f64> = (0..SETUPS)
        .map(|k| {
            let started = Instant::now();
            // Warm-up devices sit below the timed ranges and are straight
            // (event-driven) ones: the index is a multiple of eight.
            run_device(
                &paper_monitor(),
                &traffic.device(WARMUP_INDEX - 8 * k),
                false,
            );
            started.elapsed().as_secs_f64()
        })
        .collect();
    let phase = drive(traffic, 0, seconds, None);
    let peak_rss_mb = crate::host::peak_rss_mb(None).unwrap_or(0.0);
    let devices = &phase.devices;
    let mut outcome = Outcome {
        attempted: devices.len(),
        failed: devices.iter().filter(|d| d.estimate.is_none()).count(),
        ..Outcome::default()
    };

    // Correctness gate, after the timed region.
    let monitor = paper_monitor();
    for run in devices.iter().filter(|d| d.index % CHECK_EVERY == 0) {
        let again = run_device(&monitor, &traffic.device(run.index), false);
        if again.fingerprint != run.fingerprint || again.estimate != run.estimate {
            outcome.problems.push(format!(
                "device {} did not measure the same twice",
                run.index
            ));
        }
    }
    let (fn_err, zeta_err) = accuracy(devices);
    if !(fn_err <= FN_TOLERANCE_PCT && zeta_err <= ZETA_TOLERANCE_PCT) {
        outcome.problems.push(format!(
            "median estimate error fn {fn_err:.2} % / zeta {zeta_err:.2} % past \
             {FN_TOLERANCE_PCT} % / {ZETA_TOLERANCE_PCT} %"
        ));
    }

    let tones: usize = devices.iter().map(|d| d.tones).sum();
    let lost: usize = devices
        .iter()
        .map(|d| match d.estimate {
            Some(_) => d.tones - d.ok_tones,
            None => d.tones,
        })
        .sum();
    let latencies: Vec<f64> = devices
        .iter()
        .map(|d| {
            if d.estimate.is_some() {
                d.latency * 1e3
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let e2e = &mut outcome.end_to_end;
    e2e.insert("points_per_s", phase.tones_per_s());
    e2e.insert("latency_p50_ms", pct_or_zero(&latencies, 50.0));
    e2e.insert(
        "latency_p90_ms",
        windowed_percentile(&latencies, LATENCY_WINDOW, 90.0),
    );
    e2e.insert("setup_s", crate::stats::median(&setups));
    e2e.insert("ok_frac", 1.0 - lost as f64 / tones.max(1) as f64);
    e2e.insert("peak_rss_mb", peak_rss_mb);
    if let Some(tail) = deepest_tail(&latencies) {
        outcome.notes.push(crate::report::tail_note(&tail));
    }
    outcome.per_layer.insert("monitor.fn_err_pct", fn_err);
    outcome.per_layer.insert("monitor.zeta_err_pct", zeta_err);

    if trace {
        let spans = SpanLog::new();
        let traced = drive(traffic, TRACED_BASE, seconds, Some(&spans));
        traced_layers(traffic, &phase, &traced, &spans, &mut outcome);
        outcome.spans = Some(spans);
    }
    outcome
}

fn traced_layers(
    traffic: &Traffic,
    untraced: &DevicePhase,
    traced: &DevicePhase,
    spans: &SpanLog,
    outcome: &mut Outcome,
) {
    let monitor = paper_monitor();
    let (stride, cap) = traffic.workload().trace_sample();
    let sample: Vec<(&DeviceRun, DeviceReplay)> = traced
        .devices
        .iter()
        .filter(|d| (d.index - TRACED_BASE).is_multiple_of(stride))
        .take(cap)
        .map(|run| {
            (
                run,
                replay_device(&monitor, &traffic.device(run.index), Some(spans)),
            )
        })
        .collect();
    for (run, replay) in &sample {
        if replay.fingerprint != run.fingerprint {
            outcome.problems.push(format!(
                "device {} measured differently when replayed",
                run.index
            ));
        }
    }
    let ms = |v: f64| v * 1e3;
    let sum = |f: &dyn Fn(&DeviceReplay) -> f64| -> f64 { sample.iter().map(|(_, r)| f(r)).sum() };
    let p50_ms = |curved: bool| {
        let v: Vec<f64> = traced
            .devices
            .iter()
            .filter(|d| d.curved == curved)
            .map(|d| ms(d.latency))
            .collect();
        pct_or_zero(&v, 50.0)
    };
    let traced_tones: usize = traced.devices.iter().map(|d| d.tones).sum();
    let traced_busy: f64 = traced.devices.iter().map(|d| d.latency).sum();
    let estimates: Vec<f64> = traced
        .devices
        .iter()
        .map(|d| d.estimate_secs * 1e6)
        .collect();
    let settles: Vec<f64> = sample.iter().map(|(_, r)| ms(r.settle)).collect();
    let events = sum(&|r| r.events as f64);
    let attempts = sum(&|r| (r.points_ok + r.retries + r.quarantined) as f64);
    let (untraced_rate, traced_rate) = (untraced.tones_per_s(), traced.tones_per_s());

    let layers = &mut outcome.per_layer;
    layers.insert("monitor.event_driven.device_ms_p50", p50_ms(false));
    layers.insert("monitor.cp_pll.device_ms_p50", p50_ms(true));
    layers.insert("monitor.tones_per_s", traced_tones as f64 / traced_busy);
    layers.insert("monitor.estimate_us_p50", pct_or_zero(&estimates, 50.0));
    layers.insert(
        "runner.busy_frac",
        sum(&|r| r.tones_sum) / sum(&|r| r.workers * r.executor),
    );
    layers.insert(
        "runner.overhead_us_per_point",
        1e6 * sum(&|r| r.workers * r.executor - r.tones_sum)
            / (sample.len() * monitor.settings().mod_frequencies_hz.len()).max(1) as f64,
    );
    layers.insert("engine.events_per_s", events / sum(&|r| r.tones_sum));
    layers.insert("engine.events", events);
    layers.insert("engine.steps", sum(&|r| r.steps as f64));
    layers.insert("engine.step_rejections", sum(&|r| r.step_rejections as f64));
    layers.insert("engine.settle_ms_p50", pct_or_zero(&settles, 50.0));
    layers.insert("supervisor.retries", sum(&|r| r.retries as f64));
    layers.insert("supervisor.quarantined", sum(&|r| r.quarantined as f64));
    layers.insert(
        "supervisor.useful_frac",
        sum(&|r| r.points_ok as f64) / attempts,
    );
    layers.insert(
        "trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
    );

    // The waterfall of one `measure` call, from the monitor's own stage
    // spans: qualification plus tone walking, the lock settle, the tone
    // executor's own time, and what no span covers.
    let n = sample.len().max(1) as f64;
    let per_device = |f: &dyn Fn(&DeviceRun, &DeviceReplay) -> f64| {
        ms(sample.iter().map(|(d, r)| f(d, r)).sum::<f64>() / n)
    };
    layers.insert("waterfall.latency_ms", per_device(&|d, _| d.latency));
    layers.insert(
        "waterfall.monitor_ms",
        per_device(&|_, r| r.nominal + r.tones_union),
    );
    layers.insert("waterfall.engine_ms", per_device(&|_, r| r.settle));
    layers.insert(
        "waterfall.runner_ms",
        per_device(&|_, r| r.executor - r.tones_union),
    );
    layers.insert(
        "waterfall.residual_ms",
        per_device(&|d, r| d.latency - r.nominal - r.settle - r.executor),
    );

    // The waterfall check: each replayed call against the traced call of
    // the same device. Both are timed exactly, so every device is checked;
    // keeping only the slower ones would select traced calls that were
    // slow by chance.
    let checked: Vec<(f64, f64)> = sample
        .iter()
        .map(|(d, r)| (ms(r.wall), ms(d.latency)))
        .collect();
    outcome.notes.push(crate::report::waterfall_note(
        &outcome.per_layer,
        sample.len(),
        &checked,
    ));
}

/// A traced replay of one device: `measure` with the plan's telemetry
/// on, the monitor's own stage spans copied into `spans`.
#[derive(Clone, Debug, Default)]
pub struct DeviceReplay {
    /// Seconds of the replayed `measure` call.
    pub wall: f64,
    /// Σ `monitor.nominal` (device qualification) seconds.
    pub nominal: f64,
    /// Σ `scenario.checkpoint` (lock settle) seconds.
    pub settle: f64,
    /// Wall covered by at least one `monitor.tone`.
    pub tones_union: f64,
    /// Σ `monitor.tone` seconds over all workers.
    pub tones_sum: f64,
    /// `parallel.scope` seconds: the tone executor.
    pub executor: f64,
    /// Executor workers.
    pub workers: f64,
    /// Reference plus feedback edges simulated.
    pub events: u64,
    /// Engine steps.
    pub steps: u64,
    /// Rejected engine steps.
    pub step_rejections: u64,
    /// Healthy tone outcomes.
    pub points_ok: u64,
    /// Retried tone attempts.
    pub retries: u64,
    /// Quarantined tones.
    pub quarantined: u64,
    /// Hash of every tone's bits.
    pub fingerprint: u64,
}

/// Replays `device` with telemetry on, recording the monitor's spans
/// under a `monitor.measure` span tagged with the device index.
pub fn replay_device(
    monitor: &TransferFunctionMonitor,
    device: &Device,
    spans: Option<&SpanLog>,
) -> DeviceReplay {
    let parent = spans.map(|log| log.open("monitor.measure", None, Some(device.index)));
    let started = Instant::now();
    let result = measure(monitor, device, true);
    let wall = started.elapsed().as_secs_f64();
    if let (Some(log), Some(id)) = (spans, parent) {
        log.close(id);
    }
    let mut replay = DeviceReplay {
        wall,
        fingerprint: fingerprint(&result),
        ..DeviceReplay::default()
    };
    let mut tones = Vec::new();
    for record in &result.telemetry {
        match record {
            Record::Span {
                name, t_ns, dur_ns, ..
            } => {
                let (t0, dur) = (*t_ns as f64 * 1e-9, *dur_ns as f64 * 1e-9);
                match name.as_str() {
                    "monitor.nominal" => replay.nominal += dur,
                    "scenario.checkpoint" => replay.settle += dur,
                    "monitor.tone" => {
                        replay.tones_sum += dur;
                        tones.push((t0, t0 + dur));
                    }
                    "parallel.scope" => replay.executor += dur,
                    _ => continue,
                }
                if let Some(log) = spans {
                    let start = started + std::time::Duration::from_nanos(*t_ns);
                    let end = start + std::time::Duration::from_nanos(*dur_ns);
                    log.record(name, parent, Some(device.index), start, end);
                }
            }
            Record::Counter { name, value } => match name.as_str() {
                "sim.ref_edges" | "sim.fb_edges" => replay.events += value,
                "sim.steps" => replay.steps += value,
                "sim.step_rejections" => replay.step_rejections += value,
                "supervisor.points_ok" => replay.points_ok += value,
                "supervisor.retries" => replay.retries += value,
                "supervisor.quarantined" => replay.quarantined += value,
                _ => {}
            },
            Record::Gauge { name, value } if name == "parallel.workers" => replay.workers = *value,
            _ => {}
        }
    }
    replay.tones_union = crate::stats::union_len(&tones);
    replay
}
