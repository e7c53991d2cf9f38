//! Cross-commit bit-identity pin for the Table 2 monitor.
//!
//! The monitor's own byte-identity tests compare runs within one build,
//! so a rewrite of its execution path that moves every reading by one
//! ulp would pass them all. This file pins the readings themselves for
//! the three paths the artefact bins and the benchmark run:
//!
//! * `measure_device` — the one-engine continuous walk (`abl07`,
//!   `tab02`) — on a `CpPll`;
//! * a supervised two-thread work-stealing plan on `CpPll`, which runs
//!   closed-form segments on this straight-VCO config (`bist_table2`'s
//!   straight-VCO devices; the event-driven engine's run until it was
//!   folded into `CpPll`);
//! * the same plan on `CpPll` with a curved VCO (`bist_table2`'s
//!   curved devices).
//!
//! Each run pins the nominal reading, every point's `f64` bits and
//! counter counts, and the incident count. A fourth test pins the
//! paper's Table 2 (fn, ζ) estimate itself: the `MonitorSettings::paper()`
//! plan on `paper_table3`, supervised on two work-stealing threads, on
//! `CpPll` with a straight and with a curved VCO. Transcript times are not
//! pinned: they record *when* each stage ran, not what it measured.
//! Update the strings only for a change that is meant to move the
//! monitor's bits, and say so in the change description.
//!
//! Re-pinned once, when reference edges moved from a safeguarded Newton
//! solve to each stimulus kind's exact phase inverse: only
//! `t_output_peak` moved, by 1–9 ulps. Every counter count, Δf, phase
//! reading, phase pulse count and nominal reading kept its bits, so the
//! Table 2 (fn, ζ) estimate is unchanged.
//!
//! Re-pinned once more when the staircase phase moved from a walk over
//! the dwells to a per-dwell table (one multiply-add inside the dwell,
//! within a few ulps of the walk) and the feedback-edge solve to a
//! quartic seed: again only `t_output_peak` moved, by 1–3 ulps, and
//! every count, Δf, phase reading, pulse count and nominal reading kept
//! its bits, so (fn, ζ) is unchanged.
//!
//! The two `CpPll` runs were re-pinned once more when `MicroStep` began
//! taking the held interval between pump pulses of a lossless filter as
//! one segment instead of quarter-period micro-steps. Time and phase
//! move by ulps, and the held nominal reading sits on a knife edge: its
//! exact window is a whole number of test-clock periods (100 VCO cycles
//! at 5 kHz is 20000 periods of the 1 MHz clock), and it now floors to
//! 20000 counts (5000.0 Hz) instead of 19999 (5000.25 Hz). Every Δf
//! moves by the same 0.25 Hz, since each is referred to the nominal.
//! Every tone reading, phase reading, pulse count and peak time kept its
//! bits, and the Table 2 (fn, ζ) pin below did not move. The event-driven
//! run is untouched.
//!
//! The event-driven engine was then folded into `CpPll`, whose `MicroStep`
//! takes the closed-form affine segment wherever the filter has a scalar
//! reduction and the VCO is linear. The event-driven plan run kept every
//! bit on `CpPll`, and so did the curved-VCO run (no kernel applies
//! there) and both Table 2 estimates; the estimate test's second
//! straight-VCO row, a run of the same engine on the same plan, went.
//! The device walk is re-pinned: the exact segments move time and phase
//! by ulps, the held nominal reading's knife edge flips back to 19999
//! counts (5000.25 Hz, the event engine's reading), and every Δf moves
//! by the same 0.25 Hz with it. Two output peak times move, by 1 and 334
//! ulps (3e-13 s); every tone reading, phase reading and pulse count
//! kept its bits.

use pllbist::counter::FrequencyReading;
use pllbist::monitor::{
    MonitorPoint, MonitorSettings, SupervisedMonitorResult, TransferFunctionMonitor,
};
use pllbist_sim::config::PllConfig;
use pllbist_sim::{CampaignPlan, CpPll, PllEngine, Scheduler, SupervisorPolicy};
use pllbist_telemetry::TelemetryConfig;

fn monitor() -> TransferFunctionMonitor {
    TransferFunctionMonitor::new(MonitorSettings {
        mod_frequencies_hz: vec![1.0, 8.0, 25.0],
        settle_periods: 2.5,
        loop_settle_secs: 0.25,
        capture_transcript: true,
        ..MonitorSettings::fast()
    })
}

fn nominal_line(n: &FrequencyReading) -> String {
    format!(
        "nominal {:016x} {} {} {:016x}",
        n.frequency_hz.to_bits(),
        n.clock_count,
        n.gate_cycles,
        n.resolution_hz.to_bits()
    )
}

fn point_line(p: &MonitorPoint) -> String {
    format!(
        "{:016x} {:016x} {} {} {:016x} {:016x} {} {:016x} {:016x} {:016x} {}",
        p.f_mod_hz.to_bits(),
        p.frequency.frequency_hz.to_bits(),
        p.frequency.clock_count,
        p.frequency.gate_cycles,
        p.delta_f_hz.to_bits(),
        p.phase.phase_degrees.to_bits(),
        p.phase.pulse_count,
        p.phase.resolution_degrees.to_bits(),
        p.t_input_peak.to_bits(),
        p.t_output_peak.to_bits(),
        p.peak_found
    )
}

/// A supervised plan's pinned lines: nominal, one line per point
/// (`quarantined <kind>` for a typed error), then the incident count.
fn plan_lines(result: &SupervisedMonitorResult) -> Vec<String> {
    let mut lines = vec![match &result.nominal {
        Ok(n) => nominal_line(n),
        Err(e) => format!("nominal quarantined {}", e.kind()),
    }];
    lines.extend(result.points.iter().map(|p| match p {
        Ok(p) => point_line(p),
        Err(e) => format!("quarantined {}", e.kind()),
    }));
    lines.push(format!("incidents {}", result.incidents.len()));
    lines
}

fn check(run: &str, got: &[String], want: &[&str]) {
    assert_eq!(
        got,
        want,
        "{run}: monitor bits moved; got\n{}",
        got.iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn work_stealing_plan<E: PllEngine>(cfg: PllConfig) -> CampaignPlan<E> {
    CampaignPlan::new(cfg)
        .engine::<E>()
        .supervised(SupervisorPolicy::default())
        .scheduler(Scheduler::WorkStealing { threads: 2 })
}

#[test]
fn device_walk_bits_are_pinned() {
    let cfg = PllConfig::paper_table3();
    let mut pll = CpPll::new_locked(&cfg);
    let result = monitor().measure_device(&mut pll, &TelemetryConfig::disabled());
    let mut got = vec![nominal_line(&result.nominal)];
    got.extend(result.points.iter().map(point_line));
    check(
        "measure_device / CpPll",
        &got,
        &[
            "nominal 40b3884000d1b9c7 19999 100 3fd00068dd8f1aa3",
            "3ff0000000000000 40b3bc09355cc86a 19794 100 4049e49a45875180 c02363bcd35a8588 26930 3f3797cc39ffd60f 400a000000000000 400a37277070453f true",
            "4020000000000000 40b3c2efc5c5d9be 19767 100 404d57e27a0ffb80 c05757d6b65a9a81 32421 3f6797cc39ffd60f 400f400000000000 400f8266003649f9 true",
            "4039000000000000 40b38d818cedeea0 19978 100 4015063070d36400 c0650ac083126e97 18704 3f826e978d4fdf3b 401151eb851eb852 40116512d56e0daf true",
        ],
    );
}

#[test]
fn event_driven_plan_bits_are_pinned() {
    let plan = work_stealing_plan::<CpPll>(PllConfig::paper_table3());
    let got = plan_lines(&monitor().measure(&plan));
    check(
        "work-stealing plan / CpPll",
        &got,
        &[
            "nominal 40b3884000d1b9c7 19999 100 3fd00068dd8f1aa3",
            "3ff0000000000000 40b3bc09355cc86a 19794 100 4049e49a45875180 c0233f3e0370cdc9 26732 3f3797cc39ffd60f 400a000000000000 400a36bf9eab57b3 true",
            "4020000000000000 40b3c2efc5c5d9be 19767 100 404d57e27a0ffb80 c0574a6223e18699 32348 3f6797cc39ffd60f 3fed000000000000 3fee09008899c8c2 true",
            "4039000000000000 40b38d818cedeea0 19978 100 4015063070d36400 c0655cd4fdf3b645 18989 3f826e978d4fdf3b 3fe3851eb851eb85 3fe420af6cb5a177 true",
            "incidents 0",
        ],
    );
}

#[test]
fn curved_vco_plan_bits_are_pinned() {
    let mut cfg = PllConfig::paper_table3();
    cfg.vco_curvature = (25.0, 0.0);
    let plan = work_stealing_plan::<CpPll>(cfg);
    let got = plan_lines(&monitor().measure(&plan));
    check(
        "work-stealing plan / curved-VCO CpPll",
        &got,
        &[
            "nominal 40b3880000000000 20000 100 3fd0000000000000",
            "3ff0000000000000 40b3bc09355cc86a 19794 100 404a049aae643500 c0233f3e0370cdc9 26732 3f3797cc39ffd60f 400a000000000000 400a36bf9eab57b3 true",
            "4020000000000000 40b3c2efc5c5d9be 19767 100 404d77e2e2ecdf00 c0574a6223e18699 32348 3f6797cc39ffd60f 3fed000000000000 3fee09008899c8c2 true",
            "4039000000000000 40b38d818cedeea0 19978 100 40160633b7ba8000 c0655cd4fdf3b645 18989 3f826e978d4fdf3b 3fe3851eb851eb85 3fe420af6cb5a177 true",
            "incidents 0",
        ],
    );
}

/// The paper plan's (fn, ζ) estimate on `E`, as `f64` bits.
fn paper_estimate<E: PllEngine>(cfg: PllConfig) -> (f64, f64) {
    let monitor = TransferFunctionMonitor::new(MonitorSettings::paper());
    let estimate = monitor
        .measure(&work_stealing_plan::<E>(cfg))
        .estimate()
        .expect("the paper plan fits");
    (
        estimate.natural_frequency_hz.expect("interior peak"),
        estimate.damping.expect("invertible peak"),
    )
}

#[test]
fn table2_estimate_bits_are_pinned() {
    let mut curved = PllConfig::paper_table3();
    curved.vco_curvature = (20.0, 0.0);
    let got = [
        ("CpPll", paper_estimate::<CpPll>(PllConfig::paper_table3())),
        ("curved-VCO CpPll", paper_estimate::<CpPll>(curved)),
    ];
    let want = [
        (7.844178958503639, 0.46665826665108096),
        (7.85471628495365, 0.4665476189207242),
    ];
    for ((run, (f_n, zeta)), (want_fn, want_zeta)) in got.iter().zip(want) {
        assert_eq!(
            (f_n.to_bits(), zeta.to_bits()),
            (f64::to_bits(want_fn), f64::to_bits(want_zeta)),
            "{run}: Table 2 estimate moved: fn = {f_n:?} Hz, zeta = {zeta:?}"
        );
    }
}
