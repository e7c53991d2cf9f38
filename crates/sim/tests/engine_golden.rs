//! Cross-commit bit-identity pin for the behavioural loop engine.
//!
//! The byte-identity suites elsewhere compare runs *within* one build, so
//! a refactor that shifts every result by one ulp passes them all. This
//! file pins the bits themselves: a fixed script (lock, sine FM, hold on,
//! hold off) runs on `CpPll` (and, until the merge below, on the
//! event-driven engine) over three configs,
//! and the final sidecar checkpoint token and VCO phase bit pattern must
//! equal hex strings captured from the engines before the loop-shell
//! refactor. Update the strings only for a change that is *meant* to
//! move the engines' bits, and say so in the change description.
//!
//! The `CpPll` table was re-pinned once since: its feedback edges moved
//! from a 60-halving bisection to the shared safeguarded-Newton solver
//! (`solve_crossing` in `loop_shell`), which lands each edge within a
//! few `1e-13·dt_max` of the bisection's edge — a few ulps of time and
//! phase, and a step count off by at most two. The event-driven table
//! is untouched: that solver is the one `EventDrivenCpPll` always used.
//!
//! Both tables were re-pinned once more when reference edges moved from
//! a safeguarded Newton solve in `FmStimulus::time_at_phase` to each
//! stimulus kind's exact phase inverse. Edge times move by a few ulps,
//! and step counts move by at most seven. In the first 100 periods, under
//! the constant stimulus, every edge now lands exactly on `k/f_ref`, so
//! more reference edges share a time with their feedback edge and need no
//! segment of their own (event engine 800 → 794 steps on `paper_table3`).
//! On `integer_n_charge_pump` the old solver placed edge 100 just past
//! the 100-period horizon. The stimulus switch at that horizon then
//! skipped the edge, because its phase sat inside the scheduler's
//! 1e-9-cycle guard below the integer. The exact inverse lands that edge
//! on the horizon, where it fires, so the config now counts 400 reference
//! and 398 feedback edges instead of 399 and 397.
//!
//! The event-driven table was re-pinned once more when `solve_crossing`
//! started from the series inverse of the phase's quartic Taylor
//! expansion instead of `Δφ/f`. Newton then stops at its first
//! candidate, which sits a few ulps from where the second one did: the
//! filter state, the PFD's armed time and the VCO phase move by ulps,
//! and every step, edge and rejection count is unchanged. The `CpPll`
//! table did not move (its integrator keeps the `Δφ/f` seed), and
//! neither did anything else the script reads: its stimuli are sine
//! and constant, so the tabulated staircase phase does not enter, and
//! no pending edge sits inside the guard at its stimulus switch.
//!
//! The `CpPll` table was re-pinned once more when `MicroStep` stopped
//! capping a segment under a drive that holds the filter still (the
//! high-impedance interval between pump pulses of a lossless filter):
//! such an interval is one segment instead of quarter-period
//! micro-steps. The committed step counts fell (2001 → 800, 2001 → 797,
//! 2170 → 960), and with them time, filter state, the PFD's armed time
//! and the VCO phase moved by ulps, since each is now a sum over fewer
//! segments. Every reference, feedback and rejection count is unchanged.
//! The event-driven table is untouched: `EventStep` keeps its two-period
//! cap under every drive.
//!
//! The event-driven engine was then folded into `CpPll`: `MicroStep`
//! takes the closed-form affine segment under every drive with a scalar
//! filter reduction and a linear VCO, which covers all three configs. The
//! event-driven table carried over bit for bit, run on `CpPll`; only its
//! checkpoint tokens' prefix changed, from `ev:` to `cp:`. The `CpPll`
//! table was re-pinned onto it, and both tests now check the one table
//! (`PINS`). Against the old `CpPll` pins, the segment formula moved
//! from `filter.step` plus the trapezoid to the exact state and phase
//! integral, and the edge solve's seed gained the frequency's
//! derivatives: the filter state moved by 56 to 76,865 ulps, the PFD's
//! armed time by up to 78,450 ulps and the VCO phase by up to 96,253 ulps
//! (2e-8 cycles of about 2000). The exact phase puts more feedback edges
//! at the very time of their reference edge, so fewer need a segment of
//! their own: 800 → 794 committed steps on `paper_table3`, 797 → 793 on
//! `integer_n_charge_pump`, 960 on the dead-zone config. Every reference,
//! feedback and rejection count is unchanged.
//!
//! The dead-zone row was re-pinned once more when the shell stopped
//! leaving a PFD pulse undriven at its dead-zone expiry. The expiry
//! bounds a segment at `armed + dead_zone`, but the drive was switched
//! on by `t − armed ≥ dead_zone`, which rounding can still deny at that
//! very time; the pulse then stayed undriven until the next edge. The
//! old row had lost a feedback edge to it (399 feedback edges against
//! 400 reference edges, a cycle slip in a locked loop). Now it counts 400
//! of each, 961 steps and one more dead-zone glitch (182), and ends with
//! the PFD idle instead of armed Up.
//!
//! The table was re-pinned once more when the sine phase inverse took
//! its Newton seed from the sixth-order series inverse of the phase at
//! the previous edge instead of `t + h − ½·f′·h²/f`. The seed now meets
//! Newton's tolerance itself, so each sine reference edge sits a few ulps
//! from where the second Newton step put it, and the script's 200
//! sine-driven periods carry that into the state. The filter state, the
//! PFD's armed time and the VCO phase moved by 9, 3 and 3 ulps on
//! `paper_table3`, by 41, 36 and 36 on `integer_n_charge_pump`, and by
//! 36, 4 and 6 on the dead-zone config. Every step, edge and rejection
//! count is unchanged (794/400/400/400, 793/398/400/398 and
//! 961/400/400/400): the loop still leaves hold on the same cycle after
//! the release at period 300.

use pllbist_sim::config::PllConfig;
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{CpPll, PllEngine};

/// The three pinned configurations, by name.
fn configs() -> [(&'static str, PllConfig); 3] {
    let mut dead_zone = PllConfig::paper_table3();
    dead_zone.pfd_dead_zone = 40e-6;
    [
        ("paper_table3", PllConfig::paper_table3()),
        ("integer_n_charge_pump", PllConfig::integer_n_charge_pump()),
        ("paper_table3_dead_zone", dead_zone),
    ]
}

/// Runs the script and returns `(checkpoint token, vco phase bits)`.
fn script<E: PllEngine>(cfg: &PllConfig) -> (String, String) {
    // Times scale with the reference period so both configs see the same
    // number of edges per step.
    let period = 1.0 / cfg.f_ref_hz;
    let mut pll = E::new_locked(cfg);
    pll.advance_to(100.0 * period);
    pll.set_stimulus(FmStimulus::pure_sine(
        cfg.f_ref_hz,
        0.01 * cfg.f_ref_hz,
        0.02 * cfg.f_ref_hz,
    ));
    pll.advance_to(250.0 * period);
    pll.set_hold(true);
    pll.advance_to(300.0 * period);
    pll.set_hold(false);
    pll.advance_to(400.0 * period);
    let token = E::encode_checkpoint(&pll.checkpoint()).expect("noiseless state encodes");
    let phase = format!("{:016x}", pll.vco_phase_cycles().to_bits());
    (token, phase)
}

fn check<E: PllEngine>(golden: &[(&str, &str, &str)]) {
    let mut mismatches = Vec::new();
    for ((name, cfg), (want_name, want_token, want_phase)) in configs().iter().zip(golden) {
        assert_eq!(name, want_name, "golden table order");
        let (token, phase) = script::<E>(cfg);
        if token != *want_token || phase != *want_phase {
            mismatches.push(format!(
                "{} / {name}:\n  token {token}\n  phase {phase}",
                E::backend_name()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine bits moved:\n{}",
        mismatches.join("\n")
    );
}

/// The one engine's bits on the three configs: the event-driven table,
/// carried over bit for bit.
const PINS: [(&str, &str, &str); 3] = [
        (
            "paper_table3",
            "cp:3fd999999999999a|4003fd5fe199e726|0;3fd9984546b4ebc3;0000000000000000;0;d,3fd9984546b4ebc3,3fd999999999999a,1|408f400000000000;4034000000000000;sine:4024000000000000|409f418dab57846b|400|409f540000000000|3fd9a9f94680a96c|3fd9a9f94680a96c|0000000000000000|0|794,400,400,400,1",
            "409f418dab57846b",
        ),
        (
            "integer_n_charge_pump",
            "cp:3fa47ae147ae147b|4002e8f12466be71|1;3fa47ae147ae147b;0000000000000000;0;d,3fa46dae21cf6c18,3fa46dc3ba8854bd,1|40c3880000000000;4069000000000000;sine:4059000000000000|40a8effc5e292663|398|40a8f00000000000|3fa487fa9ecd5456|3fa487fa9ecd5456|0000000000000000|0|793,398,400,398,1",
            "40a8effc5e292663",
        ),
        (
            "paper_table3_dead_zone",
            "cp:3fd999999999999a|4003fef899611b2a|0;3fd998228a36ce2a;3f04f8b588e368f1;182;d,3fd998228a36ce2a,3fd999999999999a,1|408f400000000000;4034000000000000;sine:4024000000000000|409f41bf19d9d519|400|409f540000000000|3fd9a9f94680a96c|3fd9a9f94680a96c|0000000000000000|0|961,400,400,400,1",
            "409f41bf19d9d519",
        ),
    ];

#[test]
fn cp_pll_bits_are_pinned() {
    check::<CpPll>(&PINS);
}

/// The event-driven engine's pins, now `CpPll`'s closed-form segments.
#[test]
fn event_driven_bits_are_pinned() {
    check::<CpPll>(&PINS);
}
