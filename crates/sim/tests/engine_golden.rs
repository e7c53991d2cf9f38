//! Cross-commit bit-identity pin for the two loop engines.
//!
//! The byte-identity suites elsewhere compare runs *within* one build, so
//! a refactor that shifts every result by one ulp passes them all. This
//! file pins the bits themselves: a fixed script (lock, sine FM, hold on,
//! hold off) runs on `CpPll` and `EventDrivenCpPll` over three configs,
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

use pllbist_sim::config::PllConfig;
use pllbist_sim::stimulus::FmStimulus;
use pllbist_sim::{CpPll, EventDrivenCpPll, PllEngine};

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

#[test]
fn cp_pll_bits_are_pinned() {
    check::<CpPll>(&[
        (
            "paper_table3",
            "cp:3fd999999999999a|4003fd5fe19a1c62|0;3fd9984546b4cae2;0000000000000000;0;d,3fd9984546b4cae2,3fd999999999999a,1|408f400000000000;4034000000000000;sine:4024000000000000|409f418dab57b75e|400|409f540000000000|3fd9a9f94680a97e|3fd9a9f94680a97e|0000000000000000|0|2000,400,400,400,1",
            "409f418dab57b75e",
        ),
        (
            "integer_n_charge_pump",
            "cp:3fa47ae147ae147b|4002e8f1249cfdc2|1;3fa47ae147ae147b;0000000000000000;0;d,3fa46dae21cf3a17,3fa46dc3ba8854bd,1|40c3880000000000;4069000000000000;sine:4059000000000000|40a8dffc5e295dc5|397|40a8e00000000000|3fa487fa9ecd5456|3fa487fa9ecd5456|0000000000000000|0|1999,397,399,397,1",
            "40a8dffc5e295dc5",
        ),
        (
            "paper_table3_dead_zone",
            "cp:3fd999999999999a|4003fe1d9aab0f87|1;3fd999999999999a;3f04f8b588e368f1;181;u,3fd98934a92a69ec,3fd989b467281747,0|408f400000000000;4034000000000000;sine:4024000000000000|409f3f63ca3fb558|399|409f400000000000|3fd9a9f94680a97e|3fd9a9f94680a97e|0000000000000000|0|2168,399,400,399,1",
            "409f3f63ca3fb558",
        ),
    ]);
}

#[test]
fn event_driven_bits_are_pinned() {
    check::<EventDrivenCpPll>(&[
        (
            "paper_table3",
            "ev:3fd999999999999a|4003fd5fe199e708|0;3fd9984546b4ebc9;0000000000000000;0;d,3fd9984546b4ebc9,3fd999999999999a,1|408f400000000000;4034000000000000;sine:4024000000000000|409f418dab578464|400|409f540000000000|3fd9a9f94680a97e|3fd9a9f94680a97e|0000000000000000|0|800,400,400,400,1",
            "409f418dab578464",
        ),
        (
            "integer_n_charge_pump",
            "ev:3fa47ae147ae147b|4002e8f1249cfd74|1;3fa47ae147ae147b;0000000000000000;0;d,3fa46dae21cf3a18,3fa46dc3ba8854bd,1|40c3880000000000;4069000000000000;sine:4059000000000000|40a8dffc5e295dc3|397|40a8e00000000000|3fa487fa9ecd5456|3fa487fa9ecd5456|0000000000000000|0|795,397,399,397,1",
            "40a8dffc5e295dc3",
        ),
        (
            "paper_table3_dead_zone",
            "ev:3fd999999999999a|4003fe1d9aac3ba9|1;3fd999999999999a;3f04f8b588e368f1;181;u,3fd98934a92a69ec,3fd989b46726e47b,0|408f400000000000;4034000000000000;sine:4024000000000000|409f3f63ca412dc3|399|409f400000000000|3fd9a9f94680a97e|3fd9a9f94680a97e|0000000000000000|0|967,399,400,399,1",
            "409f3f63ca412dc3",
        ),
    ]);
}
