//! **Ablation abl02** as a bench: the behavioural fast path vs the
//! gate-level co-simulation, per simulated second of the paper's PLL.
//! The two engines agree on results (see `tests/engines_agree.rs`); this
//! bench quantifies what the gate-level fidelity costs. The closed-form
//! oracle's case times its edge synthesis, which shares the feedback-edge
//! solver with every other engine.

use pllbist_sim::behavioral::CpPll;
use pllbist_sim::config::PllConfig;
use pllbist_sim::cosim::MixedSignalPll;
use pllbist_sim::engine::{ClosedFormPll, PllEngine};
use pllbist_sim::stimulus::FmStimulus;
use pllbist_testkit::Bench;

fn bench_behavioral(c: &mut Bench) {
    let cfg = PllConfig::paper_table3();
    c.bench_function("behavioral_100ms_locked", |b| {
        b.iter(|| {
            let mut pll = CpPll::new_locked(&cfg);
            pll.advance_to(0.1);
            pll.vco_phase_cycles()
        })
    });
    c.bench_function("behavioral_100ms_modulated", |b| {
        b.iter(|| {
            let mut pll = CpPll::new_locked(&cfg);
            pll.set_stimulus(FmStimulus::multi_tone(1_000.0, 10.0, 8.0, 10));
            pll.advance_to(0.1);
            pll.vco_phase_cycles()
        })
    });
}

fn bench_gate_level(c: &mut Bench) {
    let cfg = PllConfig::paper_table3();
    let mut group = c.benchmark_group("gate_level");
    group.sample_size(10);
    group.bench_function("cosim_20ms_locked", |b| {
        b.iter(|| {
            let mut pll = MixedSignalPll::with_clock_reference(&cfg);
            pll.advance_to(0.02);
            pll.vco_phase_cycles()
        })
    });
    group.finish();
}

fn bench_closed_form(c: &mut Bench) {
    let cfg = PllConfig::paper_table3();
    c.bench_function("closed_form_1s_collecting", |b| {
        b.iter(|| {
            let mut pll = ClosedFormPll::new_locked(&cfg);
            pll.set_stimulus(FmStimulus::pure_sine(1_000.0, 10.0, 8.0));
            pll.collect_events(true);
            pll.advance_to(1.0);
            pll.take_events().len()
        })
    });
}

fn bench_charge_pump_engine(c: &mut Bench) {
    // The 2-state-filterless CP loop runs at 10× the reference rate of the
    // paper loop; per-wall-clock throughput scales with event rate.
    let cfg = PllConfig::integer_n_charge_pump();
    c.bench_function("behavioral_cp_10ms", |b| {
        b.iter(|| {
            let mut pll = CpPll::new_locked(&cfg);
            pll.advance_to(0.01);
            pll.vco_phase_cycles()
        })
    });
}

fn main() {
    let mut c = Bench::from_args();
    bench_behavioral(&mut c);
    bench_gate_level(&mut c);
    bench_closed_form(&mut c);
    bench_charge_pump_engine(&mut c);
    c.finish();
}
