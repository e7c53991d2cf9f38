//! The Table 2 monitor's plan matrix, as a seeded property: every
//! combination of integration formula, checkpointing, supervision,
//! observation and thread count must reproduce the serial unsupervised
//! plan for its formula bit for bit — nominal reading, every point and the full
//! transcript. The monitor measures its tones on the shared campaign
//! runner, so a serial plan runs the same per-tone schedule as a
//! work-stealing one.

use std::sync::Arc;

use pllbist::monitor::{MonitorSettings, SupervisedMonitorResult, TransferFunctionMonitor};
use pllbist_sim::config::PllConfig;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::{CampaignPlan, Scheduler, SupervisorPolicy};
use pllbist_testkit::{prop_assert, prop_assert_eq, prop_check};

const TONES: [f64; 3] = [1.0, 8.0, 25.0];

fn monitor() -> TransferFunctionMonitor {
    TransferFunctionMonitor::new(MonitorSettings {
        mod_frequencies_hz: TONES.to_vec(),
        settle_periods: 2.5,
        loop_settle_secs: 0.25,
        capture_transcript: true,
        ..MonitorSettings::fast()
    })
}

/// The exact bit patterns of a healthy run: nominal, every point's
/// readings and counts, and every transcript entry. Panics on a
/// quarantine or an incident (the device is healthy by construction).
fn result_bits(result: &SupervisedMonitorResult) -> Vec<u64> {
    assert!(result.incidents.is_empty(), "healthy device saw incidents");
    let nominal = result.nominal.as_ref().expect("healthy nominal");
    let mut bits = vec![nominal.frequency_hz.to_bits(), nominal.clock_count];
    for point in &result.points {
        let p = point.as_ref().expect("healthy tone");
        bits.extend([
            p.f_mod_hz.to_bits(),
            p.frequency.frequency_hz.to_bits(),
            p.frequency.clock_count,
            p.delta_f_hz.to_bits(),
            p.phase.phase_degrees.to_bits(),
            p.phase.pulse_count,
            p.t_input_peak.to_bits(),
            p.t_output_peak.to_bits(),
            u64::from(p.peak_found),
        ]);
    }
    for tr in &result.transcript {
        bits.extend([
            tr.t.to_bits(),
            u64::from(tr.stage.number()),
            tr.tone_index as u64,
        ]);
    }
    bits
}

fn serial_baseline(cfg: &PllConfig) -> Vec<u64> {
    let plan = CampaignPlan::new(cfg.clone()).scheduler(Scheduler::Serial);
    result_bits(&monitor().measure(&plan))
}

#[test]
fn every_monitor_plan_matches_the_serial_unsupervised_baseline() {
    // The closed-form kernel, and the micro-step formula that a
    // negligible VCO curvature selects.
    let kernel = PllConfig::paper_table3();
    let mut micro_step = kernel.clone();
    micro_step.vco_curvature = (1e-9, 0.0);
    let kernel_baseline = serial_baseline(&kernel);
    let micro_step_baseline = serial_baseline(&micro_step);
    assert_eq!(
        kernel_baseline.len(),
        2 + 9 * TONES.len() + 3 * 5 * TONES.len()
    );

    prop_check!(cases: 32, |g| {
        let on_micro_steps = g.bool();
        let checkpoint = g.bool();
        let supervised = g.bool();
        let observed = g.bool();
        let threads = g.pick(&[1usize, 2, 4, 16]);
        let scheduler = if threads == 1 {
            Scheduler::Serial
        } else {
            Scheduler::WorkStealing { threads }
        };
        let (cfg, want) = if on_micro_steps {
            (&micro_step, &micro_step_baseline)
        } else {
            (&kernel, &kernel_baseline)
        };
        let mut plan = CampaignPlan::new(cfg.clone())
            .checkpoint(checkpoint)
            .scheduler(scheduler);
        if supervised {
            plan = plan.supervised(SupervisorPolicy::default());
        }
        let observer = observed.then(|| {
            Arc::new(CampaignObserver::new(
                TONES.len(),
                threads,
                ObservatoryConfig::default(),
            ))
        });
        if let Some(observer) = &observer {
            plan = plan.observed(Arc::clone(observer));
        }
        let label = format!(
            "micro-steps {on_micro_steps} checkpoint {checkpoint} \
             supervised {supervised} observed {observed} threads {threads}",
        );
        let bits = result_bits(&monitor().measure(&plan));
        prop_assert_eq!(&bits, want, "{}", label);
        if let Some(observer) = &observer {
            let progress = observer.snapshot();
            prop_assert_eq!(progress.done, TONES.len() as u64, "{}", label);
            prop_assert!(progress.ok == progress.done, "{}", label);
        }
        Ok(())
    });
}
