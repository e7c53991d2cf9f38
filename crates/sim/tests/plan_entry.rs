//! The one plan entry's boundary contract: captures are keyed by grid
//! index, so a grid may repeat a frequency and a `FaultPlan` still faults
//! exactly the listed points.

use std::sync::atomic::{AtomicUsize, Ordering};

use pllbist_sim::config::PllConfig;
use pllbist_sim::{
    run_plan, CampaignPlan, ClosedFormPll, FaultPlan, IncidentAction, NullCodec, PllEngine,
    Scheduler, Supervised, SupervisorPolicy,
};

/// Indices 1 and 2 hold the same frequency.
const GRID: [f64; 5] = [2.0, 5.0, 5.0, 9.0, 14.0];

fn per_index() -> Vec<AtomicUsize> {
    GRID.iter().map(|_| AtomicUsize::new(0)).collect()
}

fn loads(counts: &[AtomicUsize]) -> Vec<usize> {
    counts.iter().map(|n| n.load(Ordering::SeqCst)).collect()
}

fn volts(pll: &mut Supervised<ClosedFormPll>) -> f64 {
    let t = pll.time();
    pll.advance_to(t + 0.01);
    pll.control_voltage()
}

#[test]
fn captures_see_every_index_once_and_faults_land_on_their_index() {
    for threads in [1usize, 4] {
        let plan = CampaignPlan::new(PllConfig::paper_table3())
            .engine::<ClosedFormPll>()
            .lock_settle(0.05)
            .supervised(SupervisorPolicy::default())
            .scheduler(Scheduler::WorkStealing { threads });

        // Healthy run: the capture sees each index exactly once, with
        // that index's frequency, and the equal tones agree bit for bit.
        let seen = per_index();
        let healthy = run_plan(
            &plan,
            &GRID,
            NullCodec::<f64>::new(),
            "plan-entry",
            |pll, index, f_mod, _| {
                seen[index].fetch_add(1, Ordering::SeqCst);
                assert_eq!(f_mod.to_bits(), GRID[index].to_bits());
                Ok(volts(pll))
            },
        )
        .expect("no campaign log in play");
        assert_eq!(loads(&seen), [1; GRID.len()], "threads {threads}");
        assert!(healthy.incidents.is_empty());
        let bits: Vec<u64> = healthy
            .points
            .iter()
            .map(|p| p.as_ref().expect("healthy point").to_bits())
            .collect();
        assert_eq!(bits[1], bits[2], "equal tones, equal bits");

        // A retry fault on index 2 only: exactly that index is captured
        // twice (its first call fails), its twin at index 1 is untouched.
        let faults = FaultPlan {
            flaky_retry: vec![2],
            ..FaultPlan::none()
        };
        let called = per_index();
        let reached = per_index();
        let wrapped =
            faults.wrap_capture(None, |pll: &mut Supervised<ClosedFormPll>, index, _, _| {
                reached[index].fetch_add(1, Ordering::SeqCst);
                Ok(volts(pll))
            });
        let faulted = run_plan(
            &plan,
            &GRID,
            NullCodec::<f64>::new(),
            "plan-entry",
            |pll, index, f_mod, tel| {
                called[index].fetch_add(1, Ordering::SeqCst);
                wrapped(pll, index, f_mod, tel)
            },
        )
        .expect("no campaign log in play");
        assert_eq!(loads(&called), [1, 1, 2, 1, 1], "threads {threads}");
        assert_eq!(loads(&reached), [1; GRID.len()], "threads {threads}");
        assert_eq!(faulted.ok_count(), GRID.len());
        assert_eq!(faulted.incidents.len(), 1);
        assert_eq!(faulted.incidents[0].action, IncidentAction::Retried);
        for index in [0, 1, 3, 4] {
            assert_eq!(
                faulted.points[index].as_ref().map(|v| v.to_bits()),
                Ok(bits[index]),
                "unfaulted index {index}"
            );
        }
    }
}
