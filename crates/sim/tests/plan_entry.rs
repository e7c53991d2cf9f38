//! The one plan entry's boundary contracts: captures are keyed by grid
//! index, so a grid may repeat a frequency and a `FaultPlan` still faults
//! exactly the listed points; and a plan whose engine cannot run its
//! configuration is refused with a typed error before anything settles
//! or touches the disk.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use pllbist_sim::bench_measure::{run_sweep, BenchSettings};
use pllbist_sim::config::PllConfig;
use pllbist_sim::{
    run_plan, CampaignError, CampaignPlan, ClosedFormPll, CpPll, EventDrivenCpPll, FaultPlan,
    IncidentAction, NullCodec, OutOfClass, PllEngine, Scheduler, Supervised, SupervisorPolicy,
};

/// Indices 1 and 2 hold the same frequency.
const GRID: [f64; 5] = [2.0, 5.0, 5.0, 9.0, 14.0];

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pllbist_plan_entry_it");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

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

#[test]
fn out_of_class_plan_is_refused_before_any_settle_or_file() {
    let mut curved = PllConfig::paper_table3();
    curved.vco_curvature = (20.0, 0.0);
    assert_eq!(
        EventDrivenCpPll::check_class(&curved),
        Err(OutOfClass::VcoCurvature)
    );
    assert_eq!(CpPll::check_class(&curved), Ok(()));

    let results = tmp("out_of_class.jsonl");
    let plan = CampaignPlan::new(curved.clone())
        .engine::<EventDrivenCpPll>()
        .supervised(SupervisorPolicy::default())
        .resume_from(&results);
    let err = run_plan(
        &plan,
        &GRID,
        NullCodec::<f64>::new(),
        "plan-entry",
        |_, _, _, _| -> Result<f64, _> { panic!("an out-of-class plan must run no point") },
    )
    .expect_err("out-of-class plan");
    assert!(
        matches!(err, CampaignError::OutOfClass(OutOfClass::VcoCurvature)),
        "{err}"
    );
    assert!(!results.exists(), "no results file for a refused plan");
    assert!(
        !results.with_extension("ckpt").exists(),
        "no sidecar either"
    );

    // The bench sweep enters through the same door.
    let bench = run_sweep(
        &CampaignPlan::new(curved).engine::<EventDrivenCpPll>(),
        &[2.0],
        &BenchSettings::default(),
    );
    assert!(matches!(
        bench,
        Err(CampaignError::OutOfClass(OutOfClass::VcoCurvature))
    ));
}
