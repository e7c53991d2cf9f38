//! The correctness oracle for the `CampaignPlan` pipeline, as a seeded
//! property: EVERY combination of plan options — engine, checkpointing,
//! supervision, scheduler, observation — lowered onto the single
//! campaign runner must reproduce the serial unsupervised baseline for
//! its engine bit for bit on a healthy grid. Plus the digest/header
//! round trip, including rejection of a backend mismatch.

use std::sync::Arc;

use pllbist_sim::config::PllConfig;
use pllbist_sim::cosim::MixedSignalPll;
use pllbist_sim::observe::{CampaignObserver, ObservatoryConfig};
use pllbist_sim::{
    run_plan, CampaignError, CampaignPlan, ClosedFormPll, CpPll, NullCodec, PllEngine, Scheduler,
    SupervisorPolicy,
};
use pllbist_testkit::{prop_assert_eq, prop_check};

const TONES: [f64; 5] = [1.0, 3.0, 8.0, 17.0, 40.0];

/// Runs the plan over [`TONES`] with a control-voltage capture and
/// returns the exact bit patterns, panicking on any quarantine (the
/// grid is healthy by construction).
fn sweep_bits<E: PllEngine>(plan: &CampaignPlan<E>) -> Vec<u64> {
    let out = run_plan(
        plan,
        &TONES,
        NullCodec::<f64>::new(),
        "plan-matrix",
        |pll, _index, _fm, _tel| {
            let t = pll.time();
            pll.advance_to(t + 0.02);
            Ok(pll.control_voltage())
        },
    )
    .expect("no campaign log in play");
    assert!(out.incidents.is_empty(), "healthy grid saw incidents");
    out.points
        .into_iter()
        .map(|p| p.expect("healthy point").to_bits())
        .collect()
}

#[test]
fn every_plan_combination_matches_the_serial_unsupervised_baseline() {
    let cfg = PllConfig::paper_table3();
    let serial = |plan: CampaignPlan| plan.lock_settle(0.1).scheduler(Scheduler::Serial);
    let closed_baseline =
        sweep_bits(&serial(CampaignPlan::new(cfg.clone())).engine::<ClosedFormPll>());
    let cp_baseline = sweep_bits(&serial(CampaignPlan::new(cfg.clone())).engine::<CpPll>());

    prop_check!(cases: 24, |g| {
        let behavioural = g.bool();
        let checkpoint = g.bool();
        let supervised = g.bool();
        let observed = g.bool();
        let threads = g.pick(&[1usize, 2, 4, 8]);
        let scheduler = if threads == 1 {
            Scheduler::Serial
        } else {
            Scheduler::WorkStealing { threads }
        };
        let mut plan = CampaignPlan::new(cfg.clone())
            .lock_settle(0.1)
            .checkpoint(checkpoint)
            .scheduler(scheduler);
        if supervised {
            plan = plan.supervised(SupervisorPolicy::default());
        }
        if observed {
            plan = plan.observed(Arc::new(CampaignObserver::new(
                TONES.len(),
                threads,
                ObservatoryConfig::default(),
            )));
        }
        let label = format!(
            "engine {} checkpoint {checkpoint} supervised {supervised} \
             observed {observed} threads {threads}",
            if behavioural { "cp_pll" } else { "closed_form" },
        );
        let (bits, want) = if behavioural {
            (sweep_bits(&plan.engine::<CpPll>()), &cp_baseline)
        } else {
            (sweep_bits(&plan.engine::<ClosedFormPll>()), &closed_baseline)
        };
        prop_assert_eq!(&bits, want, "{}", label);
        Ok(())
    });
}

#[test]
fn plan_header_round_trips_and_rejects_backend_mismatch() {
    let cfg = PllConfig::paper_table3();
    let tones = [1.0, 4.0, 16.0];
    let plan = CampaignPlan::new(cfg.clone())
        .engine::<CpPll>()
        .lock_settle(0.25)
        .checkpoint(false)
        .supervised(SupervisorPolicy::default());
    let line = plan.header_line(&tones, "matrix");

    // Round trip: same digest, byte-identical re-serialisation.
    let back = CampaignPlan::<CpPll>::from_header(&line, cfg.clone(), &tones, "matrix")
        .expect("own backend round-trips");
    assert_eq!(back.digest(&tones, "matrix"), plan.digest(&tones, "matrix"));
    assert_eq!(back.header_line(&tones, "matrix"), line);

    // A header written by a different backend must be refused: loading
    // behavioural results into a closed-form campaign would silently
    // mix physics.
    let err = CampaignPlan::<ClosedFormPll>::from_header(&line, cfg, &tones, "matrix")
        .expect_err("backend mismatch must be rejected");
    assert!(
        matches!(err, CampaignError::HeaderMismatch { .. }),
        "wrong error: {err}"
    );
}

#[test]
fn scheduling_knobs_never_touch_the_digest() {
    // The digest names the *work*, not the execution policy: the same
    // campaign resumed on a different machine (thread count, observer,
    // telemetry) must hash identically — while any result-affecting
    // option must not.
    let cfg = PllConfig::paper_table3();
    let tones = [2.0, 9.0, 30.0];
    let base = CampaignPlan::new(cfg.clone()).supervised(SupervisorPolicy::default());
    let digest = base.digest(&tones, "matrix");
    let rescheduled = base
        .clone()
        .scheduler(Scheduler::WorkStealing { threads: 16 })
        .observed(Arc::new(CampaignObserver::new(
            tones.len(),
            16,
            ObservatoryConfig::default(),
        )));
    assert_eq!(rescheduled.digest(&tones, "matrix"), digest);
    // Checkpointing is proven result-neutral (the standing bitwise
    // invariant), so it is digest-neutral too.
    assert_eq!(
        base.clone().checkpoint(false).digest(&tones, "matrix"),
        digest
    );
    assert_ne!(base.clone().unsupervised().digest(&tones, "matrix"), digest);
    assert_ne!(base.digest(&tones, "other-salt"), digest);
}

/// Asserts that a supervised header for `E` on `grid` under salt `"s"`
/// that carries the `earlier` digest is refused.
fn refuses_earlier_header<E: PllEngine>(earlier: &str, grid: &[f64]) {
    let line = format!(
        "{{\"type\":\"campaign\",\"digest\":\"{earlier}\",\"points\":{},\
         \"backend\":\"{}\",\"checkpoint\":true,\"supervised\":true}}",
        grid.len(),
        E::backend_name()
    );
    assert!(matches!(
        CampaignPlan::<E>::from_header(&line, PllConfig::paper_table3(), grid, "s"),
        Err(CampaignError::HeaderMismatch { .. })
    ));
}

#[test]
fn digests_survive_the_fixed_supervision_ladder() {
    // Fixing the ladder's thresholds moved no digest: the supervised
    // salt keeps their settable-field text. These pins were
    // 23419d42017a58c2 (supervised) and 358e70fd07c866cd until the
    // stimulus revision entered every digest (see
    // `sine_digests_moved_once_with_the_phase_inverse`); results files
    // and job directories written before it are then refused, since
    // their sine edges sit ulps from the ones recomputed now.
    let grid = [3.0, 9.0];
    let plan = CampaignPlan::new(PllConfig::paper_table3()).engine::<ClosedFormPll>();
    let supervised = plan.clone().supervised(SupervisorPolicy::default());
    assert_eq!(supervised.digest(&grid, "s"), "e5576d2660b1873e");
    assert_eq!(plan.digest(&grid, "s"), "048ca7a66c518c41");
}

#[test]
fn sine_digests_moved_once_with_the_phase_inverse() {
    // Seeding the sine phase inverse from its sixth-order series moved
    // every backend's sine-driven bits by ulps, and the stimulus
    // revision in the plan salt moved every digest with them: a header
    // written with the earlier edges is refused, never resumed into the
    // new ones.
    let grid = [3.0, 9.0];
    let plan = CampaignPlan::new(PllConfig::paper_table3());
    let mixed = plan.clone().engine::<MixedSignalPll>();
    let supervised = mixed.clone().supervised(SupervisorPolicy::default());
    // Earlier: 8da9972b4e1756e9 (supervised) and 3734f67de5a333e6.
    assert_eq!(supervised.digest(&grid, "s"), "f28deb50ba8c1d33");
    assert_eq!(mixed.digest(&grid, "s"), "68486c5b0f859020");
    refuses_earlier_header::<CpPll>("aa0ab29046638123", &grid);
    refuses_earlier_header::<ClosedFormPll>("23419d42017a58c2", &grid);
    refuses_earlier_header::<MixedSignalPll>("8da9972b4e1756e9", &grid);
}

#[test]
fn cp_pll_digests_moved_once_with_its_bits() {
    // `CpPll`'s closed-form segments moved its in-class bits, and its
    // digest tag moved with them: a header (results file, sidecar, job)
    // written with the earlier bits is refused, never resumed into the
    // new ones. The earlier digests were 4fc3afe96d160ab9 (supervised)
    // and 3c284bca4f701c96. They moved once more with the stimulus
    // revision, from aa0ab29046638123 (supervised) and
    // ea1a9f93242d29f0.
    let grid = [3.0, 9.0];
    let plan = CampaignPlan::new(PllConfig::paper_table3());
    let supervised = plan.clone().supervised(SupervisorPolicy::default());
    assert_eq!(supervised.digest(&grid, "s"), "7f463671a037f445");
    assert_eq!(plan.digest(&grid, "s"), "8b775e71f0ac822a");
    refuses_earlier_header::<CpPll>("4fc3afe96d160ab9", &grid);
}

#[test]
fn supervision_travels_as_one_flag() {
    let grid = [3.0, 9.0];
    let supervised = CampaignPlan::new(PllConfig::paper_table3())
        .engine::<ClosedFormPll>()
        .supervised(SupervisorPolicy::default());
    assert_eq!(
        supervised.header_line(&grid, "s"),
        "{\"type\":\"campaign\",\"digest\":\"e5576d2660b1873e\",\"points\":2,\
         \"backend\":\"closed_form\",\"checkpoint\":true,\"supervised\":true}"
    );
    let parse = |line: &str| {
        CampaignPlan::<ClosedFormPll>::from_header(line, PllConfig::paper_table3(), &grid, "s")
    };
    let back = parse(&supervised.header_line(&grid, "s")).expect("round trip");
    assert_eq!(back.supervision(), Some(&SupervisorPolicy::default()));
    // Threshold keys are not read: hostile values under the ladder's
    // digest parse to the ladder.
    let hostile = "{\"type\":\"campaign\",\"digest\":\"e5576d2660b1873e\",\"points\":2,\
         \"backend\":\"closed_form\",\"checkpoint\":true,\"supervised\":true,\
         \"max_retries\":4000000000,\"retry_step_scale_bits\":\"0000000000000000\",\
         \"retry_settle_scale_bits\":\"412e848000000000\",\"step_budget\":0,\
         \"rail_margin_bits\":\"7ff8000000000000\",\"rail_overshoot_bits\":\"0000000000000000\",\
         \"rail_streak_limit\":0,\"rails_lo_bits\":\"7ff0000000000000\",\
         \"rails_hi_bits\":\"fff0000000000000\"}";
    let back = parse(hostile).expect("threshold keys are ignored");
    assert_eq!(back.supervision(), Some(&SupervisorPolicy::default()));
    // A header written for another ladder (max_retries 1) carries a
    // digest over that ladder, so it is refused.
    let other_ladder = "{\"type\":\"campaign\",\"digest\":\"df312905f6f9fec9\",\"points\":2,\
         \"backend\":\"closed_form\",\"checkpoint\":true,\"supervised\":true,\
         \"max_retries\":1,\"retry_step_scale_bits\":\"3fe0000000000000\",\
         \"retry_settle_scale_bits\":\"3ff8000000000000\",\"step_budget\":10000000,\
         \"rail_margin_bits\":\"3e112e0be826d695\",\"rail_overshoot_bits\":\"4024000000000000\",\
         \"rail_streak_limit\":256}";
    assert!(matches!(
        parse(other_ladder),
        Err(CampaignError::HeaderMismatch { .. })
    ));
}
