//! End-to-end integration tests spanning the whole workspace: run the full
//! protocol simulation on moderately sized scenarios and assert the paper's
//! qualitative results.

use mobiquery_repro::mobility::ProfileSource;
use mobiquery_repro::mobiquery::analysis;
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::Simulation;

/// A mid-sized scenario: large enough for the qualitative effects to show,
/// small enough to keep the test suite quick in debug builds.
fn scenario(scheme: Scheme, sleep_s: f64, seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(120)
        .with_region_side(350.0)
        .with_duration_secs(120.0)
        .with_sleep_period_secs(sleep_s)
        .with_scheme(scheme)
        .with_seed(seed)
}

#[test]
fn every_scheme_scores_every_period() {
    for scheme in [Scheme::JustInTime, Scheme::Greedy, Scheme::None] {
        let out = Simulation::new(scenario(scheme, 9.0, 1)).unwrap().run();
        assert_eq!(out.query_log.len(), 60, "{scheme}: one record per period");
        for record in out.query_log.records() {
            let fidelity = record.fidelity();
            assert!((0.0..=1.0).contains(&fidelity));
        }
    }
}

#[test]
fn paper_ordering_jit_beats_greedy_beats_np() {
    // The headline comparison of Figure 4 at a long sleep period.
    let jit = Simulation::new(scenario(Scheme::JustInTime, 15.0, 3))
        .unwrap()
        .run();
    let gp = Simulation::new(scenario(Scheme::Greedy, 15.0, 3))
        .unwrap()
        .run();
    let np = Simulation::new(scenario(Scheme::None, 15.0, 3))
        .unwrap()
        .run();
    assert!(
        jit.mean_fidelity >= gp.mean_fidelity - 0.02,
        "JIT fidelity ({:.3}) should be at least greedy's ({:.3})",
        jit.mean_fidelity,
        gp.mean_fidelity
    );
    assert!(
        gp.mean_fidelity > np.mean_fidelity + 0.1,
        "greedy fidelity ({:.3}) should clearly beat NP ({:.3})",
        gp.mean_fidelity,
        np.mean_fidelity
    );
    assert!(jit.success_ratio > np.success_ratio + 0.3);
}

#[test]
fn prefetching_is_what_rescues_low_duty_cycles() {
    // NP degrades sharply as the sleep period grows; JIT barely moves.
    let jit_short = Simulation::new(scenario(Scheme::JustInTime, 3.0, 5))
        .unwrap()
        .run();
    let jit_long = Simulation::new(scenario(Scheme::JustInTime, 15.0, 5))
        .unwrap()
        .run();
    let np_short = Simulation::new(scenario(Scheme::None, 3.0, 5))
        .unwrap()
        .run();
    let np_long = Simulation::new(scenario(Scheme::None, 15.0, 5))
        .unwrap()
        .run();
    assert!(np_long.mean_fidelity < np_short.mean_fidelity - 0.1);
    assert!(jit_long.mean_fidelity > 0.9);
    assert!(jit_long.mean_fidelity - np_long.mean_fidelity > 0.4);
    assert!(jit_short.success_ratio > np_short.success_ratio);
}

#[test]
fn jit_storage_respects_equation_12_and_greedy_does_not() {
    let jit = Simulation::new(scenario(Scheme::JustInTime, 9.0, 7))
        .unwrap()
        .run();
    let gp = Simulation::new(scenario(Scheme::Greedy, 9.0, 7))
        .unwrap()
        .run();
    let params = scenario(Scheme::JustInTime, 9.0, 7).analysis_params();
    let bound = analysis::prefetch_length_jit(&params) as usize;
    // Eq. 12 bounds the trees standing at once, the current query's
    // included, so at most PLjit − 1 stand ahead of it.
    assert!(
        jit.max_prefetch_length < bound,
        "JIT prefetch length {} must stay below the Eq. 12 bound {}",
        jit.max_prefetch_length,
        bound
    );
    assert!(
        gp.max_prefetch_length > 3 * bound,
        "greedy prefetch length {} should far exceed the JIT bound {}",
        gp.max_prefetch_length,
        bound
    );
}

#[test]
fn greedy_prefetching_causes_more_channel_losses() {
    let jit = Simulation::new(scenario(Scheme::JustInTime, 15.0, 9))
        .unwrap()
        .run();
    let gp = Simulation::new(scenario(Scheme::Greedy, 15.0, 9))
        .unwrap()
        .run();
    assert!(
        gp.loss_rate() > jit.loss_rate(),
        "greedy loss rate ({:.3}) should exceed JIT's ({:.3})",
        gp.loss_rate(),
        jit.loss_rate()
    );
}

#[test]
fn warmup_after_late_profiles_matches_the_bound_direction() {
    // Later profiles (smaller Ta) -> lower success ratio, as in Figure 6.
    let mut last = f64::NEG_INFINITY;
    for advance in [-8.0, 0.0, 12.0] {
        let s = scenario(Scheme::JustInTime, 9.0, 11)
            .with_motion_change_interval(40.0)
            .with_planner_advance(advance);
        let out = Simulation::new(s).unwrap().run();
        assert!(
            out.success_ratio >= last - 0.05,
            "success ratio should not fall as Ta grows (Ta={advance}: {} < {})",
            out.success_ratio,
            last
        );
        last = out.success_ratio;
    }
}

#[test]
fn location_errors_cost_a_little_fidelity_but_not_much() {
    let exact = scenario(Scheme::JustInTime, 9.0, 13)
        .with_motion_change_interval(70.0)
        .with_predictor(8.0, 0.0);
    let noisy = scenario(Scheme::JustInTime, 9.0, 13)
        .with_motion_change_interval(70.0)
        .with_predictor(8.0, 10.0);
    let exact_out = Simulation::new(exact).unwrap().run();
    let noisy_out = Simulation::new(noisy).unwrap().run();
    assert!(noisy_out.mean_fidelity <= exact_out.mean_fidelity + 0.02);
    // Even with 10 m errors the service keeps working (Figure 7's message).
    assert!(noisy_out.mean_fidelity > 0.6);
}

#[test]
fn energy_overhead_of_the_query_service_is_small() {
    // Figure 8: MobiQuery adds well under 0.05 W per sleeping node, and power
    // falls as the sleep period grows.
    let short = Simulation::new(scenario(Scheme::JustInTime, 3.0, 15))
        .unwrap()
        .run();
    let long = Simulation::new(scenario(Scheme::JustInTime, 15.0, 15))
        .unwrap()
        .run();
    for out in [&short, &long] {
        assert!(out.query_power_overhead_w() < 0.05);
        assert!(out.mean_sleeping_power_w >= out.baseline_sleeping_power_w - 1e-9);
    }
    assert!(long.mean_sleeping_power_w < short.mean_sleeping_power_w);
}

#[test]
fn runs_are_reproducible_across_full_stack() {
    let a = Simulation::new(scenario(Scheme::Greedy, 9.0, 21))
        .unwrap()
        .run();
    let b = Simulation::new(scenario(Scheme::Greedy, 9.0, 21))
        .unwrap()
        .run();
    assert_eq!(a.query_log, b.query_log);
    assert_eq!(a.frames_sent, b.frames_sent);
    assert_eq!(a.trees_built, b.trees_built);
}

#[test]
fn oracle_planner_and_predictor_sources_all_work_end_to_end() {
    for source in [
        ProfileSource::Oracle,
        ProfileSource::Planner { advance_secs: 6.0 },
        ProfileSource::Predictor {
            sampling_period_secs: 8.0,
            gps: mobiquery_repro::mobility::GpsModel::standard(),
        },
    ] {
        let s = scenario(Scheme::JustInTime, 9.0, 23)
            .with_motion_change_interval(40.0)
            .with_profile_source(source);
        let out = Simulation::new(s).unwrap().run();
        assert!(out.trees_built > 0);
        assert!(
            out.mean_fidelity > 0.5,
            "source {source:?} fidelity too low"
        );
    }
}
