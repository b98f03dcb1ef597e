//! Reference equivalence: the live service vs the batch engine.
//!
//! The service admits queries at runtime through the stepped engine; a batch
//! walk of the same engine runs a static `QuerySet` to completion. The
//! two must be the *same* computation: replaying the schedule a load run
//! realized as a static query set yields bit-identical per-user logs. This
//! is the contract that keeps every existing shared-vs-naive proof relevant
//! for the service path — and it pins the service's determinism (same seed,
//! same bytes) the CI smoke relies on.

use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::{SteppedSim, TreeSharing};
use mobiquery_repro::service::load::{arrival_schedule, run_load};

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(90)
        .with_region_side(300.0)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed)
}

/// Replays a load run's realized schedule as a static `QuerySet` and
/// compares per-user logs byte for byte, for both sharing modes.
#[test]
fn load_schedule_replayed_as_static_query_set_is_log_identical() {
    for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
        let qps = 2.0;
        let duration = 20u64;
        let outcome = run_load(scenario(42), qps, duration, sharing, None).unwrap();
        assert!(outcome.report.submitted > 0, "load must admit queries");

        // The service overrode the scenario duration to the load horizon;
        // the replay must pin the same horizon.
        let period_s = scenario(42).query.period.as_secs_f64();
        let replay_scenario = scenario(42).with_duration_secs(duration as f64 * period_s);
        let mut batch =
            SteppedSim::new(replay_scenario, outcome.query_set.clone(), sharing).unwrap();
        batch.run_to_end().unwrap();
        let replay = batch.finish();

        assert_eq!(
            outcome.output.logs, replay.logs,
            "{sharing:?}: live service logs != static replay logs"
        );
        assert_eq!(outcome.output, replay, "{sharing:?}: full outputs differ");
    }
}

/// The shared-vs-naive proof carries over to service runs: same logs, fewer
/// trees.
#[test]
fn service_load_shared_equals_naive_per_user() {
    let shared = run_load(scenario(7), 3.0, 16, TreeSharing::Shared, None).unwrap();
    let naive = run_load(scenario(7), 3.0, 16, TreeSharing::Naive, None).unwrap();
    assert_eq!(shared.output.logs, naive.output.logs);
    assert_eq!(
        shared.report.mean_success_ratio,
        naive.report.mean_success_ratio
    );
    assert_eq!(shared.report.latency_periods, naive.report.latency_periods);
    assert!(shared.report.trees_built <= naive.report.trees_built);
    assert_eq!(naive.report.trees_built, naive.report.installs);
}

/// The arrival schedule and the full report are stable for a fixed seed and
/// differ across seeds (the schedule really is seed-derived).
#[test]
fn load_is_seed_stable_and_seed_sensitive() {
    let period_s = scenario(0).query.period.as_secs_f64();
    assert_eq!(
        arrival_schedule(42, 4.0, 40, period_s),
        arrival_schedule(42, 4.0, 40, period_s)
    );
    assert_ne!(
        arrival_schedule(42, 4.0, 40, period_s),
        arrival_schedule(1, 4.0, 40, period_s)
    );

    let a = run_load(scenario(5), 2.0, 12, TreeSharing::Shared, None).unwrap();
    let b = run_load(scenario(5), 2.0, 12, TreeSharing::Shared, None).unwrap();
    assert_eq!(
        a.report.to_json().to_pretty_string(),
        b.report.to_json().to_pretty_string(),
        "same seed, same bytes"
    );
    let c = run_load(scenario(6), 2.0, 12, TreeSharing::Shared, None).unwrap();
    assert_ne!(
        a.report, c.report,
        "different deployment seed, different run"
    );
}
