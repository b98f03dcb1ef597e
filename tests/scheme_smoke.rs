//! Smoke test: the unmodified paper-default scenario round-trips through the
//! full simulation for every prefetching scheme.
//!
//! This is deliberately the rawest possible use of the public API — exactly
//! what the README quickstart shows — so a regression in `Scenario`
//! validation, substrate assembly, or any scheme's event loop fails loudly
//! even if the tuned end-to-end assertions in `end_to_end.rs` are skipped.

use mobiquery_repro::geom::{Point, Rect};
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::Simulation;
use mobiquery_repro::power::ccp::{elect_backbone_priority, elect_backbone_reference, CcpConfig};
use mobiquery_repro::sim::SimRng;

#[test]
fn invalid_scenario_values_are_config_errors_not_panics() {
    let mut cases = Vec::new();
    for bad in [f64::NAN, f64::INFINITY] {
        let s = Scenario::paper_default().with_duration_secs(bad);
        cases.push((format!("duration {bad}"), s));
    }
    for bad in [0.0, f64::NAN] {
        let mut s = Scenario::paper_default();
        s.ccp.sample_spacing_m = bad;
        cases.push((format!("CCP sample spacing {bad}"), s));
    }
    for bad in [0.0, f64::INFINITY] {
        let mut s = Scenario::paper_default();
        s.ccp.sensing_range_m = bad;
        cases.push((format!("CCP sensing range {bad}"), s));
    }
    for (what, s) in cases {
        assert!(
            Simulation::new(s).is_err(),
            "{what} must be rejected by validation"
        );
    }
}

#[test]
fn an_election_past_the_coverage_count_limit_is_a_config_error() {
    // In a 20 m square every 50 m sensing disk covers every sample point, so
    // n nodes count n at each one. The raster's 16-bit counts hold 65 535.
    let crowd = |n| {
        Scenario::paper_default()
            .with_node_count(n)
            .with_region_side(20.0)
    };
    assert!(Simulation::new(crowd(65_535)).is_ok());
    let err = Simulation::new(crowd(65_536)).expect_err("65 536 disks overflow a count");
    assert!(err.to_string().contains("65535"), "{err}");
}

#[test]
fn backbone_membership_matches_pinned_snapshot() {
    // The CCP election is a pure function of (deployment, priorities,
    // config); the coverage-raster rewrite (and any future election speedup)
    // must keep it byte-identical to the per-point reference, so the exact
    // membership for one fixed seed is pinned here. If this fails, election
    // behaviour changed — that is never a legitimate side effect of
    // performance work.
    let mut rng = SimRng::seed_from_u64(20250729);
    let positions: Vec<Point> = (0..60)
        .map(|_| Point::new(rng.gen_range_f64(0.0, 200.0), rng.gen_range_f64(0.0, 200.0)))
        .collect();
    let mut rng = SimRng::seed_from_u64(7);
    let priority: Vec<u64> = positions.iter().map(|_| rng.next_u64()).collect();
    let alive: Vec<usize> = (0..positions.len()).collect();
    let (region, config) = (Rect::square(200.0), CcpConfig::paper_default());
    let roles = elect_backbone_priority(&positions, &priority, &alive, region, &config).unwrap();
    assert_eq!(
        roles,
        elect_backbone_reference(&positions, &priority, &alive, region, &config)
    );
    let backbone: Vec<usize> = roles
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_backbone())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(backbone, [12, 19, 22, 30, 33, 37, 40, 44, 46, 49, 54, 56]);
}

#[test]
fn paper_default_round_trips_through_every_scheme() {
    for scheme in [Scheme::JustInTime, Scheme::Greedy, Scheme::None] {
        let scenario = Scenario::paper_default().with_scheme(scheme);
        let out = Simulation::new(scenario)
            .unwrap_or_else(|e| panic!("{scheme}: paper-default scenario must validate: {e}"))
            .run();
        assert!(
            !out.query_log.is_empty(),
            "{scheme}: a full paper-default run must score at least one query"
        );
        for record in out.query_log.records() {
            let fidelity = record.fidelity();
            assert!(
                (0.0..=1.0).contains(&fidelity),
                "{scheme}: fidelity {fidelity} out of range"
            );
        }
    }
}
