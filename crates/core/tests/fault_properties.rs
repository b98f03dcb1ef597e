//! Property-based contracts of the fault-injection and churn layers, and of
//! their composition through `SimOptions`.
//!
//! Two invariants keep chaos testing trustworthy. First, an option that has
//! nothing to do must be *inert*: a zero-rate fault plan, or a churn rate
//! whose every batch is empty, must leave the output byte-identical to the
//! engine without it in both sharing modes — the golden fixtures stay valid
//! with those layers compiled in. Second, the fault and churn schedules must
//! be pure functions of the scenario seed: the same seed replays the same
//! losses, crashes, retries and batches, which is what lets CI rerun a
//! faulted or churned target and compare the output byte for byte. Both hold
//! for churn and faults combined in one run, and every run — static or
//! churned — serves the backbone a from-scratch priority election elects.

use mobiquery::config::{Scenario, Scheme};
use mobiquery::sim::{ChurnConfig, FaultConfig, QuerySet, SimOptions, SteppedSim, TreeSharing};
use proptest::prelude::*;
use proptest::TestCaseResult;

fn scenario(seed: u64, nodes: usize, periods: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(nodes)
        .with_region_side(300.0)
        .with_duration_secs(2.0 * periods as f64)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed)
}

/// Debug renderings of one finished run — all three must be byte-stable
/// under every invariance property below.
struct Run {
    fault_log: String,
    churn_log: String,
    output: String,
}

fn run(scenario: Scenario, users: usize, sharing: TreeSharing, options: SimOptions) -> Run {
    let set = QuerySet::generate(&scenario, users);
    let mut sim = SteppedSim::with_options(scenario, set, sharing, options).expect("valid options");
    sim.run_to_end().expect("run completes");
    Run {
        fault_log: format!("{:?}", sim.fault_log()),
        // Every churn field but the wall-clock timings.
        churn_log: format!(
            "{:?}",
            sim.churn_log()
                .iter()
                .map(|b| (b.boundary, b.deaths, b.evaluated, b.promoted, b.demoted))
                .collect::<Vec<_>>()
        ),
        output: format!("{:?}", sim.finish()),
    }
}

fn run_plain(seed: u64, nodes: usize, periods: u64, users: usize, sharing: TreeSharing) -> String {
    let options = SimOptions::default();
    run(scenario(seed, nodes, periods), users, sharing, options).output
}

/// Runs the faulted engine and returns (debug of the fault log, debug of
/// the final output).
fn run_faulted(
    seed: u64,
    nodes: usize,
    periods: u64,
    users: usize,
    sharing: TreeSharing,
    fault: FaultConfig,
) -> (String, String) {
    let options = SimOptions {
        faults: Some(fault),
        ..SimOptions::default()
    };
    let r = run(scenario(seed, nodes, periods), users, sharing, options);
    (r.fault_log, r.output)
}

fn churn(rate: f64) -> ChurnConfig {
    ChurnConfig { rate, verify: true }
}

fn assert_zero_rate_is_inert(seed: u64, nodes: usize, users: usize) -> TestCaseResult {
    let periods = 10;
    for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
        let plain = run_plain(seed, nodes, periods, users, sharing);
        let (log, faulted) =
            run_faulted(seed, nodes, periods, users, sharing, FaultConfig::new(0.0));
        prop_assert_eq!(
            &faulted,
            &plain,
            "rate-0 faults must not perturb {:?}",
            sharing
        );
        prop_assert!(
            !log.contains("link_bad: [") || log.contains("link_bad: []"),
            "rate-0 plan must schedule nothing"
        );
    }
    Ok(())
}

fn assert_schedule_is_seed_deterministic(
    seed: u64,
    loss: f64,
    burst: f64,
    crash: f64,
) -> TestCaseResult {
    let fault = FaultConfig::new(loss)
        .with_burst(burst)
        .with_crash_rate(crash);
    let (nodes, periods, users) = (70, 10, 3);
    let first = run_faulted(seed, nodes, periods, users, TreeSharing::Shared, fault);
    let again = run_faulted(seed, nodes, periods, users, TreeSharing::Shared, fault);
    prop_assert_eq!(&again.0, &first.0, "same seed must replay the schedule");
    prop_assert_eq!(&again.1, &first.1, "same seed must replay the output");
    Ok(())
}

fn assert_plain_backbone_is_the_priority_election(seed: u64, nodes: usize) -> TestCaseResult {
    let scenario = scenario(seed, nodes, 4);
    let set = QuerySet::generate(&scenario, 2);
    let mut sim = SteppedSim::new(scenario, set, TreeSharing::Shared).expect("valid scenario");
    prop_assert_eq!(sim.backbone_slots(), sim.reference_reelection());
    sim.run_to_end().expect("plain run completes");
    prop_assert_eq!(sim.backbone_slots(), sim.reference_reelection());
    Ok(())
}

fn assert_empty_churn_is_inert(seed: u64, nodes: usize, users: usize) -> TestCaseResult {
    let periods = 8;
    // floor(rate × alive) = 0 at every boundary: each batch is logged, but
    // none changes the topology.
    let options = SimOptions {
        churn: Some(churn(0.9 / nodes as f64)),
        ..SimOptions::default()
    };
    for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
        let plain = run_plain(seed, nodes, periods, users, sharing);
        let churned = run(scenario(seed, nodes, periods), users, sharing, options);
        prop_assert_eq!(
            &churned.churn_log,
            &format!(
                "{:?}",
                (1..periods).map(|b| (b, 0, 0, 0, 0)).collect::<Vec<_>>()
            ),
            "every batch must be logged and empty"
        );
        prop_assert_eq!(
            &churned.output,
            &plain,
            "empty churn batches must not perturb {:?}",
            sharing
        );
    }
    Ok(())
}

fn assert_zero_rate_faults_are_inert_under_churn(seed: u64, rate: f64) -> TestCaseResult {
    let (nodes, periods, users) = (80, 8, 3);
    let churned = SimOptions {
        churn: Some(churn(rate)),
        ..SimOptions::default()
    };
    let both = SimOptions {
        faults: Some(FaultConfig::new(0.0)),
        ..churned
    };
    for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
        let plain = run(scenario(seed, nodes, periods), users, sharing, churned);
        let inert = run(scenario(seed, nodes, periods), users, sharing, both);
        prop_assert_eq!(&inert.churn_log, &plain.churn_log);
        prop_assert_eq!(
            &inert.output,
            &plain.output,
            "rate-0 faults must not perturb a churned {:?} run",
            sharing
        );
    }
    Ok(())
}

fn assert_churned_faulted_runs_are_seed_deterministic(
    seed: u64,
    rate: f64,
    loss: f64,
    crash: f64,
) -> TestCaseResult {
    let options = SimOptions {
        churn: Some(churn(rate)),
        faults: Some(FaultConfig::new(loss).with_crash_rate(crash)),
    };
    for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
        let first = run(scenario(seed, 80, 8), 4, sharing, options);
        let again = run(scenario(seed, 80, 8), 4, sharing, options);
        prop_assert_eq!(&again.fault_log, &first.fault_log);
        prop_assert_eq!(&again.churn_log, &first.churn_log);
        prop_assert_eq!(
            &again.output,
            &first.output,
            "churned + faulted {:?} output must replay from the seed",
            sharing
        );
    }
    Ok(())
}

proptest! {
    /// A zero-rate fault plan leaves both sharing modes byte-identical to
    /// the plain engine for arbitrary seeds and deployment sizes.
    #[test]
    fn zero_rate_faults_are_inert(
        seed in any::<u64>(),
        nodes in 40usize..110,
        users in 1usize..4,
    ) {
        assert_zero_rate_is_inert(seed, nodes, users)?;
    }

    /// The fault schedule and the faulted output are pure functions of the
    /// seed: the same seed replays both.
    #[test]
    fn fault_schedules_are_seed_deterministic(
        seed in any::<u64>(),
        loss in 0.01f64..0.6,
        burst in 1.0f64..8.0,
        crash in 0.0f64..0.1,
    ) {
        assert_schedule_is_seed_deterministic(seed, loss, burst, crash)?;
    }

    /// A plain run's backbone is exactly the from-scratch priority
    /// election, before and after the walk: static and churned runs share
    /// one election.
    #[test]
    fn plain_backbone_is_the_priority_election(
        seed in any::<u64>(),
        nodes in 40usize..140,
    ) {
        assert_plain_backbone_is_the_priority_election(seed, nodes)?;
    }

    /// A churn rate too small to kill anyone leaves the run byte-identical
    /// to the plain engine: no epoch bump, no neighbour-table rebuild.
    #[test]
    fn empty_churn_batches_are_inert(
        seed in any::<u64>(),
        nodes in 40usize..110,
        users in 1usize..4,
    ) {
        assert_empty_churn_is_inert(seed, nodes, users)?;
    }

    /// Zero-rate faults layered on a churned run change nothing.
    #[test]
    fn zero_rate_faults_are_inert_under_churn(
        seed in any::<u64>(),
        rate in 0.02f64..0.15,
    ) {
        assert_zero_rate_faults_are_inert_under_churn(seed, rate)?;
    }

    /// Churn and faults compose in one run, and the combined output is a
    /// pure function of the seed.
    #[test]
    fn churned_faulted_runs_are_seed_deterministic(
        seed in any::<u64>(),
        rate in 0.02f64..0.15,
        loss in 0.01f64..0.5,
        crash in 0.0f64..0.1,
    ) {
        assert_churned_faulted_runs_are_seed_deterministic(seed, rate, loss, crash)?;
    }
}
