//! Golden values for churn and fault injection in one run.
//!
//! Six runs of the stepped multi-user engine: 300 nodes on a 500 m side for
//! 60 s, 12 users, seeds 1–3, once with shared trees and once with one tree
//! per query. Every run churns 5% of the nodes at each boundary (each batch
//! checked against a full re-election) while 5% stationary link loss strikes
//! installs and 3% of the nodes crash mid-period. So every boundary repairs
//! the backbone and then rebuilds the trees the crashes poisoned, over the
//! repaired topology. The churn, resilience and faulted-modes goldens each
//! run one of these layers alone; this file pins them together.
//!
//! Each seed must give every user the same query log in both modes (see
//! the `faulted` module), and pins those logs beside each mode's churn and
//! fault counters, tree accounting and final-backbone digest. Refactoring
//! the engine must leave every value as it is.
//!
//! To regenerate the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! MOBIQUERY_BLESS=1 cargo test --release --test golden_churned_faults
//! ```

mod faulted;

use faulted::{fnv1a, scenario, USERS};
use mobiquery_repro::metrics::{ChurnBatch, JsonValue};
use mobiquery_repro::mobiquery::sim::{
    ChurnConfig, FaultConfig, MultiUserOutput, QuerySet, SimOptions, SteppedSim, TreeSharing,
};

const CHURN_RATE: f64 = 0.05;
const LOSS: f64 = 0.05;
const CRASH_RATE: f64 = 0.03;

fn run(seed: u64, sharing: TreeSharing) -> (MultiUserOutput, JsonValue) {
    let scenario = scenario(seed);
    let set = QuerySet::generate(&scenario, USERS);
    let options = SimOptions {
        churn: Some(ChurnConfig {
            rate: CHURN_RATE,
            verify: true,
        }),
        faults: Some(FaultConfig::new(LOSS).with_crash_rate(CRASH_RATE)),
    };
    let mut sim = SteppedSim::with_options(scenario, set, sharing, options)
        .expect("the golden scenarios are valid");
    sim.run_to_end()
        .expect("a churned, faulted run steps to the end");
    let churn = sim.churn_log().to_vec();
    let backbone = fnv1a(sim.backbone_slots().into_iter().map(u64::from));
    // Every batch was checked against a full re-election.
    assert!(
        !churn.is_empty() && churn.iter().all(|b| b.verified == Some(true)),
        "seed {seed} {sharing:?}: a churn batch went unverified"
    );
    let sum = |field: fn(&ChurnBatch) -> usize| churn.iter().map(field).sum::<usize>();
    faulted::finish(sim, seed, sharing, |pinned| {
        pinned
            .with("churn_batches", churn.len())
            .with("deaths", sum(|b| b.deaths))
            .with("evaluated", sum(|b| b.evaluated))
            .with("promoted", sum(|b| b.promoted))
            .with("demoted", sum(|b| b.demoted))
            .with("dirty_cells", sum(|b| b.dirty_cells))
            .with("backbone_fnv1a", backbone)
    })
}

#[test]
fn churned_faulted_runs_match_golden_values_in_both_sharing_modes() {
    let header = JsonValue::object()
        .with("nodes", 300u64)
        .with("region_side_m", 500.0)
        .with("duration_s", 60.0)
        .with("users", USERS)
        .with("churn_rate", CHURN_RATE)
        .with("loss", LOSS)
        .with("crash_rate", CRASH_RATE);
    faulted::check(
        header,
        run,
        include_str!("golden/churned_faults.json"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/churned_faults.json"
        ),
    );
}
