//! Golden values for crash recovery in both tree-sharing modes.
//!
//! Six runs of the stepped multi-user engine: 300 nodes on a 500 m side for
//! 60 s, 12 users, 5% stationary link loss and 5% of the nodes crashing
//! mid-period at every boundary, seeds 1–3, once with shared trees and once
//! with one tree per query. Crashes poison standing trees, so every run
//! rebuilds trees around the victims; in shared mode some trees also lose
//! their root and fall back to a per-query tree rooted at the nearest live
//! backbone node. The resilience golden, its sweep and the benchmark's
//! faulted workload all run shared trees only, so this file is what pins the
//! naive mode's recovery.
//!
//! Each seed must give every user the same query log in both modes (see
//! the `faulted` module), and pins those logs beside each mode's fault
//! counters and tree accounting. Refactoring the engine must leave every
//! value as it is.
//!
//! To regenerate the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! MOBIQUERY_BLESS=1 cargo test --release --test golden_faulted_modes
//! ```

mod faulted;

use faulted::{scenario, USERS};
use mobiquery_repro::metrics::JsonValue;
use mobiquery_repro::mobiquery::sim::{
    FaultConfig, MultiUserOutput, QuerySet, SimOptions, SteppedSim, TreeSharing,
};

fn run(seed: u64, sharing: TreeSharing) -> (MultiUserOutput, JsonValue) {
    let scenario = scenario(seed);
    let set = QuerySet::generate(&scenario, USERS);
    let options = SimOptions {
        faults: Some(FaultConfig::new(0.05).with_crash_rate(0.05)),
        ..SimOptions::default()
    };
    let mut sim = SteppedSim::with_options(scenario, set, sharing, options)
        .expect("the golden scenarios are valid");
    sim.run_to_end().expect("a faulted run steps to the end");
    faulted::finish(sim, seed, sharing, |pinned| pinned)
}

#[test]
fn faulted_runs_match_golden_values_in_both_sharing_modes() {
    let header = JsonValue::object()
        .with("nodes", 300u64)
        .with("region_side_m", 500.0)
        .with("duration_s", 60.0)
        .with("users", USERS)
        .with("loss", 0.05)
        .with("crash_rate", 0.05);
    faulted::check(
        header,
        run,
        include_str!("golden/faulted_modes.json"),
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/faulted_modes.json"
        ),
    );
}
