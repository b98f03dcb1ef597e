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
//! Each run pins an FNV-1a digest of every user's query log, the fault log's
//! counters summed over the run, the tree accounting and the exact bits of
//! the sleeping-node wake seconds. Refactoring the engine must leave every
//! value as it is.
//!
//! To regenerate the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! MOBIQUERY_BLESS=1 cargo test --release --test golden_faulted_modes
//! ```

use mobiquery_repro::metrics::{JsonValue, QueryLog, ResilienceSummary};
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::{FaultConfig, QuerySet, SimOptions, SteppedSim, TreeSharing};

const GOLDEN: &str = include_str!("golden/faulted_modes.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/faulted_modes.json"
);

const SEEDS: [u64; 3] = [1, 2, 3];
const USERS: usize = 12;

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(300)
        .with_region_side(500.0)
        .with_duration_secs(60.0)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed)
}

/// 64-bit FNV-1a over every field of every record, in log order.
fn log_digest(log: &QueryLog) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in log.records() {
        for v in [
            r.seq,
            r.deadline.as_micros(),
            r.delivered_at.map_or(u64::MAX, |t| t.as_micros()),
            r.contributing_nodes as u64,
            r.nodes_in_area as u64,
        ] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

fn run_json(seed: u64, sharing: TreeSharing) -> JsonValue {
    let scenario = scenario(seed);
    let set = QuerySet::generate(&scenario, USERS);
    let options = SimOptions {
        faults: Some(FaultConfig::new(0.05).with_crash_rate(0.05)),
        ..SimOptions::default()
    };
    let mut sim = SteppedSim::with_options(scenario, set, sharing, options)
        .expect("the golden scenarios are valid");
    sim.run_to_end().expect("a faulted run steps to the end");
    let faults = ResilienceSummary::from_batches(sim.fault_log());
    let out = sim.finish();

    // The pinned values must cover both repair paths the crash schedule
    // drives: rebuilds in either mode, and root-crash fallbacks to a
    // per-query tree when trees are shared.
    assert!(
        faults.trees_rebuilt > 0,
        "seed {seed} {sharing:?}: no tree was rebuilt"
    );
    if sharing == TreeSharing::Shared {
        assert!(
            faults.naive_fallbacks > 0,
            "seed {seed}: no shared tree fell back to a per-query tree"
        );
    }

    let digests: Vec<JsonValue> = out
        .logs
        .iter()
        .map(|log| JsonValue::from(log_digest(log)))
        .collect();
    JsonValue::object()
        .with("seed", seed)
        .with("sharing", sharing.as_str())
        .with("installs", out.installs)
        .with("trees_built", out.trees_built)
        .with("shared_hits", out.shared_hits)
        .with("peak_live_trees", out.peak_live_trees)
        .with("node_wake_seconds_bits", out.node_wake_seconds.to_bits())
        .with("link_bad_node_periods", faults.link_bad_node_periods)
        .with("crashes", faults.crashes)
        .with("install_attempts", faults.install_attempts)
        .with("retries", faults.retries)
        .with("install_failures", faults.install_failures)
        .with("trees_rebuilt", faults.trees_rebuilt)
        .with("naive_fallbacks", faults.naive_fallbacks)
        .with("retry_energy_j_bits", faults.retry_energy_j.to_bits())
        .with("query_log_fnv1a", digests)
}

#[test]
fn faulted_runs_match_golden_values_in_both_sharing_modes() {
    let mut runs = Vec::new();
    for seed in SEEDS {
        for sharing in [TreeSharing::Shared, TreeSharing::Naive] {
            runs.push(run_json(seed, sharing));
        }
    }
    let got = JsonValue::object()
        .with("nodes", 300u64)
        .with("region_side_m", 500.0)
        .with("duration_s", 60.0)
        .with("users", USERS)
        .with("loss", 0.05)
        .with("crash_rate", 0.05)
        .with("runs", runs)
        .to_pretty_string();
    if std::env::var_os("MOBIQUERY_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("the golden file is writable");
        return;
    }
    assert!(
        got == GOLDEN,
        "faulted-run values diverged from tests/golden/faulted_modes.json.\n\
         got:\n{got}\n\
         Refactoring must not change simulation results; if this change is \
         deliberate, regenerate the snapshot (see this test's module docs)."
    );
}
