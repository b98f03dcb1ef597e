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
//! Each run pins an FNV-1a digest of every user's query log, the churn and
//! fault counters summed over the run, the tree accounting, the exact bits
//! of the sleeping-node wake seconds and an FNV-1a digest of the final
//! backbone. Refactoring the engine must leave every value as it is.
//!
//! To regenerate the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! MOBIQUERY_BLESS=1 cargo test --release --test golden_churned_faults
//! ```

use mobiquery_repro::metrics::{ChurnBatch, JsonValue, QueryLog, ResilienceSummary};
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::{
    ChurnConfig, FaultConfig, QuerySet, SimOptions, SteppedSim, TreeSharing,
};

const GOLDEN: &str = include_str!("golden/churned_faults.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/churned_faults.json"
);

const SEEDS: [u64; 3] = [1, 2, 3];
const USERS: usize = 12;
const CHURN_RATE: f64 = 0.05;
const LOSS: f64 = 0.05;
const CRASH_RATE: f64 = 0.03;

fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(300)
        .with_region_side(500.0)
        .with_duration_secs(60.0)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed)
}

/// 64-bit FNV-1a over a sequence of words, each in little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for v in words {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01B3);
        }
    }
    h
}

/// FNV-1a over every field of every record, in log order.
fn log_digest(log: &QueryLog) -> u64 {
    fnv1a(log.records().iter().flat_map(|r| {
        [
            r.seq,
            r.deadline.as_micros(),
            r.delivered_at.map_or(u64::MAX, |t| t.as_micros()),
            r.contributing_nodes as u64,
            r.nodes_in_area as u64,
        ]
    }))
}

fn run_json(seed: u64, sharing: TreeSharing) -> JsonValue {
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
    let faults = ResilienceSummary::from_batches(sim.fault_log());
    let backbone = fnv1a(sim.backbone_slots().into_iter().map(u64::from));
    let out = sim.finish();

    // Every batch was checked against a full re-election, and the crash
    // schedule drove both repair paths over the churned topology.
    assert!(
        !churn.is_empty() && churn.iter().all(|b| b.verified == Some(true)),
        "seed {seed} {sharing:?}: a churn batch went unverified"
    );
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

    let sum = |field: fn(&ChurnBatch) -> usize| churn.iter().map(field).sum::<usize>();
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
        .with("churn_batches", churn.len())
        .with("deaths", sum(|b| b.deaths))
        .with("evaluated", sum(|b| b.evaluated))
        .with("promoted", sum(|b| b.promoted))
        .with("demoted", sum(|b| b.demoted))
        .with("dirty_cells", sum(|b| b.dirty_cells))
        .with("backbone_fnv1a", backbone)
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
fn churned_faulted_runs_match_golden_values_in_both_sharing_modes() {
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
        .with("churn_rate", CHURN_RATE)
        .with("loss", LOSS)
        .with("crash_rate", CRASH_RATE)
        .with("runs", runs)
        .to_pretty_string();
    if std::env::var_os("MOBIQUERY_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("the golden file is writable");
        return;
    }
    assert!(
        got == GOLDEN,
        "churned, faulted run values diverged from tests/golden/churned_faults.json.\n\
         got:\n{got}\n\
         Refactoring must not change simulation results; if this change is \
         deliberate, regenerate the snapshot (see this test's module docs)."
    );
}
