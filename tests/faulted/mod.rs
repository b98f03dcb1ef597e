//! What the two faulted goldens share. A tree key names everything its
//! flood read, whether a repair left crash victims out included, so
//! sharing changes no user's results under crashes either: per seed,
//! [`check`] requires every user's query log to be the same in both
//! tree-sharing modes and sharing to wake the sleeping nodes for less, then
//! pins one FNV-1a digest per user's log beside each mode's values.

use mobiquery_repro::metrics::{JsonValue, QueryLog, ResilienceSummary};
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::{MultiUserOutput, SteppedSim, TreeSharing};

const SEEDS: [u64; 3] = [1, 2, 3];
pub const USERS: usize = 12;

/// 300 nodes on a 500 m side for 60 s of MQ-JIT.
pub fn scenario(seed: u64) -> Scenario {
    Scenario::paper_default()
        .with_node_count(300)
        .with_region_side(500.0)
        .with_duration_secs(60.0)
        .with_scheme(Scheme::JustInTime)
        .with_seed(seed)
}

/// 64-bit FNV-1a over a sequence of words, each in little-endian bytes.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
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

/// Finishes `sim`, stepped to its end, into its output and the values it
/// pins: the tree accounting and the bits of the wake seconds, what `more`
/// adds, and the fault log's counters summed over the run. The crashes must
/// have driven both repair paths: rebuilds in either mode, and root-crash
/// fallbacks to a per-query tree when trees are shared.
pub fn finish(
    sim: SteppedSim,
    seed: u64,
    sharing: TreeSharing,
    more: impl FnOnce(JsonValue) -> JsonValue,
) -> (MultiUserOutput, JsonValue) {
    let faults = ResilienceSummary::from_batches(sim.fault_log());
    let out = sim.finish();
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
    let trees = JsonValue::object()
        .with("installs", out.installs)
        .with("trees_built", out.trees_built)
        .with("shared_hits", out.shared_hits)
        .with("peak_live_trees", out.peak_live_trees)
        .with("node_wake_seconds_bits", out.node_wake_seconds.to_bits());
    let pinned = more(trees)
        .with("link_bad_node_periods", faults.link_bad_node_periods)
        .with("crashes", faults.crashes)
        .with("install_attempts", faults.install_attempts)
        .with("retries", faults.retries)
        .with("install_failures", faults.install_failures)
        .with("trees_rebuilt", faults.trees_rebuilt)
        .with("naive_fallbacks", faults.naive_fallbacks)
        .with("retry_energy_j_bits", faults.retry_energy_j.to_bits());
    (out, pinned)
}

/// Both modes of one seed. They must give every user the same query log,
/// and sharing must pay fewer wake seconds.
fn seed_json(seed: u64, run: fn(u64, TreeSharing) -> (MultiUserOutput, JsonValue)) -> JsonValue {
    let (shared, shared_pinned) = run(seed, TreeSharing::Shared);
    let (naive, naive_pinned) = run(seed, TreeSharing::Naive);
    assert!(
        shared.node_wake_seconds < naive.node_wake_seconds,
        "seed {seed}: shared trees woke sleepers for {} s, naive ones for {} s",
        shared.node_wake_seconds,
        naive.node_wake_seconds
    );
    let differing = shared
        .logs
        .iter()
        .zip(&naive.logs)
        .filter(|(s, n)| s != n)
        .count();
    assert_eq!(
        differing, 0,
        "seed {seed}: {differing} of {USERS} users' query logs differ between \
         shared and naive trees"
    );
    let digests: Vec<JsonValue> = shared
        .logs
        .iter()
        .map(|log| JsonValue::from(log_digest(log)))
        .collect();
    JsonValue::object()
        .with("seed", seed)
        .with("query_log_fnv1a", digests)
        .with("shared", shared_pinned)
        .with("naive", naive_pinned)
}

/// Runs seeds 1–3 in both modes through `run` and compares `header` with the
/// seeds appended against `golden` — or, with `MOBIQUERY_BLESS` set, writes
/// it to `path`.
pub fn check(
    header: JsonValue,
    run: fn(u64, TreeSharing) -> (MultiUserOutput, JsonValue),
    golden: &str,
    path: &str,
) {
    let seeds: Vec<JsonValue> = SEEDS.into_iter().map(|seed| seed_json(seed, run)).collect();
    let got = header.with("seeds", seeds).to_pretty_string();
    if std::env::var_os("MOBIQUERY_BLESS").is_some() {
        std::fs::write(path, &got).expect("the golden file is writable");
        return;
    }
    assert!(
        got == golden,
        "faulted-run values diverged from {path}.\n\
         got:\n{got}\n\
         Refactoring must not change simulation results; if this change is \
         deliberate, regenerate the snapshot (see the test's module docs)."
    );
}
