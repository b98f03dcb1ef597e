//! The multi-user multiplexing sweep: how does the query service scale from
//! one mobile user to a fleet, and how many flood trees does the shared
//! `TreeCache` save over the naive one-tree-per-user
//! deployment?
//!
//! Every trial runs **both** sharing modes and asserts their per-user query
//! logs equal before reporting anything — the reference-equivalence check of
//! the tree cache rides inside the experiment itself, so a sweep that
//! completes *is* the proof that sharing changed no user's results, in the
//! style of the `elect_backbone_reference` cross-check.
//!
//! `repro multiuser` ([`run`]) and the bench document's `multiuser` section
//! ([`run_bench`]) run this one sweep and render each point as the same JSON
//! object; a bench entry only appends timing keys.

use crate::runner::replicates;
use crate::{best_of, round2, ExperimentConfig, Report};
use mobiquery::config::Scenario;
use mobiquery::sim::{MultiUserOutput, QuerySet, SteppedSim, TreeSharing};
use wsn_metrics::{JsonValue, Table, UserSummary};

/// The fleet sizes swept by the figure: powers of two from a single user up
/// to and including `config.users`.
pub fn user_ladder(config: &ExperimentConfig) -> Vec<usize> {
    let mut ladder = Vec::new();
    let mut users = 1;
    while users < config.users {
        ladder.push(users);
        users *= 2;
    }
    ladder.push(config.users.max(1));
    ladder
}

/// One data point of the multi-user sweep: one fleet size, aggregated over
/// the configured replicates, with the shared and naive tree economies side
/// by side.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiuserPoint {
    /// Fleet size of the point.
    pub users: usize,
    /// Mean (over replicates) of the fleet-mean success ratio.
    pub mean_success_ratio: f64,
    /// Worst per-user success ratio seen in any replicate.
    pub min_success_ratio: f64,
    /// Mean (over replicates) of the fleet-mean fidelity.
    pub mean_fidelity: f64,
    /// Total query installs across the replicates.
    pub installs: u64,
    /// Trees built by the shared cache across the replicates.
    pub trees_built_shared: u64,
    /// Trees the naive one-tree-per-user baseline built (= installs).
    pub trees_built_naive: u64,
    /// `trees_built_shared / trees_built_naive` — below 1.0 means the cache
    /// multiplexed overlapping queries onto common trees.
    pub sharing_ratio: f64,
    /// Cache acquisitions served by an existing tree.
    pub shared_hits: u64,
    /// Most trees simultaneously live under sharing (any replicate).
    pub peak_live_trees: usize,
    /// Sleeping-node wake seconds paid under sharing.
    pub node_wake_seconds_shared: f64,
    /// Sleeping-node wake seconds the naive runs paid.
    pub node_wake_seconds_naive: f64,
    /// Per-user summaries of the first replicate (fleet order).
    pub per_user: Vec<UserSummary>,
}

/// Builds one batch trial: the deployment of `scenario` and `users`
/// generated users, ready for [`SteppedSim::run_to_end`].
///
/// # Panics
///
/// Panics if the scenario fails validation — experiment scenarios are valid
/// by construction, so that is a programming error.
pub fn build_trial(scenario: &Scenario, users: usize, sharing: TreeSharing) -> SteppedSim {
    let set = QuerySet::generate(scenario, users);
    SteppedSim::new(scenario.clone(), set, sharing)
        .expect("experiment scenarios are valid by construction")
}

/// Runs one scenario under both sharing modes and asserts the shared run is
/// result-identical per user to the naive reference. Each mode runs
/// `samples` times through [`best_of`], which builds the trial untimed and
/// times only its walk; the fastest walk's output is aggregated, and its
/// deployment freed, after the clock stops. Returns each mode's output with
/// that walk's wall-clock in milliseconds, shared mode first.
///
/// # Panics
///
/// Panics if a walk errors (a programming error, as for [`build_trial`]),
/// or if any user's query log differs between the modes — that would mean
/// the tree cache changed protocol results, which the whole design forbids.
pub fn run_equivalent_pair(
    scenario: &Scenario,
    users: usize,
    samples: usize,
) -> [(MultiUserOutput, f64); 2] {
    let run = |sharing| {
        let (walked, ms) = best_of(
            samples,
            || build_trial(scenario, users, sharing),
            |mut sim| {
                sim.run_to_end().expect("experiment walks complete");
                sim
            },
        );
        (walked.finish(), ms)
    };
    let shared = run(TreeSharing::Shared);
    let naive = run(TreeSharing::Naive);
    assert_eq!(
        shared.0.logs, naive.0.logs,
        "tree sharing changed per-user results at {users} users (seed {})",
        scenario.seed
    );
    [shared, naive]
}

/// What the bench section reports beside a point: the first replicate's
/// walk wall-clock per sharing mode and the events its shared run processed.
struct Timing {
    shared_ms: f64,
    naive_ms: f64,
    shared_events: u64,
}

/// Runs one point per fleet size of `ladder` on `scenario`, numbered by the
/// rung's index: each of its [`replicates`] through [`run_equivalent_pair`]
/// with `samples` timed runs per mode, aggregated into one point.
fn sweep(
    config: &ExperimentConfig,
    scenario: &Scenario,
    ladder: &[usize],
    samples: usize,
) -> Vec<(MultiuserPoint, Timing)> {
    let mut points = Vec::new();
    for (rung, &users) in ladder.iter().enumerate() {
        let trials: Vec<_> = replicates(config, rung, scenario)
            .map(|trial| run_equivalent_pair(&trial, users, samples))
            .collect();
        let [(shared, shared_ms), (_, naive_ms)] = &trials[0];
        let timing = Timing {
            shared_ms: *shared_ms,
            naive_ms: *naive_ms,
            shared_events: shared.events_processed,
        };
        points.push((point(users, &trials), timing));
    }
    points
}

/// Aggregates one fleet size's replicates, each a shared and a naive run.
fn point(users: usize, replicates: &[[(MultiUserOutput, f64); 2]]) -> MultiuserPoint {
    let shared = || replicates.iter().map(|[(s, _), _]| s);
    let naive = || replicates.iter().map(|[_, (nv, _)]| nv);
    let n = replicates.len() as f64;
    let trees_built_shared: u64 = shared().map(|s| s.trees_built).sum();
    let trees_built_naive: u64 = naive().map(|nv| nv.trees_built).sum();
    MultiuserPoint {
        users,
        mean_success_ratio: shared().map(|s| s.mean_success_ratio()).sum::<f64>() / n,
        min_success_ratio: shared()
            .map(|s| s.min_success_ratio())
            .fold(f64::INFINITY, f64::min),
        mean_fidelity: shared().map(|s| s.mean_fidelity()).sum::<f64>() / n,
        installs: shared().map(|s| s.installs).sum(),
        trees_built_shared,
        trees_built_naive,
        sharing_ratio: trees_built_shared as f64 / trees_built_naive.max(1) as f64,
        shared_hits: shared().map(|s| s.shared_hits).sum(),
        peak_live_trees: shared().map(|s| s.peak_live_trees).max().unwrap_or(0),
        node_wake_seconds_shared: shared().map(|s| s.node_wake_seconds).sum(),
        node_wake_seconds_naive: naive().map(|nv| nv.node_wake_seconds).sum(),
        per_user: shared()
            .next()
            .map(|s| s.per_user.clone())
            .unwrap_or_default(),
    }
}

/// Runs the sweep over [`user_ladder`] on the configuration's base scenario
/// — every (fleet size × replicate) trial — and returns one aggregated point
/// per fleet size.
pub fn run_points(config: &ExperimentConfig) -> Vec<MultiuserPoint> {
    sweep(config, &config.base_scenario(), &user_ladder(config), 1)
        .into_iter()
        .map(|(point, _)| point)
        .collect()
}

fn table_from_points(points: &[MultiuserPoint]) -> Table {
    let mut table = Table::with_columns(
        "Multi-user multiplexing: shared flood trees vs one tree per user",
        &[
            "users",
            "mean success",
            "min success",
            "mean fidelity",
            "trees shared",
            "trees naive",
            "sharing ratio",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.users.to_string(),
            format!("{:.3}", p.mean_success_ratio),
            format!("{:.3}", p.min_success_ratio),
            format!("{:.3}", p.mean_fidelity),
            p.trees_built_shared.to_string(),
            p.trees_built_naive.to_string(),
            format!("{:.3}", p.sharing_ratio),
        ]);
    }
    table
}

fn point_json(p: &MultiuserPoint) -> JsonValue {
    let per_user: Vec<JsonValue> = p
        .per_user
        .iter()
        .map(|u| {
            JsonValue::object()
                .with("user", u.user)
                .with("queries", u.queries)
                .with("success_ratio", u.success_ratio)
                .with("mean_fidelity", u.mean_fidelity)
        })
        .collect();
    JsonValue::object()
        .with("users", p.users)
        .with("mean_success_ratio", p.mean_success_ratio)
        .with("min_success_ratio", p.min_success_ratio)
        .with("mean_fidelity", p.mean_fidelity)
        .with("installs", p.installs)
        .with("trees_built_shared", p.trees_built_shared)
        .with("trees_built_naive", p.trees_built_naive)
        .with("sharing_ratio", p.sharing_ratio)
        .with("shared_hits", p.shared_hits)
        .with("peak_live_trees", p.peak_live_trees)
        .with("node_wake_seconds_shared", p.node_wake_seconds_shared)
        .with("node_wake_seconds_naive", p.node_wake_seconds_naive)
        .with("per_user", per_user)
}

/// Runs the sweep and reports it as a table (rows: fleet size); the JSON
/// adds every data point at full float precision (including per-user
/// summaries of the first replicate). Deliberately excludes timing so the
/// bytes are a pure function of the configuration.
pub fn run(config: &ExperimentConfig) -> Report {
    let points = run_points(config);
    let table = table_from_points(&points);
    Report {
        text: format!("{table}\n"),
        json: table
            .to_json()
            .with(
                "points",
                points.iter().map(point_json).collect::<Vec<JsonValue>>(),
            )
            .with("users_max", config.users),
    }
}

/// The `--bench` multi-user section: the sweep over `ladder` on `scenario`,
/// one replicate per point, each entry the point's JSON plus the
/// best-of-3 wall-clock of each sharing mode's stepped walk (set-up
/// excluded).
///
/// Timings are a trajectory snapshot (machine-dependent); the rest of each
/// entry is deterministic.
pub fn run_bench(config: &ExperimentConfig, scenario: &Scenario, ladder: &[usize]) -> JsonValue {
    let entries = sweep(&config.single_trial(), scenario, ladder, 3)
        .iter()
        .map(|(p, t)| {
            point_json(p)
                .with("shared_ms", round2(t.shared_ms))
                .with("naive_ms", round2(t.naive_ms))
                .with(
                    "events_per_sec",
                    round2(t.shared_events as f64 / (t.shared_ms / 1e3).max(1e-9)),
                )
                .with("speedup", round2(t.naive_ms / t.shared_ms.max(1e-9)))
        })
        .collect();
    JsonValue::Array(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_doubles_up_to_the_configured_fleet() {
        let config = ExperimentConfig::quick();
        assert_eq!(user_ladder(&config), vec![1, 2, 4, 8]);
        let six = ExperimentConfig {
            users: 6,
            ..ExperimentConfig::quick()
        };
        assert_eq!(user_ladder(&six), vec![1, 2, 4, 6]);
        let one = ExperimentConfig {
            users: 1,
            ..ExperimentConfig::quick()
        };
        assert_eq!(user_ladder(&one), vec![1]);
    }

    #[test]
    fn sweep_shares_trees() {
        let config = ExperimentConfig {
            users: 4,
            ..ExperimentConfig::quick()
        };
        let points = run_points(&config);
        assert_eq!(points.len(), 3, "ladder 1, 2, 4");
        // The naive baseline builds one tree per install, always.
        for p in &points {
            assert_eq!(p.trees_built_naive, p.installs);
            assert!(p.sharing_ratio <= 1.0);
        }
        // By 4 users on the quick 2×2 lattice, sharing must have kicked in.
        let last = points.last().unwrap();
        assert!(
            last.trees_built_shared < last.trees_built_naive,
            "expected shared < naive trees at {} users",
            last.users
        );
        assert_eq!(last.per_user.len(), 4);
    }

    #[test]
    fn bench_entries_are_the_points_json_plus_timing() {
        let config = ExperimentConfig::quick();
        let scenario = config.base_scenario().with_duration_secs(30.0);
        let JsonValue::Array(entries) = run_bench(&config, &scenario, &[1, 3]) else {
            panic!("the bench section must be an array");
        };
        let points = sweep(&config, &scenario, &[1, 3], 1);
        assert_eq!(entries.len(), points.len());
        for (entry, (point, _)) in entries.iter().zip(&points) {
            assert_eq!(
                crate::tests::without_timing(
                    entry,
                    &["shared_ms", "naive_ms", "events_per_sec", "speedup"]
                ),
                point_json(point)
            );
        }
    }
}
