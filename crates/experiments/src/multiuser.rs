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

use crate::runner::trial_seed;
use crate::{round2, ExperimentConfig};
use mobiquery::config::Scenario;
use mobiquery::sim::{MultiUserOutput, QuerySet, SteppedSim, TreeSharing};
use std::time::Instant;
use wsn_metrics::{JsonValue, Table, UserSummary};
use wsn_sim::pool;

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
    /// Sleeping-node wake seconds the naive baseline pays.
    pub node_wake_seconds_naive: f64,
    /// Per-user summaries of the first replicate (fleet order).
    pub per_user: Vec<UserSummary>,
}

/// Runs one batch trial: `users` generated users walked through the stepped
/// engine to the end of the scenario's query lifetime.
///
/// # Panics
///
/// Panics if the scenario fails validation or the walk errors — experiment
/// scenarios are valid by construction, so either is a programming error.
pub fn run_trial(scenario: &Scenario, users: usize, sharing: TreeSharing) -> MultiUserOutput {
    let set = QuerySet::generate(scenario, users);
    let mut sim = SteppedSim::new(scenario.clone(), set, sharing)
        .expect("experiment scenarios are valid by construction");
    sim.run_to_end().expect("experiment walks complete");
    sim.finish()
}

/// Runs one scenario under both sharing modes and asserts the shared run is
/// result-identical per user to the naive reference.
///
/// # Panics
///
/// Panics if any user's query log differs between the modes — that would
/// mean the tree cache changed protocol results, which the whole design
/// forbids.
pub fn run_equivalent_pair(
    scenario: &Scenario,
    users: usize,
) -> (MultiUserOutput, MultiUserOutput) {
    let shared = run_trial(scenario, users, TreeSharing::Shared);
    let naive = run_trial(scenario, users, TreeSharing::Naive);
    assert_eq!(
        shared.logs, naive.logs,
        "tree sharing changed per-user results at {users} users (seed {})",
        scenario.seed
    );
    (shared, naive)
}

/// Runs the sweep — every (fleet size × replicate) trial fans out over
/// `config.jobs` workers — and returns one aggregated point per fleet size.
pub fn run_points(config: &ExperimentConfig) -> Vec<MultiuserPoint> {
    let ladder = user_ladder(config);
    let runs = config.runs.max(1);
    let mut trials = Vec::new();
    for (point, &users) in ladder.iter().enumerate() {
        for replicate in 0..runs {
            trials.push((point, users, trial_seed(config.base_seed, point, replicate)));
        }
    }
    let outputs = pool::run_indexed(config.jobs, trials, |_, (point, users, seed)| {
        let scenario = config.base_scenario().with_seed(seed);
        let (shared, naive) = run_equivalent_pair(&scenario, users);
        (point, shared, naive)
    });

    ladder
        .iter()
        .enumerate()
        .map(|(point, &users)| {
            let replicates: Vec<&(usize, MultiUserOutput, MultiUserOutput)> =
                outputs.iter().filter(|(p, _, _)| *p == point).collect();
            let n = replicates.len() as f64;
            let installs: u64 = replicates.iter().map(|(_, s, _)| s.installs).sum();
            let trees_built_shared: u64 = replicates.iter().map(|(_, s, _)| s.trees_built).sum();
            let trees_built_naive: u64 = replicates.iter().map(|(_, _, nv)| nv.trees_built).sum();
            MultiuserPoint {
                users,
                mean_success_ratio: replicates
                    .iter()
                    .map(|(_, s, _)| s.mean_success_ratio())
                    .sum::<f64>()
                    / n,
                min_success_ratio: replicates
                    .iter()
                    .map(|(_, s, _)| s.min_success_ratio())
                    .fold(f64::INFINITY, f64::min),
                mean_fidelity: replicates
                    .iter()
                    .map(|(_, s, _)| s.mean_fidelity())
                    .sum::<f64>()
                    / n,
                installs,
                trees_built_shared,
                trees_built_naive,
                sharing_ratio: trees_built_shared as f64 / trees_built_naive.max(1) as f64,
                shared_hits: replicates.iter().map(|(_, s, _)| s.shared_hits).sum(),
                peak_live_trees: replicates
                    .iter()
                    .map(|(_, s, _)| s.peak_live_trees)
                    .max()
                    .unwrap_or(0),
                node_wake_seconds_shared: replicates
                    .iter()
                    .map(|(_, s, _)| s.node_wake_seconds)
                    .sum(),
                node_wake_seconds_naive: replicates
                    .iter()
                    .map(|(_, s, _)| s.node_wake_seconds_naive)
                    .sum(),
                per_user: replicates
                    .first()
                    .map(|(_, s, _)| s.per_user.clone())
                    .unwrap_or_default(),
            }
        })
        .collect()
}

/// Runs the sweep and formats it as a table (rows: fleet size).
pub fn run(config: &ExperimentConfig) -> Table {
    table_from_points(&run_points(config))
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

/// Runs the sweep and renders it as JSON: the formatted table plus every
/// data point at full float precision (including per-user summaries of the
/// first replicate). Deliberately excludes timing so the bytes are identical
/// for every job count.
pub fn run_json(config: &ExperimentConfig) -> JsonValue {
    let points = run_points(config);
    table_from_points(&points)
        .to_json()
        .with(
            "points",
            points.iter().map(point_json).collect::<Vec<JsonValue>>(),
        )
        .with("users_max", config.users)
}

/// The `--bench` multi-user section: at one deployment size, sweep fleet
/// sizes and time the shared run against the naive one-tree-per-user run —
/// asserting, per entry, that they are result-identical per user.
///
/// Timings are a trajectory snapshot (machine-dependent), best-of-3 per
/// sharing mode — the engine is deterministic, so repeats do identical work
/// and the minimum is the least-noisy estimate; the tree counts and
/// per-user aggregates are deterministic.
pub fn bench_sweep(scenario_for: impl Fn(u64) -> Scenario, users_list: &[usize]) -> JsonValue {
    fn best_of_3(
        scenario: &Scenario,
        users: usize,
        sharing: TreeSharing,
    ) -> (MultiUserOutput, f64) {
        let mut best: Option<(MultiUserOutput, f64)> = None;
        for _ in 0..3 {
            let start = Instant::now();
            let out = run_trial(scenario, users, sharing);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            if best.as_ref().map_or(true, |(_, ms)| elapsed < *ms) {
                best = Some((out, elapsed));
            }
        }
        best.expect("three timed runs happened")
    }

    let mut entries = Vec::new();
    for (point, &users) in users_list.iter().enumerate() {
        let scenario = scenario_for(point as u64);
        eprintln!("multiuser bench: {users} users, shared vs naive");
        let (shared, shared_ms) = best_of_3(&scenario, users, TreeSharing::Shared);
        let (naive, naive_ms) = best_of_3(&scenario, users, TreeSharing::Naive);
        assert_eq!(
            shared.logs, naive.logs,
            "tree sharing changed per-user results at {users} users in the bench sweep"
        );
        entries.push(
            JsonValue::object()
                .with("users", users)
                .with("installs", shared.installs)
                .with("trees_built_shared", shared.trees_built)
                .with("trees_built_naive", naive.trees_built)
                .with("sharing_ratio", shared.sharing_ratio())
                .with("shared_hits", shared.shared_hits)
                .with("peak_live_trees", shared.peak_live_trees)
                .with("mean_success_ratio", shared.mean_success_ratio())
                .with("min_success_ratio", shared.min_success_ratio())
                .with("mean_fidelity", shared.mean_fidelity())
                .with("node_wake_seconds_shared", shared.node_wake_seconds)
                .with("node_wake_seconds_naive", shared.node_wake_seconds_naive)
                .with("shared_ms", round2(shared_ms))
                .with("naive_ms", round2(naive_ms))
                .with(
                    "events_per_sec",
                    round2(shared.events_processed as f64 / (shared_ms / 1e3).max(1e-9)),
                )
                .with("speedup", round2(naive_ms / shared_ms.max(1e-9))),
        );
    }
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
    fn sweep_is_jobs_invariant_and_shares_trees() {
        let config = ExperimentConfig {
            users: 4,
            ..ExperimentConfig::quick()
        };
        let serial = run_points(&config.with_jobs(1));
        let parallel = run_points(&config.with_jobs(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 3, "ladder 1, 2, 4");
        // The naive baseline builds one tree per install, always.
        for p in &serial {
            assert_eq!(p.trees_built_naive, p.installs);
            assert!(p.sharing_ratio <= 1.0);
        }
        // By 4 users on the quick 2×2 lattice, sharing must have kicked in.
        let last = serial.last().unwrap();
        assert!(
            last.trees_built_shared < last.trees_built_naive,
            "expected shared < naive trees at {} users",
            last.users
        );
        assert_eq!(last.per_user.len(), 4);
    }

    #[test]
    fn bench_sweep_reports_one_entry_per_fleet_size() {
        let doc = bench_sweep(
            |point| {
                ExperimentConfig::quick()
                    .base_scenario()
                    .with_duration_secs(30.0)
                    .with_seed(trial_seed(11, point as usize, 0))
            },
            &[1, 3],
        );
        let JsonValue::Array(entries) = doc else {
            panic!("bench sweep must be an array");
        };
        assert_eq!(entries.len(), 2);
        let text = entries[1].to_string();
        for field in [
            "\"users\"",
            "\"trees_built_shared\"",
            "\"trees_built_naive\"",
            "\"sharing_ratio\"",
            "\"min_success_ratio\"",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
