//! The node-churn sweep: at 10⁴–10⁶ nodes, does incremental backbone repair
//! keep up with churn that would make full re-election the bottleneck?
//!
//! Every trial runs the stepped engine with a seed-derived churn schedule
//! (deaths and joins at every interior period boundary) and, at the end,
//! runs one full priority re-election over the surviving deployment and
//! asserts the repaired backbone is **identical** — the repair ≡ re-election
//! equivalence check rides inside the experiment, in the style of the
//! multi-user sweep's shared-vs-naive log equality. Below
//! [`VERIFY_MAX_NODES`] the engine additionally cross-checks every single
//! batch (`ChurnConfig::verify`).
//!
//! Deterministic outputs (`repro churn`, [`run`]) deliberately exclude every
//! wall-clock field so the bytes are a pure function of the seed; the
//! `--bench` section ([`run_bench`]) is the same points' JSON plus the
//! timings (repair vs full election) as a trajectory snapshot.

use crate::runner::TrialPlan;
use crate::scale::scale_scenario;
use crate::{best_of, round2, ExperimentConfig, Report};
use mobiquery::config::{Scenario, Scheme};
use mobiquery::sim::{ChurnConfig, QuerySet, SteppedSim, TreeSharing};
use wsn_metrics::{ChurnSummary, JsonValue, Table};

/// Largest deployment whose churn runs cross-check *every batch* against a
/// full re-election. Above this, per-batch verification would dominate the
/// run (it is exactly the cost the repair exists to avoid), so only the
/// end-of-run equivalence assertion remains.
pub const VERIFY_MAX_NODES: usize = 200_000;

/// One churn trial: one deployment size at one churn rate, walked to the
/// end. All fields except the `*_ms` timings are deterministic in
/// `(nodes, rate, users, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnPoint {
    /// Deployment size of the trial.
    pub nodes: usize,
    /// Per-boundary churn rate (fraction of alive nodes killed and joined).
    pub rate: f64,
    /// Fleet size sharing the service during the walk.
    pub users: usize,
    /// Seed the trial ran under.
    pub seed: u64,
    /// Churn batches applied (one per interior boundary).
    pub batches: usize,
    /// Total deaths across the walk (= total joins).
    pub deaths: usize,
    /// Candidate nodes the repair worklist evaluated.
    pub evaluated: usize,
    /// Sleepers promoted into the backbone by repair.
    pub promoted: usize,
    /// Backbone nodes demoted by repair.
    pub demoted: usize,
    /// Backbone size after the final batch.
    pub backbone_count: usize,
    /// FNV-1a digest of the ascending backbone slot list — the compact
    /// byte-identity token the CI gate compares across processes.
    pub backbone_digest: u64,
    /// `true` when every batch was individually verified against a full
    /// re-election (always the case at or below [`VERIFY_MAX_NODES`]).
    pub per_batch_verified: bool,
    /// Fleet-mean success ratio of the churned service.
    pub mean_success_ratio: f64,
    /// Fleet-mean fidelity of the churned service.
    pub mean_fidelity: f64,
    /// Total incremental-repair wall-clock across the walk.
    pub repair_ms: f64,
    /// Mean repair wall-clock per batch.
    pub mean_repair_ms: f64,
    /// Total churn-application wall-clock (grid/plan/neighbour updates).
    pub apply_ms: f64,
    /// Wall-clock of ONE full priority re-election over the final
    /// deployment — what every batch would cost without incremental repair.
    pub full_ccp_ms: f64,
}

/// FNV-1a over the ascending backbone slots: a stable 64-bit digest that two
/// runs share iff their backbone membership is identical.
pub fn backbone_digest(slots: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in slots {
        for byte in s.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// Runs one churn trial on `scenario` to completion and asserts repair ≡
/// re-election on the final deployment.
///
/// # Panics
///
/// Panics if the repaired backbone differs from a from-scratch priority
/// election over the surviving nodes — the equivalence the whole repair
/// design guarantees.
pub fn run_point(scenario: Scenario, rate: f64, users: usize) -> ChurnPoint {
    let (nodes, seed) = (scenario.node_count, scenario.seed);
    let verify = nodes <= VERIFY_MAX_NODES;
    let set = QuerySet::generate(&scenario, users);
    let mut sim = SteppedSim::with_churn(
        scenario,
        set,
        TreeSharing::Shared,
        ChurnConfig { rate, verify },
    )
    .expect("churn scenarios are valid by construction");
    sim.run_to_end()
        .expect("verified churn walks complete (a divergence would error here)");

    let summary = ChurnSummary::from_batches(sim.churn_log());
    let apply_ms: f64 = sim.churn_log().iter().map(|b| b.apply_ms).sum();
    let per_batch_verified =
        !sim.churn_log().is_empty() && sim.churn_log().iter().all(|b| b.verified == Some(true));
    let backbone = sim.backbone_slots();

    let (reference, full_ccp_ms) = best_of(1, || (), |()| sim.reference_reelection());
    assert_eq!(
        backbone, reference,
        "incremental repair diverged from full re-election at {nodes} nodes, rate {rate}, seed {seed}"
    );

    let out = sim.finish();
    ChurnPoint {
        nodes,
        rate,
        users,
        seed,
        batches: summary.batches,
        deaths: summary.deaths,
        evaluated: summary.evaluated,
        promoted: summary.promoted,
        demoted: summary.demoted,
        backbone_count: backbone.len(),
        backbone_digest: backbone_digest(&backbone),
        per_batch_verified,
        mean_success_ratio: out.mean_success_ratio(),
        mean_fidelity: out.mean_fidelity(),
        repair_ms: summary.repair_ms,
        mean_repair_ms: summary.mean_repair_ms,
        apply_ms,
        full_ccp_ms,
    }
}

/// Runs every (scale × rate × replicate) trial in plan order. The grid is
/// scale-major, and the seed derives from the (scale, rate) point's index
/// and the replicate.
pub fn run_points(config: &ExperimentConfig, scales: &[usize], rates: &[f64]) -> Vec<ChurnPoint> {
    let mut plan = TrialPlan::new();
    for &nodes in scales {
        for _ in rates {
            plan.push_point(config, scale_scenario(nodes, Scheme::JustInTime, 0));
        }
    }
    plan.run_trials(|spec| {
        let rate = rates[spec.point_index % rates.len()];
        run_point(spec.scenario.clone(), rate, config.users)
    })
    .into_iter()
    .flatten()
    .collect()
}

fn table_from_points(points: &[ChurnPoint]) -> Table {
    let mut table = Table::with_columns(
        "Node churn: incremental backbone repair vs full re-election",
        &[
            "nodes",
            "rate",
            "batches",
            "deaths",
            "evaluated",
            "promoted",
            "demoted",
            "backbone",
            "digest",
            "mean success",
        ],
    );
    for p in points {
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.4}", p.rate),
            p.batches.to_string(),
            p.deaths.to_string(),
            p.evaluated.to_string(),
            p.promoted.to_string(),
            p.demoted.to_string(),
            p.backbone_count.to_string(),
            format!("{:016x}", p.backbone_digest),
            format!("{:.3}", p.mean_success_ratio),
        ]);
    }
    table
}

/// The deterministic JSON view of one point: every field except wall-clock.
fn point_json(p: &ChurnPoint) -> JsonValue {
    JsonValue::object()
        .with("nodes", p.nodes)
        .with("rate", p.rate)
        .with("users", p.users)
        .with("seed", p.seed)
        .with("batches", p.batches)
        .with("deaths", p.deaths)
        .with("joins", p.deaths)
        .with("evaluated", p.evaluated)
        .with("promoted", p.promoted)
        .with("demoted", p.demoted)
        .with("backbone_count", p.backbone_count)
        .with("backbone_digest", format!("{:016x}", p.backbone_digest))
        .with("per_batch_verified", p.per_batch_verified)
        .with("mean_success_ratio", p.mean_success_ratio)
        .with("mean_fidelity", p.mean_fidelity)
}

/// Runs the sweep at one rate and reports it as a table (rows: scale ×
/// replicate) and as JSON with **no timing fields**, so the bytes are a pure
/// function of the seed — the CI churn gate `cmp`s this output across two
/// processes.
pub fn run(config: &ExperimentConfig, scales: &[usize], rate: f64) -> Report {
    let points = run_points(config, scales, &[rate]);
    let table = table_from_points(&points);
    Report {
        text: format!("{table}\n"),
        json: table.to_json().with("rate", rate).with(
            "points",
            points.iter().map(point_json).collect::<Vec<JsonValue>>(),
        ),
    }
}

/// The `--bench` churn section: the sweep over `scales` × `rates`, one
/// replicate per point, each entry the point's JSON plus the
/// incremental-repair cost next to what one full re-election costs — the
/// numbers `check_bench.py` holds the repair path to (`mean_repair_ms ≪
/// full_ccp_ms` at low rates and large scales).
pub fn run_bench(config: &ExperimentConfig, scales: &[usize], rates: &[f64]) -> JsonValue {
    let entries = run_points(&config.single_trial(), scales, rates)
        .iter()
        .map(|p| {
            point_json(p)
                .with("repair_ms", round2(p.repair_ms))
                .with("mean_repair_ms", round2(p.mean_repair_ms))
                .with("apply_ms", round2(p.apply_ms))
                .with("full_ccp_ms", round2(p.full_ccp_ms))
                .with(
                    "speedup_vs_full",
                    round2(p.full_ccp_ms / p.mean_repair_ms.max(1e-9)),
                )
        })
        .collect();
    JsonValue::Array(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_memberships() {
        assert_eq!(backbone_digest(&[1, 2, 3]), backbone_digest(&[1, 2, 3]));
        assert_ne!(backbone_digest(&[1, 2, 3]), backbone_digest(&[1, 2, 4]));
        assert_ne!(backbone_digest(&[]), backbone_digest(&[0]));
    }

    #[test]
    fn point_runs_verify_and_report() {
        let scenario = scale_scenario(200, Scheme::JustInTime, 7);
        let p = run_point(scenario.clone(), 0.05, 2);
        assert!(p.batches > 0);
        assert!(p.deaths > 0, "5% of 200 nodes must churn every batch");
        assert!(p.per_batch_verified, "200 nodes is under the verify cap");
        assert!(p.backbone_count > 0);
        assert_eq!((p.nodes, p.seed), (200, 7));
        assert_eq!(
            p.backbone_digest,
            run_point(scenario, 0.05, 2).backbone_digest
        );
    }

    #[test]
    fn sweep_runs_every_scale() {
        let config = ExperimentConfig {
            users: 2,
            ..ExperimentConfig::quick()
        };
        let points = run_points(&config, &[150, 250], &[0.1]);
        assert_eq!(points.len(), 2 * config.runs.max(1) as usize);
    }

    #[test]
    fn bench_entries_are_the_points_json_plus_timing() {
        let config = ExperimentConfig {
            users: 2,
            ..ExperimentConfig::quick()
        };
        let JsonValue::Array(entries) = run_bench(&config, &[200], &[0.02, 0.1]) else {
            panic!("the bench section must be an array");
        };
        let points = run_points(&config, &[200], &[0.02, 0.1]);
        assert_eq!(entries.len(), points.len());
        for (entry, point) in entries.iter().zip(&points) {
            let timing = [
                "repair_ms",
                "mean_repair_ms",
                "apply_ms",
                "full_ccp_ms",
                "speedup_vs_full",
            ];
            assert_eq!(
                crate::tests::without_timing(entry, &timing),
                point_json(point)
            );
        }
    }
}
