//! The resilience sweep: how gracefully does the query service degrade under
//! injected faults, and how much success does protocol recovery buy back?
//!
//! Every trial runs the stepped engine with a seed-derived fault schedule
//! (Gilbert–Elliott bursty link loss, optional mid-period crashes) twice per
//! configuration point — once with recovery armed (install retries with
//! exponential backoff, poisoned-tree rebuilds, naive fallback) and once
//! without — across a ladder of loss rates, so the output directly compares
//! the two protocol variants the tentpole exists to separate.
//!
//! Deterministic outputs (`repro resilience`, [`run`]) deliberately exclude
//! every wall-clock field so the bytes are a pure function of the seed;
//! `tests/golden/resilience_quick.json` pins them. The `--bench`
//! section ([`run_bench`]) is the same points' JSON plus each trial's
//! wall-clock, and is where `check_bench.py` holds recovery-on to strictly
//! higher mean delivery than recovery-off at every nonzero loss rate.

use crate::runner::replicates;
use crate::scale::scale_scenario;
use crate::{best_of, round2, ExperimentConfig, Report};
use mobiquery::config::{Scenario, Scheme};
use mobiquery::sim::{FaultConfig, MultiUserOutput, QuerySet, SimOptions, SteppedSim, TreeSharing};
use wsn_metrics::{recovery_latency, JsonValue, RecoveryLatency, ResilienceSummary, Table};

/// The loss ladder swept for a top rate `R`: the sweep compares recovery
/// on/off at `R/4`, `R/2` and `R` so one `--fault-loss` flag yields a
/// degradation curve, not a single point.
pub fn loss_ladder(top: f64) -> [f64; 3] {
    [top * 0.25, top * 0.5, top]
}

/// One resilience trial: one deployment size, one fault configuration, one
/// recovery setting, walked to the end. All fields except `elapsed_ms` are
/// deterministic in `(nodes, fault, users, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// Deployment size of the trial.
    pub nodes: usize,
    /// Stationary per-node bad-channel probability injected.
    pub loss: f64,
    /// Mean bad-state dwell in periods (Gilbert–Elliott burst length).
    pub burst: f64,
    /// Fraction of nodes crashed mid-period at every boundary.
    pub crash_rate: f64,
    /// Whether recovery (retries, rebuilds, fallbacks) was armed.
    pub recovery: bool,
    /// Fleet size sharing the service during the walk.
    pub users: usize,
    /// Seed the trial ran under.
    pub seed: u64,
    /// The run's fault log, folded: what the faults struck and what
    /// recovery did about it.
    pub faults: ResilienceSummary,
    /// Query results delivered by their deadline across the fleet.
    pub delivered: usize,
    /// Outages, maximal streaks of undelivered periods across users, and
    /// their lengths (the recovery latency).
    pub latency: RecoveryLatency,
    /// Fleet-mean paper success ratio (deadline + 95% fidelity).
    pub mean_success_ratio: f64,
    /// Fleet-mean per-query fidelity.
    pub mean_fidelity: f64,
    /// Fleet-mean fraction of periods whose result arrived by deadline —
    /// the "query success" the recovery machinery defends.
    pub mean_delivery_ratio: f64,
    /// Wall-clock of the walk (bench only; excluded from JSON points).
    pub elapsed_ms: f64,
}

fn mean_delivery(out: &MultiUserOutput) -> f64 {
    if out.logs.is_empty() {
        return 0.0;
    }
    let total: f64 = out
        .logs
        .iter()
        .map(wsn_metrics::QueryLog::deadline_ratio)
        .sum();
    total / out.logs.len() as f64
}

/// Runs one resilience trial on `scenario` to completion.
///
/// # Panics
///
/// Panics if the fault config fails validation or the walk errors —
/// experiment code builds its configs from CLI-validated rates, so a
/// failure here is a programming error, not user input.
pub fn run_point(scenario: Scenario, fault: FaultConfig, users: usize) -> ResiliencePoint {
    let (nodes, seed) = (scenario.node_count, scenario.seed);
    let ((faults, out), elapsed_ms) = best_of(
        1,
        || (scenario.clone(), QuerySet::generate(&scenario, users)),
        |(scenario, set)| {
            let options = SimOptions {
                faults: Some(fault),
                ..SimOptions::default()
            };
            let mut sim = SteppedSim::with_options(scenario, set, TreeSharing::Shared, options)
                .expect("resilience fault configs are valid by construction");
            sim.run_to_end().expect("fault walks complete");
            let faults = ResilienceSummary::from_batches(sim.fault_log());
            (faults, sim.finish())
        },
    );
    let delivered: usize = out
        .logs
        .iter()
        .flat_map(|log| log.records())
        .filter(|r| r.met_deadline())
        .count();
    ResiliencePoint {
        nodes,
        loss: fault.loss,
        burst: fault.burst,
        crash_rate: fault.crash_rate,
        recovery: fault.recovery,
        users,
        seed,
        faults,
        delivered,
        latency: recovery_latency(&out.logs),
        mean_success_ratio: out.mean_success_ratio(),
        mean_fidelity: out.mean_fidelity(),
        mean_delivery_ratio: mean_delivery(&out),
        elapsed_ms,
    }
}

/// Runs every (scale × loss × replicate × recovery) trial. `fault` sets
/// every fault parameter but the loss and the recovery flag. The grid is
/// scale-major: scale `s` at loss `l` is point `s · losses.len() + l`. The
/// recovery-on and recovery-off arms share each replicate's seed, so each
/// on/off pair faces the identical fault schedule.
pub fn run_points(
    config: &ExperimentConfig,
    scales: &[usize],
    losses: &[f64],
    fault: FaultConfig,
) -> Vec<ResiliencePoint> {
    let mut points = Vec::new();
    for (s, &nodes) in scales.iter().enumerate() {
        let scenario = scale_scenario(nodes, Scheme::JustInTime, 0);
        for (l, &loss) in losses.iter().enumerate() {
            for trial in replicates(config, s * losses.len() + l, &scenario) {
                for recovery in [true, false] {
                    let arm = FaultConfig {
                        loss,
                        recovery,
                        ..fault
                    };
                    points.push(run_point(trial.clone(), arm, config.users));
                }
            }
        }
    }
    points
}

fn table_from_points(points: &[ResiliencePoint]) -> Table {
    let mut table = Table::with_columns(
        "Resilience: recovery-on vs recovery-off across a loss ladder",
        &[
            "nodes", "loss", "recovery", "crashes", "retries", "failures", "rebuilt", "fallback",
            "delivery", "fidelity",
        ],
    );
    for p in points {
        let f = &p.faults;
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.4}", p.loss),
            if p.recovery { "on" } else { "off" }.to_string(),
            f.crashes.to_string(),
            f.retries.to_string(),
            f.install_failures.to_string(),
            f.trees_rebuilt.to_string(),
            f.naive_fallbacks.to_string(),
            format!("{:.3}", p.mean_delivery_ratio),
            format!("{:.3}", p.mean_fidelity),
        ]);
    }
    table
}

/// The deterministic JSON view of one point: every field except wall-clock.
fn point_json(p: &ResiliencePoint) -> JsonValue {
    let f = &p.faults;
    JsonValue::object()
        .with("nodes", p.nodes)
        .with("loss", p.loss)
        .with("burst", p.burst)
        .with("crash_rate", p.crash_rate)
        .with("recovery", p.recovery)
        .with("users", p.users)
        .with("seed", p.seed)
        .with("batches", f.batches)
        .with("link_bad_node_periods", f.link_bad_node_periods)
        .with("crashes", f.crashes)
        .with("install_attempts", f.install_attempts as usize)
        .with("retries", f.retries as usize)
        .with("install_failures", f.install_failures as usize)
        .with("trees_rebuilt", f.trees_rebuilt as usize)
        .with("naive_fallbacks", f.naive_fallbacks as usize)
        .with("retry_energy_j", f.retry_energy_j)
        .with("delivered", p.delivered)
        .with(
            "retries_per_delivered",
            f.retries_per_delivered(p.delivered),
        )
        .with("outages", p.latency.outages)
        .with("mean_outage_periods", p.latency.mean_periods)
        .with("max_outage_periods", p.latency.max_periods as usize)
        .with("mean_success_ratio", p.mean_success_ratio)
        .with("mean_fidelity", p.mean_fidelity)
        .with("mean_delivery_ratio", p.mean_delivery_ratio)
}

/// Runs the sweep over [`loss_ladder`]`(fault.loss)` and reports it as a
/// table (rows: scale × loss × replicate × recovery) and as JSON with **no
/// timing fields**, so the bytes are a pure function of the seed —
/// `tests/golden/resilience_quick.json` pins this output.
pub fn run(config: &ExperimentConfig, scales: &[usize], fault: FaultConfig) -> Report {
    let points = run_points(config, scales, &loss_ladder(fault.loss), fault);
    let table = table_from_points(&points);
    Report {
        text: format!("{table}\n"),
        json: table
            .to_json()
            .with("loss", fault.loss)
            .with("burst", fault.burst)
            .with(
                "points",
                points.iter().map(point_json).collect::<Vec<JsonValue>>(),
            ),
    }
}

/// The `--bench` resilience section: the sweep over `scales` × `losses`,
/// one replicate per point, with recovery on and off on the identical
/// fault schedule, each entry the point's JSON plus the trial's wall-clock.
/// `check_bench.py` holds recovery-on to strictly higher
/// `mean_delivery_ratio` than recovery-off at every nonzero loss.
pub fn run_bench(
    config: &ExperimentConfig,
    scales: &[usize],
    losses: &[f64],
    fault: FaultConfig,
) -> JsonValue {
    let entries = run_points(&config.single_trial(), scales, losses, fault)
        .iter()
        .map(|p| point_json(p).with("elapsed_ms", round2(p.elapsed_ms)))
        .collect();
    JsonValue::Array(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_scales_with_the_top_rate() {
        let ladder = loss_ladder(0.4);
        assert_eq!(ladder, [0.1, 0.2, 0.4]);
    }

    #[test]
    fn point_reports_fault_and_recovery_counters() {
        let p = run_point(
            scale_scenario(200, Scheme::JustInTime, 7),
            FaultConfig::new(0.3),
            2,
        );
        assert!(p.faults.batches > 0);
        assert!(
            p.faults.link_bad_node_periods > 0,
            "30% loss must mark channels bad"
        );
        assert!(p.faults.install_attempts > 0);
        assert!(p.recovery);
        assert!(p.mean_delivery_ratio > 0.0 && p.mean_delivery_ratio <= 1.0);
    }

    #[test]
    fn recovery_on_beats_recovery_off_on_the_same_schedule() {
        let scenario = scale_scenario(200, Scheme::JustInTime, 11);
        let on = run_point(scenario.clone(), FaultConfig::new(0.3), 3);
        let off = run_point(scenario, FaultConfig::new(0.3).with_recovery(false), 3);
        assert!(
            on.faults.retries > 0,
            "recovery must actually retry under loss"
        );
        assert_eq!(off.faults.retries, 0, "no retries with recovery off");
        assert!(
            on.mean_delivery_ratio > off.mean_delivery_ratio,
            "retries must buy delivery: on={} off={}",
            on.mean_delivery_ratio,
            off.mean_delivery_ratio
        );
    }

    #[test]
    fn sweep_runs_recovery_on_and_off_at_every_loss() {
        let config = ExperimentConfig {
            users: 2,
            ..ExperimentConfig::quick()
        };
        let fault = FaultConfig::new(0.2);
        let points = run_points(&config, &[150], &loss_ladder(fault.loss), fault);
        assert_eq!(points.len(), 3 * 2, "ladder of three, on and off each");
    }

    #[test]
    fn bench_entries_are_the_points_json_plus_timing() {
        let config = ExperimentConfig {
            users: 2,
            ..ExperimentConfig::quick()
        };
        let fault = FaultConfig::new(0.0);
        let JsonValue::Array(entries) = run_bench(&config, &[150], &[0.1, 0.3], fault) else {
            panic!("the bench section must be an array");
        };
        let points = run_points(&config, &[150], &[0.1, 0.3], fault);
        assert_eq!(entries.len(), 4, "two losses, on and off each");
        assert_eq!(entries.len(), points.len());
        for (entry, point) in entries.iter().zip(&points) {
            assert_eq!(
                crate::tests::without_timing(entry, &["elapsed_ms"]),
                point_json(point)
            );
        }
    }
}
