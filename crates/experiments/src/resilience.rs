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
//! Deterministic outputs (`--format json resilience`) deliberately exclude
//! every wall-clock field so the bytes are identical for every `--jobs`
//! setting; the CI chaos gate `cmp`s them across job counts. The `--bench`
//! section is where `check_bench.py` holds recovery-on to strictly higher
//! mean delivery than recovery-off at every nonzero loss rate.

use crate::runner::trial_seed;
use crate::scale::scale_scenario;
use crate::{round2, ExperimentConfig};
use mobiquery::config::Scheme;
use mobiquery::sim::{FaultConfig, MultiUserOutput, QuerySet, SimOptions, SteppedSim, TreeSharing};
use std::time::Instant;
use wsn_metrics::{recovery_latency, JsonValue, ResilienceSummary, Table};
use wsn_sim::pool;

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
    /// Fault batches applied (one per boundary).
    pub batches: usize,
    /// Node-periods spent with a bad channel.
    pub link_bad_node_periods: usize,
    /// Total mid-period crashes.
    pub crashes: usize,
    /// Total install transmissions (first attempts and retries).
    pub install_attempts: u64,
    /// Install retransmissions beyond each install's first attempt.
    pub retries: u64,
    /// Installs abandoned after every attempt — whole periods lost.
    pub install_failures: u64,
    /// Poisoned shared trees rebuilt around crashed nodes.
    pub trees_rebuilt: u64,
    /// Poisoned trees degraded to per-user naive trees.
    pub naive_fallbacks: u64,
    /// Energy drained by retransmissions, in joules.
    pub retry_energy_j: f64,
    /// Query results delivered by their deadline across the fleet.
    pub delivered: usize,
    /// Retransmissions paid per delivered result.
    pub retries_per_delivered: f64,
    /// Outages: maximal streaks of undelivered periods across users.
    pub outages: usize,
    /// Mean outage length in periods (recovery latency).
    pub mean_outage_periods: f64,
    /// Longest outage in periods.
    pub max_outage_periods: u64,
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

/// Runs one resilience trial to completion.
///
/// # Panics
///
/// Panics if the fault config fails validation or the walk errors —
/// experiment code builds its configs from CLI-validated rates, so a
/// failure here is a programming error, not user input.
pub fn run_point(nodes: usize, fault: FaultConfig, users: usize, seed: u64) -> ResiliencePoint {
    let scenario = scale_scenario(nodes, Scheme::JustInTime, seed);
    let set = QuerySet::generate(&scenario, users);
    let start = Instant::now();
    let options = SimOptions {
        faults: Some(fault),
        ..SimOptions::default()
    };
    let mut sim = SteppedSim::with_options(scenario, set, TreeSharing::Shared, options)
        .expect("resilience fault configs are valid by construction");
    sim.run_to_end().expect("fault walks complete");
    let summary = ResilienceSummary::from_batches(sim.fault_log());
    let out = sim.finish();
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let delivered: usize = out
        .logs
        .iter()
        .flat_map(|log| log.records())
        .filter(|r| r.met_deadline())
        .count();
    let latency = recovery_latency(&out.logs);
    ResiliencePoint {
        nodes,
        loss: fault.loss,
        burst: fault.burst,
        crash_rate: fault.crash_rate,
        recovery: fault.recovery,
        users,
        seed,
        batches: summary.batches,
        link_bad_node_periods: summary.link_bad_node_periods,
        crashes: summary.crashes,
        install_attempts: summary.install_attempts,
        retries: summary.retries,
        install_failures: summary.install_failures,
        trees_rebuilt: summary.trees_rebuilt,
        naive_fallbacks: summary.naive_fallbacks,
        retry_energy_j: summary.retry_energy_j,
        delivered,
        retries_per_delivered: summary.retries_per_delivered(delivered),
        outages: latency.outages,
        mean_outage_periods: latency.mean_periods,
        max_outage_periods: latency.max_periods,
        mean_success_ratio: out.mean_success_ratio(),
        mean_fidelity: out.mean_fidelity(),
        mean_delivery_ratio: mean_delivery(&out),
        elapsed_ms,
    }
}

/// Runs every (scale × ladder loss × recovery × replicate) trial — fanned
/// out over `config.jobs` workers — in deterministic trial order. The seed
/// depends on the (scale, loss) point and replicate but NOT on the recovery
/// flag, so each on/off pair faces the identical fault schedule.
pub fn run_points(
    config: &ExperimentConfig,
    scales: &[usize],
    fault: FaultConfig,
) -> Vec<ResiliencePoint> {
    let runs = config.runs.max(1);
    let mut trials = Vec::new();
    let mut point = 0usize;
    for &nodes in scales {
        for &loss in &loss_ladder(fault.loss) {
            for replicate in 0..runs {
                let seed = trial_seed(config.base_seed, point, replicate);
                for recovery in [true, false] {
                    let config = FaultConfig {
                        loss,
                        recovery,
                        ..fault
                    };
                    trials.push((nodes, config, seed));
                }
            }
            point += 1;
        }
    }
    pool::run_indexed(config.jobs, trials, |_, (nodes, fault, seed)| {
        run_point(nodes, fault, config.users, seed)
    })
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
        table.push_row(vec![
            p.nodes.to_string(),
            format!("{:.4}", p.loss),
            if p.recovery { "on" } else { "off" }.to_string(),
            p.crashes.to_string(),
            p.retries.to_string(),
            p.install_failures.to_string(),
            p.trees_rebuilt.to_string(),
            p.naive_fallbacks.to_string(),
            format!("{:.3}", p.mean_delivery_ratio),
            format!("{:.3}", p.mean_fidelity),
        ]);
    }
    table
}

/// Runs the sweep and formats it as a table (rows: scale × loss × recovery
/// × replicate).
pub fn run(config: &ExperimentConfig, scales: &[usize], fault: FaultConfig) -> Table {
    table_from_points(&run_points(config, scales, fault))
}

/// The deterministic JSON view of one point: every field except wall-clock.
fn point_json(p: &ResiliencePoint) -> JsonValue {
    JsonValue::object()
        .with("nodes", p.nodes)
        .with("loss", p.loss)
        .with("burst", p.burst)
        .with("crash_rate", p.crash_rate)
        .with("recovery", p.recovery)
        .with("users", p.users)
        .with("seed", p.seed)
        .with("batches", p.batches)
        .with("link_bad_node_periods", p.link_bad_node_periods)
        .with("crashes", p.crashes)
        .with("install_attempts", p.install_attempts as usize)
        .with("retries", p.retries as usize)
        .with("install_failures", p.install_failures as usize)
        .with("trees_rebuilt", p.trees_rebuilt as usize)
        .with("naive_fallbacks", p.naive_fallbacks as usize)
        .with("retry_energy_j", p.retry_energy_j)
        .with("delivered", p.delivered)
        .with("retries_per_delivered", p.retries_per_delivered)
        .with("outages", p.outages)
        .with("mean_outage_periods", p.mean_outage_periods)
        .with("max_outage_periods", p.max_outage_periods as usize)
        .with("mean_success_ratio", p.mean_success_ratio)
        .with("mean_fidelity", p.mean_fidelity)
        .with("mean_delivery_ratio", p.mean_delivery_ratio)
}

/// Runs the sweep and renders it as JSON with **no timing fields**, so the
/// bytes are identical for every `--jobs` setting — the CI chaos gate
/// `cmp`s this output across job counts.
pub fn run_json(config: &ExperimentConfig, scales: &[usize], fault: FaultConfig) -> JsonValue {
    let points = run_points(config, scales, fault);
    table_from_points(&points)
        .to_json()
        .with("loss", fault.loss)
        .with("burst", fault.burst)
        .with(
            "points",
            points.iter().map(point_json).collect::<Vec<JsonValue>>(),
        )
}

/// The `--bench` resilience section: at one deployment size, sweep a fixed
/// loss ladder with recovery on and off on the identical fault schedule.
/// `check_bench.py` holds recovery-on to strictly higher
/// `mean_delivery_ratio` than recovery-off at every nonzero loss.
pub fn bench_sweep(nodes: usize, losses: &[f64], users: usize, base_seed: u64) -> JsonValue {
    let mut entries = Vec::new();
    for (point, &loss) in losses.iter().enumerate() {
        let seed = trial_seed(base_seed, point, 0);
        for recovery in [true, false] {
            eprintln!(
                "resilience bench: {nodes} nodes at loss {loss}, recovery {}",
                if recovery { "on" } else { "off" }
            );
            let p = run_point(
                nodes,
                FaultConfig::new(loss).with_recovery(recovery),
                users,
                seed,
            );
            entries.push(
                JsonValue::object()
                    .with("nodes", p.nodes)
                    .with("loss", p.loss)
                    .with("recovery", p.recovery)
                    .with("retries", p.retries as usize)
                    .with("install_failures", p.install_failures as usize)
                    .with("retries_per_delivered", round4(p.retries_per_delivered))
                    .with("mean_outage_periods", round4(p.mean_outage_periods))
                    .with("mean_success_ratio", round4(p.mean_success_ratio))
                    .with("mean_fidelity", round4(p.mean_fidelity))
                    .with("mean_delivery_ratio", round4(p.mean_delivery_ratio))
                    .with("elapsed_ms", round2(p.elapsed_ms)),
            );
        }
    }
    JsonValue::Array(entries)
}

fn round4(v: f64) -> f64 {
    (v * 10_000.0).round() / 10_000.0
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
        let p = run_point(200, FaultConfig::new(0.3), 2, 7);
        assert!(p.batches > 0);
        assert!(
            p.link_bad_node_periods > 0,
            "30% loss must mark channels bad"
        );
        assert!(p.install_attempts > 0);
        assert!(p.recovery);
        assert!(p.mean_delivery_ratio > 0.0 && p.mean_delivery_ratio <= 1.0);
    }

    #[test]
    fn recovery_on_beats_recovery_off_on_the_same_schedule() {
        let on = run_point(200, FaultConfig::new(0.3), 3, 11);
        let off = run_point(200, FaultConfig::new(0.3).with_recovery(false), 3, 11);
        assert!(on.retries > 0, "recovery must actually retry under loss");
        assert_eq!(off.retries, 0, "no retries with recovery off");
        assert!(
            on.mean_delivery_ratio > off.mean_delivery_ratio,
            "retries must buy delivery: on={} off={}",
            on.mean_delivery_ratio,
            off.mean_delivery_ratio
        );
    }

    #[test]
    fn sweep_is_jobs_invariant() {
        let config = ExperimentConfig {
            users: 2,
            ..ExperimentConfig::quick()
        };
        let fault = FaultConfig::new(0.2);
        let strip = |points: Vec<ResiliencePoint>| {
            points
                .into_iter()
                .map(|p| point_json(&p).to_string())
                .collect::<Vec<_>>()
        };
        let serial = strip(run_points(&config.with_jobs(1), &[150], fault));
        let parallel = strip(run_points(&config.with_jobs(4), &[150], fault));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 3 * 2, "ladder of three, on and off each");
    }

    #[test]
    fn bench_sweep_reports_on_off_pairs_per_loss() {
        let doc = bench_sweep(150, &[0.1, 0.3], 2, 11);
        let JsonValue::Array(entries) = doc else {
            panic!("resilience bench must be an array");
        };
        assert_eq!(entries.len(), 4, "two losses, on and off each");
        let text = entries[0].to_string();
        for field in [
            "\"loss\"",
            "\"recovery\"",
            "\"retries\"",
            "\"mean_delivery_ratio\"",
            "\"mean_outage_periods\"",
            "\"elapsed_ms\"",
        ] {
            assert!(text.contains(field), "missing {field} in {text}");
        }
    }
}
