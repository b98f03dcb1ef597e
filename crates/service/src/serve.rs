//! The `repro serve` runner: one resident query streamed period by period.
//!
//! The smallest daemon-shaped run: submit a single query spanning the whole
//! horizon, step every boundary, and poll after each one — the per-period
//! results stream out in the same order a long-lived client would see them.
//! Useful as a smoke of the whole submit → install → resolve → poll path
//! (CI reruns it in a fresh process and compares the JSON byte for byte) and
//! as the usage example for the client API.

use crate::{PeriodResult, ServiceError, ServiceSim};
use mobiquery::config::Scenario;
use mobiquery::error::ConfigError;
use mobiquery::sim::{FaultConfig, TreeSharing};
use wsn_metrics::{JsonValue, ResilienceSummary};

/// Summary of one [`run_serve`] invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Periods served.
    pub periods: u64,
    /// Per-period results of the resident query, in period order.
    pub results: Vec<PeriodResult>,
    /// Fraction of periods that succeeded (delivered above threshold).
    pub success_ratio: f64,
    /// Mean per-period fidelity.
    pub mean_fidelity: f64,
    /// Periods whose result missed its deadline.
    pub deadline_misses: u64,
    /// Install retransmissions paid (0 without fault injection).
    pub retries: u64,
    /// Deployment size.
    pub node_count: usize,
    /// Backbone size of the deployment.
    pub backbone_count: usize,
}

impl ServeReport {
    /// Deterministic JSON rendering (insertion-order keys).
    pub fn to_json(&self) -> JsonValue {
        let results: Vec<JsonValue> = self
            .results
            .iter()
            .map(|r| {
                JsonValue::object()
                    .with("period", r.period)
                    .with("delivered", r.delivered)
                    .with("fidelity", r.fidelity)
                    .with("succeeded", r.succeeded)
                    .with("contributing", r.contributing)
                    .with("nodes_in_area", r.nodes_in_area)
            })
            .collect();
        JsonValue::object()
            .with("periods", self.periods)
            // The resident query always runs on shared trees.
            .with("sharing", TreeSharing::Shared.as_str())
            .with("success_ratio", self.success_ratio)
            .with("mean_fidelity", self.mean_fidelity)
            .with("deadline_misses", self.deadline_misses)
            .with("retries", self.retries)
            .with("node_count", self.node_count)
            .with("backbone_count", self.backbone_count)
            .with("results", results)
    }
}

/// Serves one resident query for `periods` periods on `scenario`'s
/// deployment, polling after every boundary.
///
/// The scenario's duration is overridden to exactly `periods` periods.
/// With `fault` set, the query is served under that seeded fault schedule.
///
/// # Errors
///
/// Returns a [`ServiceError`] for an invalid scenario or fault config, or
/// `periods == 0`.
pub fn run_serve(
    scenario: Scenario,
    periods: u64,
    fault: Option<FaultConfig>,
) -> Result<ServeReport, ServiceError> {
    if periods == 0 {
        return Err(ConfigError::new("serve needs at least one period").into());
    }
    let period_s = scenario.query.period.as_secs_f64();
    let scenario = scenario.with_duration_secs(periods as f64 * period_s);
    let mut svc = ServiceSim::open(scenario.clone(), TreeSharing::Shared, fault)?;
    let id = svc.submit(&scenario.query)?;
    let mut results = Vec::with_capacity(periods as usize);
    while !svc.is_finished() {
        svc.step_period()?;
        results.extend(svc.poll(id)?);
    }
    let faults = ResilienceSummary::from_batches(svc.fault_log());
    let output = svc.finish();
    let succeeded = results.iter().filter(|r| r.succeeded).count();
    let success_ratio = succeeded as f64 / results.len().max(1) as f64;
    let mean_fidelity =
        results.iter().map(|r| r.fidelity).sum::<f64>() / results.len().max(1) as f64;
    let deadline_misses = results.iter().filter(|r| !r.delivered).count() as u64;
    Ok(ServeReport {
        periods,
        results,
        success_ratio,
        mean_fidelity,
        deadline_misses,
        retries: faults.retries,
        node_count: output.node_count,
        backbone_count: output.backbone_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobiquery::config::Scheme;

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::paper_default()
            .with_node_count(80)
            .with_region_side(300.0)
            .with_scheme(Scheme::JustInTime)
            .with_seed(seed)
    }

    #[test]
    fn serve_streams_one_result_per_period() {
        let report = run_serve(small_scenario(42), 12, None).unwrap();
        assert_eq!(report.results.len(), 12);
        for (i, r) in report.results.iter().enumerate() {
            assert_eq!(r.period, i as u64 + 1, "periods stream in order");
        }
        assert!((0.0..=1.0).contains(&report.success_ratio));
        assert!(report.mean_fidelity > 0.0);
        assert!(report.backbone_count > 0);
    }

    #[test]
    fn serve_matches_the_single_user_batch_run() {
        // One resident query spanning the horizon is exactly a 1-user batch
        // trial: the streamed per-period results equal the batch log.
        use mobiquery::sim::{QuerySet, SteppedSim};
        let periods = 10u64;
        let scenario = small_scenario(9).with_duration_secs(2.0 * periods as f64);
        let report = run_serve(scenario.clone(), periods, None).unwrap();
        let set = QuerySet::generate(&scenario, 1);
        let mut sim = SteppedSim::new(scenario, set, TreeSharing::Shared).unwrap();
        sim.run_to_end().unwrap();
        let batch = sim.finish();
        let batch_records = batch.logs[0].records();
        assert_eq!(report.results.len(), batch_records.len());
        for (served, batch) in report.results.iter().zip(batch_records) {
            assert_eq!(served.period, batch.seq);
            assert_eq!(served.contributing, batch.contributing_nodes);
            assert_eq!(served.nodes_in_area, batch.nodes_in_area);
        }
    }

    #[test]
    fn zero_periods_is_rejected() {
        assert!(run_serve(small_scenario(1), 0, None).is_err());
    }

    #[test]
    fn inert_fault_profile_serves_identically() {
        let plain = run_serve(small_scenario(5), 10, None).unwrap();
        let inert = run_serve(small_scenario(5), 10, Some(FaultConfig::new(0.0))).unwrap();
        assert_eq!(plain, inert);
        assert_eq!(inert.retries, 0);
    }

    #[test]
    fn faulted_serve_counts_misses_and_retries() {
        let report = run_serve(small_scenario(5), 16, Some(FaultConfig::new(0.4))).unwrap();
        assert!(report.retries > 0, "40% loss must force retransmissions");
        assert_eq!(
            report.deadline_misses,
            report.results.iter().filter(|r| !r.delivered).count() as u64
        );
    }
}
