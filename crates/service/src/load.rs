//! Open-loop load generation against the query service.
//!
//! An open-loop generator draws query arrivals from a schedule that does not
//! react to the service (arrivals keep coming whether or not earlier queries
//! were served) — the standard way to measure tail latency without
//! coordinated omission. The schedule is a pure function of
//! `(seed, qps, duration)`: exponential inter-arrival gaps (Poisson process)
//! and uniform lifetimes, all drawn from the dedicated [`LOAD_STREAM`], so
//! the same invocation produces byte-identical reports across platforms and
//! runs.
//!
//! Latency is reported in *periods* — the service's natural clock. A query
//! arriving at `t` and admitted for first period `k` waits `k − t/T` periods
//! for its first result; p50/p99 over all served queries are the service's
//! tail. Success is per query: the fraction of its periods that delivered a
//! result above the fidelity threshold.

use crate::{ServiceError, ServiceSim};
use mobiquery::config::Scenario;
use mobiquery::error::ConfigError;
use mobiquery::sim::{FaultConfig, MultiUserOutput, QuerySet, TreeSharing};
use wsn_metrics::{JsonValue, LatencyStats, ResilienceSummary};
use wsn_sim::{mix_seed, SimRng};

/// Stream tag separating the load generator's draws from every other stream
/// derived from the same base seed.
pub const LOAD_STREAM: u64 = 0x10AD_0000_0000_0001;

/// One scheduled query arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival instant in seconds from service start.
    pub at_s: f64,
    /// Requested lifetime in whole periods.
    pub lifetime_periods: u64,
}

/// The deterministic open-loop arrival schedule for
/// `(base_seed, qps, duration_periods)`.
///
/// Inter-arrival gaps are exponential with mean `1/qps` seconds; lifetimes
/// are uniform in `1..=max(duration/2, 1)` periods. Arrivals stop before
/// `(duration − 1)·T` so every scheduled query can still be admitted for at
/// least one period.
pub fn arrival_schedule(
    base_seed: u64,
    qps: f64,
    duration_periods: u64,
    period_s: f64,
) -> Vec<Arrival> {
    let mut rng = SimRng::seed_from_u64(mix_seed(base_seed, &[LOAD_STREAM]));
    let horizon_s = duration_periods.saturating_sub(1) as f64 * period_s;
    let max_lifetime = (duration_periods / 2).max(1) as usize;
    let mut arrivals = Vec::new();
    let mut t = rng.gen_exp(1.0 / qps);
    while t < horizon_s {
        let lifetime_periods = 1 + rng.gen_range_usize(0, max_lifetime) as u64;
        arrivals.push(Arrival {
            at_s: t,
            lifetime_periods,
        });
        t += rng.gen_exp(1.0 / qps);
    }
    arrivals
}

/// Scalar summary of one load run — everything the `repro load` JSON emits.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Offered load in queries per second.
    pub qps: f64,
    /// Service horizon in periods.
    pub duration_periods: u64,
    /// The sharing mode the run used.
    pub sharing: TreeSharing,
    /// Queries admitted by the service.
    pub submitted: u64,
    /// Scheduled arrivals the service could not admit (no period left).
    pub rejected: u64,
    /// Admitted queries that never received a single result.
    pub starved: u64,
    /// Query periods whose result missed its deadline (0 only when every
    /// admitted period delivered on time).
    pub deadline_misses: u64,
    /// Install retransmissions the recovery machinery paid (0 without fault
    /// injection, and with recovery disarmed).
    pub retries: u64,
    /// Periods served in degraded mode: poisoned shared trees rebuilt or
    /// downgraded to naive per-user trees after crashes.
    pub degraded: u64,
    /// Mean per-query success ratio.
    pub mean_success_ratio: f64,
    /// Worst per-query success ratio.
    pub min_success_ratio: f64,
    /// Submission-to-first-result latency in periods, over served queries.
    /// `None` when no query was served.
    pub latency_periods: Option<LatencyStats>,
    /// Query installs the service performed.
    pub installs: u64,
    /// Flood trees actually built.
    pub trees_built: u64,
    /// Installs served by an already-standing tree.
    pub shared_hits: u64,
    /// `trees_built / installs` — 1.0 means no sharing happened.
    pub sharing_ratio: f64,
    /// Most trees simultaneously standing.
    pub peak_live_trees: usize,
    /// Deployment size.
    pub node_count: usize,
    /// Backbone size of the deployment.
    pub backbone_count: usize,
}

impl LoadReport {
    /// Deterministic JSON rendering (insertion-order keys).
    pub fn to_json(&self) -> JsonValue {
        let latency = match &self.latency_periods {
            Some(stats) => JsonValue::object()
                .with("count", stats.count)
                .with("p50_periods", stats.p50)
                .with("p99_periods", stats.p99)
                .with("max_periods", stats.max),
            None => JsonValue::object().with("count", 0u64),
        };
        JsonValue::object()
            .with("qps", self.qps)
            .with("duration_periods", self.duration_periods)
            .with("sharing", self.sharing.as_str())
            .with("submitted", self.submitted)
            .with("rejected", self.rejected)
            .with("starved", self.starved)
            .with("deadline_misses", self.deadline_misses)
            .with("retries", self.retries)
            .with("degraded", self.degraded)
            .with("mean_success_ratio", self.mean_success_ratio)
            .with("min_success_ratio", self.min_success_ratio)
            .with("latency", latency)
            .with("installs", self.installs)
            .with("trees_built", self.trees_built)
            .with("shared_hits", self.shared_hits)
            .with("sharing_ratio", self.sharing_ratio)
            .with("peak_live_trees", self.peak_live_trees)
            .with("node_count", self.node_count)
            .with("backbone_count", self.backbone_count)
    }
}

/// Everything a load run produces: the scalar report, the realized schedule
/// (for batch replay) and the raw engine output.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOutcome {
    /// Scalar summary, JSON-able via [`LoadReport::to_json`].
    pub report: LoadReport,
    /// The exact static query set the run realized — replaying it through a
    /// batch [`mobiquery::sim::SteppedSim`] walk reproduces the per-user logs
    /// bit for bit.
    pub query_set: QuerySet,
    /// The underlying engine output (per-user logs included).
    pub output: MultiUserOutput,
}

/// Runs the open-loop load `(qps, duration_periods)` against a fresh service
/// on `scenario`'s deployment.
///
/// The scenario's duration is overridden to exactly `duration_periods`
/// periods; its seed drives both the deployment and the arrival schedule.
/// With `fault` set, the service runs under that seeded fault schedule and
/// the report's retry/deadline-miss/degraded counters become meaningful.
///
/// # Errors
///
/// Returns a [`ServiceError`] for an invalid scenario or fault config, a
/// non-positive or non-finite `qps`, or a zero `duration_periods`.
pub fn run_load(
    scenario: Scenario,
    qps: f64,
    duration_periods: u64,
    sharing: TreeSharing,
    fault: Option<FaultConfig>,
) -> Result<LoadOutcome, ServiceError> {
    if !(qps.is_finite() && qps > 0.0) {
        return Err(ConfigError::new("load qps must be positive and finite").into());
    }
    if duration_periods == 0 {
        return Err(ConfigError::new("load duration must cover at least one period").into());
    }
    let period_s = scenario.query.period.as_secs_f64();
    let scenario = scenario.with_duration_secs(duration_periods as f64 * period_s);
    let arrivals = arrival_schedule(scenario.seed, qps, duration_periods, period_s);

    let mut svc = ServiceSim::open(scenario.clone(), sharing, fault)?;
    let mut pending = arrivals.iter().copied().peekable();
    let mut admitted: Vec<Arrival> = Vec::new();
    let mut rejected = 0u64;
    while !svc.is_finished() {
        let now_s = svc.next_boundary() as f64 * period_s;
        while let Some(arrival) = pending.next_if(|a| a.at_s <= now_s) {
            let mut spec = scenario.query.clone();
            spec.lifetime = spec.period * arrival.lifetime_periods;
            match svc.submit(&spec) {
                Ok(_) => admitted.push(arrival),
                Err(ServiceError::HorizonExhausted) => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        svc.step_period()?;
    }
    rejected += pending.count() as u64;

    let threshold = svc.scenario().fidelity_threshold;
    let query_set = svc.query_set().clone();
    let faults = ResilienceSummary::from_batches(svc.fault_log());
    let output = svc.finish();

    let mut success_ratios = Vec::with_capacity(admitted.len());
    let mut latency_samples = Vec::new();
    let mut starved = 0u64;
    let mut deadline_misses = 0u64;
    for (arrival, log) in admitted.iter().zip(output.logs.iter()) {
        success_ratios.push(log.success_ratio(threshold));
        deadline_misses += log.records().iter().filter(|r| !r.met_deadline()).count() as u64;
        match log
            .records()
            .iter()
            .find(|r| r.delivered_at.is_some())
            .map(|r| r.seq)
        {
            Some(first_k) => latency_samples.push(first_k as f64 - arrival.at_s / period_s),
            None => starved += 1,
        }
    }
    let mean_success_ratio = if success_ratios.is_empty() {
        0.0
    } else {
        success_ratios.iter().sum::<f64>() / success_ratios.len() as f64
    };
    let min_success_ratio = success_ratios
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
        .clamp(0.0, 1.0);

    let report = LoadReport {
        qps,
        duration_periods,
        sharing,
        submitted: admitted.len() as u64,
        rejected,
        starved,
        deadline_misses,
        retries: faults.retries,
        degraded: faults.trees_rebuilt + faults.naive_fallbacks,
        mean_success_ratio,
        min_success_ratio,
        latency_periods: LatencyStats::from_samples(&latency_samples),
        installs: output.installs,
        trees_built: output.trees_built,
        shared_hits: output.shared_hits,
        sharing_ratio: output.sharing_ratio(),
        peak_live_trees: output.peak_live_trees,
        node_count: output.node_count,
        backbone_count: output.backbone_count,
    };
    Ok(LoadOutcome {
        report,
        query_set,
        output,
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
    fn schedule_is_deterministic_and_open_loop() {
        let a = arrival_schedule(42, 4.0, 40, 2.0);
        let b = arrival_schedule(42, 4.0, 40, 2.0);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "4 qps over 78 s must produce arrivals");
        for w in a.windows(2) {
            assert!(w[0].at_s < w[1].at_s, "arrivals strictly ordered");
        }
        let horizon = 39.0 * 2.0;
        assert!(a.iter().all(|x| x.at_s < horizon));
        assert!(a.iter().all(|x| (1..=20).contains(&x.lifetime_periods)));
        let c = arrival_schedule(43, 4.0, 40, 2.0);
        assert_ne!(a, c, "the schedule follows the seed");
    }

    #[test]
    fn load_run_reports_latency_and_success() {
        let outcome = run_load(small_scenario(42), 1.0, 10, TreeSharing::Shared, None).unwrap();
        let r = &outcome.report;
        assert_eq!(
            r.submitted + r.rejected,
            arrival_schedule(42, 1.0, 10, 2.0).len() as u64
        );
        assert!(r.submitted > 0);
        assert!((0.0..=1.0).contains(&r.mean_success_ratio));
        assert!(r.min_success_ratio <= r.mean_success_ratio);
        let latency = r.latency_periods.expect("some query was served");
        assert!(latency.p50 <= latency.p99);
        assert!(latency.p50 >= 1.0, "first result is at least a period away");
        assert_eq!(
            latency.count as u64 + r.starved,
            r.submitted,
            "every admitted query is served or starved"
        );
        assert_eq!(outcome.query_set.len() as u64, r.submitted);
    }

    #[test]
    fn load_run_is_deterministic() {
        let a = run_load(small_scenario(7), 2.0, 12, TreeSharing::Shared, None).unwrap();
        let b = run_load(small_scenario(7), 2.0, 12, TreeSharing::Shared, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            a.report.to_json().to_pretty_string(),
            b.report.to_json().to_pretty_string()
        );
    }

    #[test]
    fn faulted_load_reports_recovery_counters() {
        let faulted = |recovery| {
            let fault = FaultConfig::new(0.35).with_recovery(recovery);
            run_load(
                small_scenario(42),
                1.0,
                12,
                TreeSharing::Shared,
                Some(fault),
            )
            .unwrap()
        };
        let on = faulted(true);
        assert!(on.report.retries > 0, "35% loss must force retransmissions");
        let off = faulted(false);
        assert_eq!(off.report.retries, 0, "recovery off never retries");
        assert!(
            on.report.deadline_misses <= off.report.deadline_misses,
            "recovery must not lose periods the bare service delivers"
        );
        // The zero-rate profile is byte-identical to no profile at all.
        let plain = run_load(small_scenario(42), 1.0, 12, TreeSharing::Shared, None).unwrap();
        let inert = run_load(
            small_scenario(42),
            1.0,
            12,
            TreeSharing::Shared,
            Some(FaultConfig::new(0.0)),
        )
        .unwrap();
        assert_eq!(plain, inert);
    }

    #[test]
    fn invalid_load_parameters_are_rejected() {
        assert!(run_load(small_scenario(1), 0.0, 10, TreeSharing::Shared, None).is_err());
        assert!(run_load(small_scenario(1), f64::NAN, 10, TreeSharing::Shared, None).is_err());
        assert!(run_load(small_scenario(1), 1.0, 0, TreeSharing::Shared, None).is_err());
    }
}
