//! Figure 6 — success ratio of MQ-JIT versus the advance time `Ta` of motion
//! profiles, for several sleep periods.
//!
//! Paper setting: the user changes motion every 70 s over a 500 s run at
//! walking speed; a planner-style profile for each change is delivered `Ta`
//! seconds before (or, for negative `Ta`, after) the change. The success
//! ratio grows with `Ta` and approaches 100 % once `Ta` exceeds the warm-up
//! threshold of Equation 16; shorter sleep periods need less advance notice.

use crate::runner::TrialPlan;
use crate::{ExperimentConfig, Report};
use mobiquery::analysis;
use mobiquery::config::Scheme;
use wsn_metrics::{JsonValue, Table};

/// The advance times swept, in seconds.
pub fn advance_times(config: &ExperimentConfig) -> Vec<f64> {
    if config.quick {
        vec![-6.0, 6.0, 18.0]
    } else {
        vec![-6.0, 0.0, 6.0, 12.0, 18.0]
    }
}

/// The sleep periods swept, in seconds.
pub fn sleep_periods(config: &ExperimentConfig) -> Vec<f64> {
    if config.quick {
        vec![3.0, 15.0]
    } else {
        vec![3.0, 9.0, 15.0]
    }
}

/// One data point: success ratio for a (sleep period, advance time) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Point {
    /// Sleep period in seconds.
    pub sleep_period_s: f64,
    /// Advance time `Ta` in seconds.
    pub advance_s: f64,
    /// Mean success ratio.
    pub success_ratio: f64,
    /// The Eq.-16 warm-up bound for this point, in seconds (printed alongside
    /// the simulation results, as the paper's Section 5.3 cross-check).
    pub warmup_bound_s: f64,
}

/// Runs the sweep and returns every data point.
pub fn run_points(config: &ExperimentConfig) -> Vec<Fig6Point> {
    let mut plan = TrialPlan::new();
    let mut coords = Vec::new();
    for &sleep in &sleep_periods(config) {
        for &ta in &advance_times(config) {
            let scenario = config
                .base_scenario()
                .with_sleep_period_secs(sleep)
                .with_speed_range(3.0, 5.0)
                .with_motion_change_interval(70.0)
                .with_duration_secs(if config.quick { 140.0 } else { 500.0 })
                .with_planner_advance(ta)
                .with_scheme(Scheme::JustInTime);
            let warmup = analysis::warmup_interval_approx_s(&scenario.analysis_params(), ta);
            plan.push_point(config, scenario);
            coords.push((sleep, ta, warmup));
        }
    }
    let summaries = plan.run_summaries(|o| o.success_ratio);
    coords
        .into_iter()
        .zip(summaries)
        .map(
            |((sleep_period_s, advance_s, warmup_bound_s), summary)| Fig6Point {
                sleep_period_s,
                advance_s,
                success_ratio: summary.mean(),
                warmup_bound_s,
            },
        )
        .collect()
}

/// Runs the sweep and reports it as a table (rows: sleep period, columns:
/// Ta); the JSON adds every raw data point (success ratio and Eq.-16
/// warm-up bound) at full precision.
pub fn run(config: &ExperimentConfig) -> Report {
    let computed = run_points(config);
    let points: Vec<JsonValue> = computed
        .iter()
        .map(|p| {
            JsonValue::object()
                .with("sleep_period_s", p.sleep_period_s)
                .with("advance_s", p.advance_s)
                .with("success_ratio", p.success_ratio)
                .with("warmup_bound_s", p.warmup_bound_s)
        })
        .collect();
    let table = table_from_points(config, &computed);
    Report {
        text: format!("{table}\n"),
        json: table.to_json().with("points", points),
    }
}

/// Formats already-computed points as the Figure 6 table.
fn table_from_points(config: &ExperimentConfig, points: &[Fig6Point]) -> Table {
    let tas = advance_times(config);
    let mut columns = vec!["sleep period".to_string()];
    columns.extend(tas.iter().map(|t| format!("Ta={t}s")));
    let mut table = Table::new(
        "Figure 6: MQ-JIT success ratio vs advance time of motion profiles",
        columns,
    );
    for &sleep in &sleep_periods(config) {
        let values: Vec<f64> = tas
            .iter()
            .map(|&ta| {
                points
                    .iter()
                    .find(|p| p.sleep_period_s == sleep && p.advance_s == ta)
                    .map(|p| p.success_ratio)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        table.push_labeled_row(format!("{sleep}s"), &values);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_bound_decreases_with_advance_time() {
        let config = ExperimentConfig::quick();
        let scenario = config.base_scenario().with_sleep_period_secs(9.0);
        let p = scenario.analysis_params();
        assert!(
            analysis::warmup_interval_approx_s(&p, -6.0)
                > analysis::warmup_interval_approx_s(&p, 18.0)
        );
    }
}
