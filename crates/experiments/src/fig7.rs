//! Figure 7 — success ratio of MQ-JIT versus the interval between unexpected
//! motion changes, under different advance times and GPS location errors.
//!
//! Paper setting: sleep period 9 s, walking user; the interval between motion
//! changes varies from 42 s to 210 s. Curves: `Ta = 6 s`, `Ta = 0 s`,
//! `Ta = −8 s` (late planner), and the history-based predictor (δ = 8 s,
//! hence `Ta = −8 s`) with GPS errors of 5 m and 10 m. The success ratio
//! grows with the interval; larger errors cost a few per cent.

use crate::runner::TrialPlan;
use crate::{ExperimentConfig, Report};
use mobiquery::config::{Scenario, Scheme};
use wsn_metrics::{JsonValue, Table};

/// The motion-change intervals swept, in seconds.
pub fn change_intervals(config: &ExperimentConfig) -> Vec<f64> {
    if config.quick {
        vec![42.0, 105.0]
    } else {
        vec![42.0, 52.0, 70.0, 105.0, 210.0]
    }
}

/// One curve of the figure: how the motion profile is produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fig7Variant {
    /// Planner profile delivered `Ta` seconds before each change.
    Planner {
        /// Advance time in seconds (may be negative).
        advance_s: f64,
    },
    /// History-based predictor with the given GPS error bound (δ = 8 s).
    Predictor {
        /// Maximum GPS location error in metres.
        gps_error_m: f64,
    },
}

impl Fig7Variant {
    /// Label used in the output table (matches the paper's legend).
    pub fn label(&self) -> String {
        match self {
            Fig7Variant::Planner { advance_s } => format!("TAdv={advance_s}s"),
            Fig7Variant::Predictor { gps_error_m } => {
                format!("TAdv=-8s, err={gps_error_m}m")
            }
        }
    }

    fn apply(&self, scenario: Scenario) -> Scenario {
        match self {
            Fig7Variant::Planner { advance_s } => scenario.with_planner_advance(*advance_s),
            Fig7Variant::Predictor { gps_error_m } => scenario.with_predictor(8.0, *gps_error_m),
        }
    }
}

/// The curves of the figure.
pub fn variants(config: &ExperimentConfig) -> Vec<Fig7Variant> {
    if config.quick {
        vec![
            Fig7Variant::Planner { advance_s: 6.0 },
            Fig7Variant::Predictor { gps_error_m: 10.0 },
        ]
    } else {
        vec![
            Fig7Variant::Planner { advance_s: 6.0 },
            Fig7Variant::Planner { advance_s: 0.0 },
            Fig7Variant::Planner { advance_s: -8.0 },
            Fig7Variant::Predictor { gps_error_m: 5.0 },
            Fig7Variant::Predictor { gps_error_m: 10.0 },
        ]
    }
}

/// One data point of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Point {
    /// The curve this point belongs to.
    pub variant: Fig7Variant,
    /// Interval between motion changes, in seconds.
    pub change_interval_s: f64,
    /// Mean success ratio.
    pub success_ratio: f64,
}

/// Runs the sweep and returns every data point.
pub fn run_points(config: &ExperimentConfig) -> Vec<Fig7Point> {
    let mut plan = TrialPlan::new();
    let mut coords = Vec::new();
    for variant in variants(config) {
        for &interval in &change_intervals(config) {
            let scenario = variant.apply(
                config
                    .base_scenario()
                    .with_sleep_period_secs(9.0)
                    .with_speed_range(3.0, 5.0)
                    .with_motion_change_interval(interval)
                    .with_duration_secs(if config.quick { 130.0 } else { 500.0 })
                    .with_scheme(Scheme::JustInTime),
            );
            plan.push_point(config, scenario);
            coords.push((variant, interval));
        }
    }
    let summaries = plan.run_summaries(|o| o.success_ratio);
    coords
        .into_iter()
        .zip(summaries)
        .map(|((variant, change_interval_s), summary)| Fig7Point {
            variant,
            change_interval_s,
            success_ratio: summary.mean(),
        })
        .collect()
}

/// Runs the sweep and reports it as a table (rows: variant, columns:
/// interval); the JSON adds every raw data point at full precision.
pub fn run(config: &ExperimentConfig) -> Report {
    let computed = run_points(config);
    let points: Vec<JsonValue> = computed
        .iter()
        .map(|p| {
            JsonValue::object()
                .with("variant", p.variant.label())
                .with("change_interval_s", p.change_interval_s)
                .with("success_ratio", p.success_ratio)
        })
        .collect();
    let table = table_from_points(config, &computed);
    Report {
        text: format!("{table}\n"),
        json: table.to_json().with("points", points),
    }
}

/// Formats already-computed points as the Figure 7 table.
fn table_from_points(config: &ExperimentConfig, points: &[Fig7Point]) -> Table {
    let intervals = change_intervals(config);
    let mut columns = vec!["profile source".to_string()];
    columns.extend(intervals.iter().map(|i| format!("interval={i}s")));
    let mut table = Table::new(
        "Figure 7: MQ-JIT success ratio vs motion-change interval (sleep 9 s)",
        columns,
    );
    for variant in variants(config) {
        let values: Vec<f64> = intervals
            .iter()
            .map(|&i| {
                points
                    .iter()
                    .find(|p| p.variant == variant && p.change_interval_s == i)
                    .map(|p| p.success_ratio)
                    .unwrap_or(f64::NAN)
            })
            .collect();
        table.push_labeled_row(variant.label(), &values);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_labels_are_distinct() {
        let config = ExperimentConfig::full();
        let labels: Vec<String> = variants(&config).iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
