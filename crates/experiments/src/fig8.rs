//! Figure 8 — average power consumption per sleeping (duty-cycled) node
//! versus the sleep period, for CCP alone and for MQ-JIT with early and late
//! motion profiles.
//!
//! Paper setting: the user changes motion every 70 s over a 400 s run; the
//! radio power profile is 1400/1000/830/130 mW (tx/rx/idle/sleep). Power
//! falls as the sleep period grows; MobiQuery adds less than 0.05 W over CCP,
//! and a late profile (`Ta = −3 s`) costs slightly *less* energy than an
//! early one (`Ta = 9 s`) because warm-up periods wake fewer nodes.

use crate::runner::{replicates, summarize};
use crate::{run_scenario, ExperimentConfig, Report};
use mobiquery::config::Scheme;
use wsn_metrics::{JsonValue, Table};
use wsn_sim::stats::Summary;

/// The sleep periods swept, in seconds.
pub fn sleep_periods(config: &ExperimentConfig) -> Vec<f64> {
    if config.quick {
        vec![3.0, 15.0]
    } else {
        vec![3.0, 9.0, 15.0]
    }
}

/// One data point: per-sleeping-node power for a sleep period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Sleep period in seconds.
    pub sleep_period_s: f64,
    /// CCP baseline power (no query), in watts.
    pub ccp_power_w: f64,
    /// MQ-JIT with a late profile (`Ta = −3 s`), in watts.
    pub jit_late_power_w: f64,
    /// MQ-JIT with an early profile (`Ta = 9 s`), in watts.
    pub jit_early_power_w: f64,
}

/// Runs the sweep and returns every data point.
///
/// Sleep period `i` contributes two points: the late profile (`Ta = −3 s`)
/// is point `2i` and the early one (`Ta = 9 s`) point `2i + 1`. Every trial
/// reports both its query power and its duty-cycle-only baseline, so the CCP
/// curve comes from the late-profile trials without simulating them a second
/// time.
pub fn run_points(config: &ExperimentConfig) -> Vec<Fig8Point> {
    let mut points = Vec::new();
    for (i, &sleep_period_s) in sleep_periods(config).iter().enumerate() {
        let base = config
            .base_scenario()
            .with_sleep_period_secs(sleep_period_s)
            .with_speed_range(3.0, 5.0)
            .with_motion_change_interval(70.0)
            .with_duration_secs(if config.quick { 120.0 } else { 400.0 })
            .with_scheme(Scheme::JustInTime);
        let late = base.clone().with_planner_advance(-3.0);
        let (ccp, jit_late): (Summary, Summary) = replicates(config, 2 * i, &late)
            .map(|trial| {
                let o = run_scenario(trial);
                (o.baseline_sleeping_power_w, o.mean_sleeping_power_w)
            })
            .unzip();
        let early = base.with_planner_advance(9.0);
        let jit_early = summarize(config, 2 * i + 1, &early, |o| o.mean_sleeping_power_w);
        points.push(Fig8Point {
            sleep_period_s,
            ccp_power_w: ccp.mean(),
            jit_late_power_w: jit_late.mean(),
            jit_early_power_w: jit_early.mean(),
        });
    }
    points
}

/// Runs the sweep and reports it as a table (rows: configuration, columns:
/// sleep period); the JSON adds every raw data point at full precision.
pub fn run(config: &ExperimentConfig) -> Report {
    let computed = run_points(config);
    let points: Vec<JsonValue> = computed
        .iter()
        .map(|p| {
            JsonValue::object()
                .with("sleep_period_s", p.sleep_period_s)
                .with("ccp_power_w", p.ccp_power_w)
                .with("jit_late_power_w", p.jit_late_power_w)
                .with("jit_early_power_w", p.jit_early_power_w)
        })
        .collect();
    let table = table_from_points(config, &computed);
    Report {
        text: format!("{table}\n"),
        json: table.to_json().with("points", points),
    }
}

/// Formats already-computed points as the Figure 8 table.
fn table_from_points(config: &ExperimentConfig, points: &[Fig8Point]) -> Table {
    let sleeps = sleep_periods(config);
    let mut columns = vec!["configuration".to_string()];
    columns.extend(sleeps.iter().map(|s| format!("sleep={s}s")));
    let mut table = Table::new("Figure 8: power consumption per sleeping node (W)", columns);
    let row = |f: &dyn Fn(&Fig8Point) -> f64| -> Vec<f64> {
        sleeps
            .iter()
            .map(|&s| {
                points
                    .iter()
                    .find(|p| p.sleep_period_s == s)
                    .map(f)
                    .unwrap_or(f64::NAN)
            })
            .collect()
    };
    table.push_labeled_row("CCP (no query)", &row(&|p| p.ccp_power_w));
    table.push_labeled_row("MQ-JIT, Ta=-3s", &row(&|p| p.jit_late_power_w));
    table.push_labeled_row("MQ-JIT, Ta=9s", &row(&|p| p.jit_early_power_w));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_requested_periods() {
        assert_eq!(
            sleep_periods(&ExperimentConfig::full()),
            vec![3.0, 9.0, 15.0]
        );
        assert_eq!(sleep_periods(&ExperimentConfig::quick()).len(), 2);
    }
}
