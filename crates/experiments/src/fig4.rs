//! Figure 4 — success ratio of MQ-JIT, MQ-GP and NP across sleep periods and
//! user speeds, under accurate (oracle) motion profiles.
//!
//! Paper setting: 400 s runs, the user changes direction/speed every 50 s,
//! speed ranges {3–5, 6–10, 16–20} m/s, sleep periods {3, 6, 9, 12, 15} s,
//! success threshold 95 % fidelity, averaged over 3 topologies.

use crate::runner::summarize;
use crate::{ExperimentConfig, Report};
use mobiquery::config::Scheme;
use wsn_metrics::{JsonValue, Table};
use wsn_mobility::ProfileSource;

/// The sleep periods swept in the figure, in seconds.
pub fn sleep_periods(config: &ExperimentConfig) -> Vec<f64> {
    if config.quick {
        vec![3.0, 9.0, 15.0]
    } else {
        vec![3.0, 6.0, 9.0, 12.0, 15.0]
    }
}

/// The user speed ranges swept in the figure, in m/s.
pub fn speed_ranges(config: &ExperimentConfig) -> Vec<(f64, f64)> {
    if config.quick {
        vec![(3.0, 5.0), (16.0, 20.0)]
    } else {
        vec![(3.0, 5.0), (6.0, 10.0), (16.0, 20.0)]
    }
}

/// The schemes compared in the figure.
pub const SCHEMES: [Scheme; 3] = [Scheme::JustInTime, Scheme::Greedy, Scheme::None];

/// One data point of the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// The prefetching scheme.
    pub scheme: Scheme,
    /// Duty-cycle sleep period in seconds.
    pub sleep_period_s: f64,
    /// Lower bound of the user speed range (m/s).
    pub speed_min: f64,
    /// Upper bound of the user speed range (m/s).
    pub speed_max: f64,
    /// Mean success ratio over the replicated runs.
    pub success_ratio: f64,
    /// 95 % confidence half-interval of the success ratio.
    pub ci95: f64,
}

/// Runs the full sweep — every (speed × sleep × scheme × replicate) trial,
/// points numbered in that loop order — and returns every data point.
pub fn run_points(config: &ExperimentConfig) -> Vec<Fig4Point> {
    let mut points = Vec::new();
    for &(speed_min, speed_max) in &speed_ranges(config) {
        for &sleep_period_s in &sleep_periods(config) {
            for &scheme in &SCHEMES {
                let scenario = config
                    .base_scenario()
                    .with_sleep_period_secs(sleep_period_s)
                    .with_speed_range(speed_min, speed_max)
                    .with_profile_source(ProfileSource::Oracle)
                    .with_scheme(scheme);
                let summary = summarize(config, points.len(), &scenario, |o| o.success_ratio);
                points.push(Fig4Point {
                    scheme,
                    sleep_period_s,
                    speed_min,
                    speed_max,
                    success_ratio: summary.mean(),
                    ci95: summary.ci95(),
                });
            }
        }
    }
    points
}

/// Formats already-computed points as the Figure 4 table.
fn table_from_points(config: &ExperimentConfig, points: &[Fig4Point]) -> Table {
    let sleeps = sleep_periods(config);
    let mut columns = vec!["scheme / speed (m/s)".to_string()];
    columns.extend(sleeps.iter().map(|s| format!("sleep={s}s")));
    let mut table = Table::new(
        "Figure 4: success ratio vs sleep period and user speed (oracle motion profile)",
        columns,
    );
    for &(lo, hi) in &speed_ranges(config) {
        for &scheme in &SCHEMES {
            let values: Vec<f64> = sleeps
                .iter()
                .map(|&s| {
                    points
                        .iter()
                        .find(|p| {
                            p.scheme == scheme
                                && p.sleep_period_s == s
                                && p.speed_min == lo
                                && p.speed_max == hi
                        })
                        .map(|p| p.success_ratio)
                        .unwrap_or(f64::NAN)
                })
                .collect();
            table.push_labeled_row(format!("{} {lo}-{hi}", scheme.label()), &values);
        }
    }
    table
}

/// Runs the sweep and reports it as the paper's Figure 4 table (rows:
/// scheme × speed range, columns: sleep period); the JSON adds every raw
/// data point at full float precision.
pub fn run(config: &ExperimentConfig) -> Report {
    let computed = run_points(config);
    let points: Vec<JsonValue> = computed
        .iter()
        .map(|p| {
            JsonValue::object()
                .with("scheme", p.scheme.label())
                .with("sleep_period_s", p.sleep_period_s)
                .with("speed_min", p.speed_min)
                .with("speed_max", p.speed_max)
                .with("success_ratio", p.success_ratio)
                .with("ci95", p.ci95)
        })
        .collect();
    let table = table_from_points(config, &computed);
    Report {
        text: format!("{table}\n"),
        json: table.to_json().with("points", points),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_dimensions_match_config() {
        let quick = ExperimentConfig::quick();
        let full = ExperimentConfig::full();
        assert_eq!(sleep_periods(&full).len(), 5);
        assert_eq!(speed_ranges(&full).len(), 3);
        assert!(sleep_periods(&quick).len() < 5);
    }
}
