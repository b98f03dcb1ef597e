//! Figure 5 — dynamic behaviour: per-period data fidelity of MQ-JIT and
//! MQ-GP at each pickup point.
//!
//! Paper setting: sleep period 15 s, walking user (3–5 m/s), oracle motion
//! profile, 200 query periods. MQ-JIT reaches 100 % fidelity after an initial
//! warm-up of about five periods; MQ-GP shows large variance caused by
//! congestion losses.

use crate::runner::TrialPlan;
use crate::{ExperimentConfig, Report};
use mobiquery::config::Scheme;
use wsn_metrics::{JsonValue, Series};
use wsn_mobility::ProfileSource;

/// Periods each scheme's steady-state mean skips as its warm-up.
const WARMUP_PERIODS: usize = 10;

fn steady_mean(series: &Series, skip: usize) -> f64 {
    let pts: Vec<f64> = series.points().iter().skip(skip).map(|&(_, y)| y).collect();
    if pts.is_empty() {
        0.0
    } else {
        pts.iter().sum::<f64>() / pts.len() as f64
    }
}

/// Runs the two schemes (one trial each) and reports their per-period
/// fidelity series and the steady-state mean fidelity of each after its
/// warm-up.
pub fn run(config: &ExperimentConfig) -> Report {
    let base = config
        .base_scenario()
        .with_sleep_period_secs(15.0)
        .with_speed_range(3.0, 5.0)
        .with_profile_source(ProfileSource::Oracle);

    // The figure is a single dynamic trace per scheme, so the plan has one
    // replicate per point whatever `config.runs` says.
    let single = ExperimentConfig { runs: 1, ..*config };
    let mut plan = TrialPlan::new();
    for scheme in [Scheme::JustInTime, Scheme::Greedy] {
        plan.push_point(&single, base.clone().with_scheme(scheme));
    }
    let mut traces = plan.run_map(|_, output| output.fidelity_series());

    let mut jit = Series::new("MQ-JIT");
    let mut greedy = Series::new("MQ-GP");
    let greedy_trace = traces.pop().and_then(|mut t| t.pop()).unwrap_or_default();
    let jit_trace = traces.pop().and_then(|mut t| t.pop()).unwrap_or_default();
    for (trace, series) in [(jit_trace, &mut jit), (greedy_trace, &mut greedy)] {
        for (k, fidelity) in trace {
            series.push(k as f64, fidelity);
        }
    }
    let jit_mean = steady_mean(&jit, WARMUP_PERIODS);
    let greedy_mean = steady_mean(&greedy, WARMUP_PERIODS);
    Report {
        text: format!(
            "{jit}\n{greedy}\nsteady-state mean fidelity: MQ-JIT {jit_mean:.3}, MQ-GP {greedy_mean:.3}\n"
        ),
        json: JsonValue::object()
            .with("jit", jit.to_json())
            .with("greedy", greedy.to_json())
            .with("jit_steady_state_mean", jit_mean)
            .with("greedy_steady_state_mean", greedy_mean),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_mean_skips_warmup() {
        let mut s = Series::new("x");
        s.push(1.0, 0.0);
        s.push(2.0, 0.0);
        s.push(3.0, 1.0);
        s.push(4.0, 1.0);
        assert_eq!(steady_mean(&s, 2), 1.0);
        assert_eq!(steady_mean(&s, 10), 0.0);
    }
}
