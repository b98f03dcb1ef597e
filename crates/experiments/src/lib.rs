//! # mobiquery-experiments
//!
//! The experiment harness that regenerates every figure of the MobiQuery
//! paper's evaluation (Section 6) and the worked analytical examples of
//! Section 5.
//!
//! Each experiment module exposes one entry point, `run`, returning a
//! [`Report`]: the figure's table or series as display text and as JSON,
//! rendered from one computation. The `repro` binary prints either
//! rendering, `repro --bench` times the call, and the integration tests
//! assert the qualitative shapes (who wins, how trends go) that the paper
//! reports.
//!
//! Experiments come in two sizes:
//!
//! * **full** — the paper's settings (200 nodes, 450 m field, 400–500 s
//!   runs, several topologies per point); minutes of CPU per figure.
//! * **quick** — a scaled-down variant (fewer nodes, shorter runs, fewer
//!   parameter points) that preserves the qualitative comparisons; used by
//!   the tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis_tables;
pub mod churn;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod multiuser;
pub mod resilience;
pub mod runner;
pub mod scale;

use mobiquery::config::Scenario;
use mobiquery::sim::{Simulation, SimulationOutput};
use std::time::Instant;
use wsn_metrics::JsonValue;

/// One experiment's result in both of `repro`'s output formats, rendered
/// from a single computation so the two cannot disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// What `repro` prints in text mode, newline-terminated.
    pub text: String,
    /// What `repro --format json` files under the target's name.
    pub json: JsonValue,
}

/// Controls how heavy each experiment is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Run the paper-scale version (`false`) or the scaled-down quick
    /// version (`true`).
    pub quick: bool,
    /// Number of independent topologies/runs averaged per data point; the
    /// point's trials are [`runner::replicates`].
    pub runs: u64,
    /// Largest fleet size of the [`multiuser`] sweep (`--users`); the sweep
    /// ladders up to it in powers of two.
    pub users: usize,
}

impl ExperimentConfig {
    /// The paper-scale configuration (3 runs per point, as in Figure 4).
    pub fn full() -> Self {
        ExperimentConfig {
            quick: false,
            runs: 3,
            users: 64,
        }
    }

    /// The scaled-down configuration used by the tests and CI.
    pub fn quick() -> Self {
        ExperimentConfig {
            quick: true,
            runs: 1,
            users: 8,
        }
    }

    /// Returns the configuration with the multi-user sweep laddering up to
    /// `users` concurrent users.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users.max(1);
        self
    }

    /// The configuration with one replicate per point: what a `--bench`
    /// section runs its sweep under, so every timing is one trial's own, and
    /// what Figure 5's single traces run under.
    pub(crate) fn single_trial(self) -> Self {
        ExperimentConfig { runs: 1, ..self }
    }

    /// The base scenario for this configuration: the paper's Section 6.1
    /// settings, or a smaller field/population/duration in quick mode.
    pub fn base_scenario(&self) -> Scenario {
        if self.quick {
            Scenario::paper_default()
                .with_node_count(90)
                .with_region_side(300.0)
                .with_duration_secs(80.0)
        } else {
            Scenario::paper_default()
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::full()
    }
}

/// Rounds `v` to two decimals, the precision the bench document reports
/// timings and ratios at.
pub fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Runs `run` `samples` times (at least once), each on a fresh input from
/// `prepare`, and returns the output of the fastest run with its wall-clock
/// in milliseconds. Only `run` is timed. The engines are deterministic, so
/// every sample does the same work and the minimum is the least noisy
/// estimate. Every wall-clock the experiments take is taken here; the
/// set-up phases and per-batch churn timings they also report are recorded
/// by the engines themselves.
pub fn best_of<I, T>(
    samples: usize,
    mut prepare: impl FnMut() -> I,
    mut run: impl FnMut(I) -> T,
) -> (T, f64) {
    let mut best: Option<(T, f64)> = None;
    for _ in 0..samples.max(1) {
        let input = prepare();
        let start = Instant::now();
        let out = run(input);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().map_or(true, |(_, fastest)| ms < *fastest) {
            best = Some((out, ms));
        }
    }
    best.expect("at least one sample ran")
}

/// Runs one scenario and returns its output.
///
/// # Panics
///
/// Panics if the scenario fails validation — experiment code constructs its
/// scenarios from [`ExperimentConfig::base_scenario`], so a failure here is a
/// programming error, not user input.
pub fn run_scenario(scenario: Scenario) -> SimulationOutput {
    Simulation::new(scenario)
        .expect("experiment scenarios are valid by construction")
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that a `--bench` entry ends with exactly the `timing` keys, in
    /// order, and returns the entry without them: what must equal the
    /// point's own `--format json` object.
    pub(crate) fn without_timing(entry: &JsonValue, timing: &[&str]) -> JsonValue {
        let JsonValue::Object(fields) = entry else {
            panic!("a bench entry must be an object, got {entry}");
        };
        let (point, tail) = fields.split_at(fields.len().saturating_sub(timing.len()));
        let keys: Vec<&str> = tail.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys, timing,
            "the entry must end with the section's timing keys"
        );
        JsonValue::Object(point.to_vec())
    }

    #[test]
    fn best_of_keeps_the_fastest_sample() {
        let mut sleeps = [200u64, 1, 100].into_iter();
        let (out, ms) = best_of(
            3,
            || sleeps.next().expect("one input per sample"),
            |sleep| {
                std::thread::sleep(std::time::Duration::from_millis(sleep));
                sleep
            },
        );
        assert_eq!(out, 1, "the 1 ms sample is the fastest (it took {ms} ms)");
    }

    #[test]
    fn quick_config_shrinks_the_scenario() {
        let quick = ExperimentConfig::quick().base_scenario();
        let full = ExperimentConfig::full().base_scenario();
        assert!(quick.node_count < full.node_count);
        assert!(quick.motion.duration < full.motion.duration);
    }
}
