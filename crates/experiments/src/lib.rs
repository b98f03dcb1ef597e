//! # mobiquery-experiments
//!
//! The experiment harness that regenerates every figure of the MobiQuery
//! paper's evaluation (Section 6) and the worked analytical examples of
//! Section 5.
//!
//! Each `figN` module exposes a `run(&ExperimentConfig)` function returning
//! the corresponding table or series; the `repro` binary prints them,
//! `repro --bench` times them, and the integration tests assert the
//! qualitative shapes (who wins, how trends go) that the paper reports.
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

/// Controls how heavy each experiment is and how many worker threads run it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Run the paper-scale version (`false`) or the scaled-down quick
    /// version (`true`).
    pub quick: bool,
    /// Number of independent topologies/runs averaged per data point.
    pub runs: u64,
    /// Base RNG seed; trial `r` of point `p` uses
    /// [`runner::trial_seed`]`(base_seed, p, r)`.
    pub base_seed: u64,
    /// Worker threads for cross-trial fan-out (see [`wsn_sim::pool`]).
    /// Results do not depend on this; only wall-clock does.
    pub jobs: usize,
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
            base_seed: 42,
            jobs: 1,
            users: 64,
        }
    }

    /// The scaled-down configuration used by the tests and CI.
    pub fn quick() -> Self {
        ExperimentConfig {
            quick: true,
            runs: 1,
            base_seed: 42,
            jobs: 1,
            users: 8,
        }
    }

    /// Returns the configuration with `jobs` worker threads for trial
    /// fan-out. Pass [`wsn_sim::pool::available_jobs`] to use every core.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Returns the configuration with the multi-user sweep laddering up to
    /// `users` concurrent users.
    pub fn with_users(mut self, users: usize) -> Self {
        self.users = users.max(1);
        self
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

/// Rounds `v` to two decimals, the precision the JSON sections report
/// timings and ratios at.
pub(crate) fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
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

    #[test]
    fn quick_config_shrinks_the_scenario() {
        let quick = ExperimentConfig::quick().base_scenario();
        let full = ExperimentConfig::full().base_scenario();
        assert!(quick.node_count < full.node_count);
        assert!(quick.motion.duration < full.motion.duration);
    }
}
