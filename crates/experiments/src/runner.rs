//! The trial-execution subsystem: declarative plans of independent
//! simulation trials, run in plan order on the calling thread.
//!
//! Every figure sweep, like the multi-user and churn sweeps, is the same
//! shape — a grid of *points* (one scenario each), each point replicated
//! over a few independent topologies. This module makes that structure
//! explicit:
//!
//! 1. a sweep *flattens* its nested parameter loops into a
//!    [`TrialPlan`] (a `Vec<TrialSpec>` of scenario + derived seed + point
//!    coordinates) instead of running anything inline,
//! 2. the plan runs its trials one after another, in plan order, and
//! 3. results come back grouped by point in plan order.
//!
//! Each trial's seed is a pure function
//! [`trial_seed`]`(base_seed, point_index, replicate)` of its coordinates,
//! so a trial's result does not depend on which other trials the plan holds.

use crate::{run_scenario, ExperimentConfig};
use mobiquery::config::Scenario;
use mobiquery::sim::SimulationOutput;
use wsn_sim::stats::Summary;

/// Derives the RNG seed for one trial from the experiment's base seed and
/// the trial's plan coordinates.
///
/// The derivation is [`wsn_sim::mix_seed`] — a SplitMix64-style finalizer
/// over the three inputs, so nearby coordinates (adjacent points, adjacent
/// replicates) still get statistically independent streams — unlike the
/// additive `base_seed + r` scheme this replaces, which reused the same seeds
/// at every point. The function is pure: the seed depends only on
/// `(base_seed, point_index, replicate)`, never on execution order. The
/// multi-user simulation derives its per-user and per-query streams through
/// the same mixer (with distinct stream tags), so one scheme covers the whole
/// workspace; the exact output is pinned by this module's tests.
pub fn trial_seed(base_seed: u64, point_index: usize, replicate: u64) -> u64 {
    wsn_sim::mix_seed(
        base_seed,
        &[0x9E37_79B9_7F4A_7C15, point_index as u64, replicate],
    )
}

/// One simulation trial: a fully configured scenario plus the plan
/// coordinates it was flattened from.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialSpec {
    /// Index of the data point this trial belongs to (plan order).
    pub point_index: usize,
    /// Replicate number within the point, `0..runs`.
    pub replicate: u64,
    /// The derived RNG seed, `trial_seed(base_seed, point_index, replicate)`.
    pub seed: u64,
    /// The scenario to simulate (seed already applied).
    pub scenario: Scenario,
}

/// A declarative batch of independent trials, grouped into data points.
///
/// Build one by [`push_point`](TrialPlan::push_point)-ing each scenario of a
/// sweep in figure order, then execute the whole batch at once with
/// [`run_trials`](TrialPlan::run_trials), or through the event engine with
/// [`run_map`](TrialPlan::run_map) or
/// [`run_summaries`](TrialPlan::run_summaries).
///
/// ```
/// use mobiquery_experiments::runner::TrialPlan;
/// use mobiquery_experiments::ExperimentConfig;
///
/// let config = ExperimentConfig::quick();
/// let mut plan = TrialPlan::new();
/// for sleep in [3.0, 15.0] {
///     plan.push_point(&config, config.base_scenario().with_sleep_period_secs(sleep));
/// }
/// assert_eq!(plan.point_count(), 2);
/// assert_eq!(plan.trial_count(), 2 * config.runs as usize);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialPlan {
    points: usize,
    trials: Vec<TrialSpec>,
}

impl TrialPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        TrialPlan::default()
    }

    /// Appends one data point: `config.runs` replicates of `scenario`, each
    /// with its own derived seed. Returns the point's index.
    pub fn push_point(&mut self, config: &ExperimentConfig, scenario: Scenario) -> usize {
        let point_index = self.points;
        self.points += 1;
        for replicate in 0..config.runs.max(1) {
            let seed = trial_seed(config.base_seed, point_index, replicate);
            self.trials.push(TrialSpec {
                point_index,
                replicate,
                seed,
                scenario: scenario.clone().with_seed(seed),
            });
        }
        point_index
    }

    /// Number of data points pushed so far.
    pub fn point_count(&self) -> usize {
        self.points
    }

    /// Total number of trials (points × their replicates).
    pub fn trial_count(&self) -> usize {
        self.trials.len()
    }

    /// The flattened trials, in plan order.
    pub fn trials(&self) -> &[TrialSpec] {
        &self.trials
    }

    /// Runs `trial` on every trial spec in plan order and returns the
    /// results grouped by point.
    ///
    /// Heavy outputs (query logs, series) can be reduced to small values
    /// inside `trial`, so only those are kept.
    pub fn run_trials<R>(self, mut trial: impl FnMut(&TrialSpec) -> R) -> Vec<Vec<R>> {
        let mut grouped: Vec<Vec<R>> = (0..self.points).map(|_| Vec::new()).collect();
        for spec in &self.trials {
            grouped[spec.point_index].push(trial(spec));
        }
        grouped
    }

    /// Runs every trial's scenario through the event engine, reduces each
    /// output through `extract` and returns the extracted values grouped by
    /// point in plan order, under [`run_trials`](TrialPlan::run_trials)'
    /// rules.
    pub fn run_map<R>(
        self,
        mut extract: impl FnMut(&TrialSpec, &SimulationOutput) -> R,
    ) -> Vec<Vec<R>> {
        self.run_trials(|spec| extract(spec, &run_scenario(spec.scenario.clone())))
    }

    /// Runs every trial and summarises a single scalar `metric` per point.
    pub fn run_summaries(self, metric: impl Fn(&SimulationOutput) -> f64) -> Vec<Summary> {
        self.run_map(|_, output| metric(output))
            .into_iter()
            .map(|values| values.into_iter().collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seed_is_deterministic_and_spread() {
        assert_eq!(trial_seed(42, 3, 1), trial_seed(42, 3, 1));
        // Any two distinct coordinates must give distinct seeds, including
        // the pairs an additive scheme would collide on.
        let coords = [(42, 0, 0), (42, 0, 1), (42, 1, 0), (42, 1, 1), (43, 0, 0)];
        let seeds: Vec<u64> = coords
            .iter()
            .map(|&(b, p, r)| trial_seed(b, p, r))
            .collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seed collision in {seeds:?}");
    }

    #[test]
    fn plan_flattening_matches_points_times_runs() {
        let config = ExperimentConfig {
            runs: 3,
            ..ExperimentConfig::quick()
        };
        let mut plan = TrialPlan::new();
        for sleep in [3.0, 9.0, 15.0] {
            plan.push_point(
                &config,
                config.base_scenario().with_sleep_period_secs(sleep),
            );
        }
        assert_eq!(plan.point_count(), 3);
        assert_eq!(plan.trial_count(), 9);
        for (i, spec) in plan.trials().iter().enumerate() {
            assert_eq!(spec.point_index, i / 3);
            assert_eq!(spec.replicate, (i % 3) as u64);
            assert_eq!(
                spec.seed,
                trial_seed(config.base_seed, spec.point_index, spec.replicate)
            );
            assert_eq!(spec.scenario.seed, spec.seed, "seed applied to scenario");
        }
    }

    #[test]
    fn run_summaries_groups_by_point() {
        let config = ExperimentConfig {
            runs: 2,
            ..ExperimentConfig::quick()
        };
        let mut plan = TrialPlan::new();
        plan.push_point(&config, config.base_scenario().with_duration_secs(20.0));
        plan.push_point(&config, config.base_scenario().with_duration_secs(20.0));
        let summaries = plan.run_summaries(|o| o.mean_fidelity);
        assert_eq!(summaries.len(), 2);
        for s in &summaries {
            assert_eq!(s.count(), 2);
        }
    }

    #[test]
    fn trial_seeds_are_stable_across_releases() {
        // The committed BENCH/results artifacts depend on the seed derivation;
        // pin a few values so an accidental change to the mixer is caught here
        // rather than as a mysterious golden diff.
        assert_eq!(trial_seed(42, 0, 0), 13675133952202209295);
        assert_eq!(trial_seed(42, 3, 1), 1535636025250397661);
        assert_ne!(trial_seed(42, 0, 1), trial_seed(42, 1, 0));
        assert_ne!(trial_seed(42, 2, 0), trial_seed(43, 2, 0));
    }
}
