//! Trial replication: how a sweep turns one data point into its trials.
//!
//! Every sweep — the figures, like the multi-user, churn and resilience
//! sweeps — is a grid of *points* (one scenario each), each averaged over a
//! few independent topologies (Section 6.1 of the paper). A sweep numbers
//! its points in the order its loops visit them and, inside that loop, takes
//! each point's trials from [`replicates`], or runs them through the event
//! engine with [`summarize`].
//!
//! Each trial's seed is a pure function
//! [`trial_seed`]`(`[`BASE_SEED`]`, point, replicate)` of its coordinates,
//! so a trial's result does not depend on which other trials the sweep runs.

use crate::{run_scenario, ExperimentConfig};
use mobiquery::config::Scenario;
use mobiquery::sim::SimulationOutput;
use wsn_sim::stats::Summary;

/// The base RNG seed of every experiment: trial `r` of point `p` runs under
/// [`trial_seed`]`(BASE_SEED, p, r)`.
pub const BASE_SEED: u64 = 42;

/// Derives the RNG seed for one trial from the experiment's base seed and
/// the trial's coordinates.
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

/// The trials of sweep point `point`: `max(config.runs, 1)` copies of
/// `scenario`, replicate `r` seeded [`trial_seed`]`(`[`BASE_SEED`]`, point,
/// r)` and otherwise unchanged.
///
/// ```
/// use mobiquery_experiments::runner::{replicates, trial_seed, BASE_SEED};
/// use mobiquery_experiments::ExperimentConfig;
///
/// let config = ExperimentConfig { runs: 3, ..ExperimentConfig::quick() };
/// let scenario = config.base_scenario().with_sleep_period_secs(15.0);
/// let seeds: Vec<u64> = replicates(&config, 4, &scenario).map(|s| s.seed).collect();
/// assert_eq!(seeds, [0, 1, 2].map(|r| trial_seed(BASE_SEED, 4, r)));
/// ```
pub fn replicates<'a>(
    config: &ExperimentConfig,
    point: usize,
    scenario: &'a Scenario,
) -> impl Iterator<Item = Scenario> + 'a {
    (0..config.runs.max(1)).map(move |replicate| {
        scenario
            .clone()
            .with_seed(trial_seed(BASE_SEED, point, replicate))
    })
}

/// Runs point `point`'s [`replicates`] through the event engine, in
/// replicate order, and summarises `metric` across them.
pub fn summarize(
    config: &ExperimentConfig,
    point: usize,
    scenario: &Scenario,
    metric: impl Fn(&SimulationOutput) -> f64,
) -> Summary {
    replicates(config, point, scenario)
        .map(|trial| metric(&run_scenario(trial)))
        .collect()
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
    fn replicates_reseed_the_scenario_and_change_nothing_else() {
        let scenario = ExperimentConfig::quick()
            .base_scenario()
            .with_sleep_period_secs(9.0);
        for (runs, expected) in [(3, 3), (1, 1), (0, 1)] {
            let config = ExperimentConfig {
                runs,
                ..ExperimentConfig::quick()
            };
            let trials: Vec<Scenario> = replicates(&config, 2, &scenario).collect();
            assert_eq!(trials.len(), expected, "runs = {runs}");
            for (replicate, trial) in (0u64..).zip(&trials) {
                assert_eq!(trial.seed, trial_seed(BASE_SEED, 2, replicate));
                assert_eq!(trial.clone().with_seed(scenario.seed), scenario);
            }
        }
    }

    #[test]
    fn summarize_runs_every_replicate_in_order() {
        let config = ExperimentConfig {
            runs: 2,
            ..ExperimentConfig::quick()
        };
        let scenario = config.base_scenario().with_duration_secs(20.0);
        let summary = summarize(&config, 1, &scenario, |o| o.mean_fidelity);
        let by_hand: Summary = replicates(&config, 1, &scenario)
            .map(|trial| run_scenario(trial).mean_fidelity)
            .collect();
        assert_eq!(summary.count(), 2);
        assert_eq!(summary, by_hand);
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
